#include "harness/calibrate.h"

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>

#include "harness/stats.h"

namespace frontbench {

namespace {

// Each working set is 64 MiB, about the size of the engine's in-memory Sales
// (200k rows at roughly 300 bytes), so it competes for the shared cache the
// way the queries' tables do.
constexpr size_t kTableEntries = size_t{8} << 20;
constexpr size_t kCopyBytes = size_t{8} << 20;
constexpr int kStrings = 20000;
constexpr int kAggRows = 200000;
constexpr int64_t kAggGroups = 5000;
constexpr int kReads = 50000;
constexpr int kSortValues = 50000;

uint64_t Lcg(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state >> 17;
}

bool WriteAll(int fd, const void* buf, size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadAll(int fd, void* buf, size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

}  // namespace

ReferenceJob::ReferenceJob() : source_(kCopyBytes) {
  for (size_t i = 0; i < source_.size(); ++i) source_[i] = static_cast<char>(i * 31);
}

double ReferenceJob::RunMs(size_t set, uint64_t* checksum) const {
  const std::vector<int64_t>& table = tables_[set];
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t s = 42;
  uint64_t sum = 0;

  std::vector<std::string> strings;
  strings.reserve(kStrings);
  for (int i = 0; i < kStrings; ++i) {
    strings.push_back("reference-string-" + std::to_string(Lcg(&s) % 100000));
  }
  for (const std::string& str : strings) sum += str.size() + static_cast<uint64_t>(str.back());

  std::unordered_map<int64_t, double> groups;
  for (int i = 0; i < kAggRows; ++i) {
    groups[static_cast<int64_t>(Lcg(&s) % kAggGroups)] += static_cast<double>(i & 1023);
  }
  for (const auto& [k, v] : groups) sum += static_cast<uint64_t>(k) ^ static_cast<uint64_t>(v);

  for (int64_t v : table) sum += static_cast<uint64_t>(v);
  uint64_t idx = 7;
  for (int i = 0; i < kReads; ++i) {
    idx = (static_cast<uint64_t>(table[idx % kTableEntries]) + Lcg(&s)) % kTableEntries;
    sum += idx;
  }

  std::vector<char> copy(source_.size());
  std::memcpy(copy.data(), source_.data(), source_.size());
  sum += static_cast<uint64_t>(copy[Lcg(&s) % copy.size()]);

  std::vector<double> values(kSortValues);
  for (double& v : values) v = static_cast<double>(Lcg(&s) % 1000003);
  std::sort(values.begin(), values.end());
  sum += static_cast<uint64_t>(values[kSortValues / 2]);

  *checksum += sum;
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

double ReferenceJob::MedianMs(int reps, int threads) {
  threads = std::max(1, threads);
  while (tables_.size() < static_cast<size_t>(threads)) {
    std::vector<int64_t>& table = tables_.emplace_back(kTableEntries);
    uint64_t s = 12345 + tables_.size();
    for (int64_t& v : table) v = static_cast<int64_t>(Lcg(&s));
  }
  std::vector<std::vector<double>> ms(static_cast<size_t>(threads));
  std::vector<uint64_t> sums(static_cast<size_t>(threads), 0);
  auto run = [&](int t) {
    for (int i = 0; i < reps; ++i) {
      ms[static_cast<size_t>(t)].push_back(
          RunMs(static_cast<size_t>(t), &sums[static_cast<size_t>(t)]));
    }
  };
  {
    std::vector<std::thread> workers;
    for (int t = 1; t < threads; ++t) workers.emplace_back(run, t);
    run(0);
    for (std::thread& w : workers) w.join();
  }
  std::vector<double> all;
  for (size_t t = 0; t < ms.size(); ++t) {
    all.insert(all.end(), ms[t].begin(), ms[t].end());
    checksum_ += sums[t];
  }
  return Median(all);
}

std::unique_ptr<ReferenceProbe> ReferenceProbe::Start() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) return nullptr;
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return nullptr;
  }
  if (pid == 0) {
    // Helper: answers each request (a repetition count) with the median job
    // time, and exits when the parent's end closes; it is killed outright if
    // the parent dies first. It keeps no descriptor of the parent's output
    // open.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(0);
    ::close(fds[0]);
    const int null_fd = ::open("/dev/null", O_RDWR);
    if (null_fd >= 0) {
      ::dup2(null_fd, STDIN_FILENO);
      ::dup2(null_fd, STDOUT_FILENO);
      ::dup2(null_fd, STDERR_FILENO);
    }
    ReferenceJob job;
    int32_t request[2] = {0, 0};  // reps, threads
    while (ReadAll(fds[1], request, sizeof(request))) {
      const double ms = job.MedianMs(std::max(1, request[0]), request[1]);
      if (!WriteAll(fds[1], &ms, sizeof(ms))) break;
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  return std::unique_ptr<ReferenceProbe>(new ReferenceProbe(fds[0], pid));
}

ReferenceProbe::~ReferenceProbe() {
  ::close(fd_);
  while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
}

double ReferenceProbe::MedianMs(int reps, int threads) {
  const int32_t request[2] = {reps, threads};
  double ms = -1;
  if (!WriteAll(fd_, request, sizeof(request)) || !ReadAll(fd_, &ms, sizeof(ms))) return -1;
  return ms;
}

double AtReferenceSpeed(double raw_ms, double job_ms) {
  return raw_ms * kReferenceJobMs / job_ms;
}

}  // namespace frontbench
