#include "harness/spans.h"

#include "harness/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace frontbench {

namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder::SpanRecorder() : origin_ns_(SteadyNs()) {}

int64_t SpanRecorder::NowNs() const { return SteadyNs() - origin_ns_; }

int SpanRecorder::Begin(std::string name, int64_t query_id) {
  const int64_t now = NowNs();
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int>& stack = open_[self];
  auto tid = tids_.emplace(self, static_cast<int>(tids_.size())).first->second;
  Span span;
  span.name = std::move(name);
  span.start_ns = now;
  span.end_ns = now;
  span.parent = stack.empty() ? -1 : stack.back();
  span.query_id = query_id;
  span.tid = tid;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
  std::vector<int>& stack = open_[std::this_thread::get_id()];
  if (!stack.empty() && stack.back() == index) stack.pop_back();
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = -1;
    bool open = false;
    for (const auto& [a0, b0] : kids) {
      const int64_t a = std::max(a0, lo);
      const int64_t b = std::min(b0, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    if (i > 0) out += ",";
    out += "{\"name\":" + JsonString(s.name) + ",\"cat\":" + JsonString(layer);
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"query_id\":%lld,"
                  "\"self_us\":%.3f}}",
                  s.tid, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                  static_cast<long long>(s.query_id),
                  static_cast<double>(self[i]) / 1e3);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace frontbench
