#ifndef FRONTBENCH_HARNESS_CALIBRATE_H_
#define FRONTBENCH_HARNESS_CALIBRATE_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <vector>

namespace frontbench {

/// A fixed job of the benchmark's own code, shaped like the engine's work
/// (short-string allocation, hash aggregation, a scan and random reads over a
/// working set as large as the engine's tables, a large copy, a sort). It is
/// timed between query slices to measure how fast the host runs right now:
/// the engine never runs it, so no engine change moves its time, while a
/// host that slows down (a busier shared cache, a slower clock) slows it
/// together with the queries.
class ReferenceJob {
 public:
  ReferenceJob();

  /// Runs the job once over working set `set` and returns its wall time in
  /// ms. `*checksum` grows by a value that depends on all of the run's work,
  /// so none of it is elided. Calls on distinct sets may run at once.
  double RunMs(size_t set, uint64_t* checksum) const;

  /// `threads` threads each run the job `reps` times at once, each over a
  /// working set of its own; returns the median of all the runs, in ms. A
  /// workload with several sessions, each with tables of its own, is
  /// matched at its own concurrency, where the host's shared cache and
  /// memory bandwidth are contended the way its queries contend for them.
  double MedianMs(int reps, int threads);

 private:
  std::vector<std::vector<int64_t>> tables_;  // scanned and read at random
  std::vector<char> source_;                  // copied into a fresh buffer each run
  uint64_t checksum_ = 0;
};

/// Runs a ReferenceJob in a helper process, so that the job's memory and
/// allocator state stay apart from the engine's (peak RSS is the engine's
/// alone) while it shares the host with it. The helper is forked by Start(),
/// which must be called before the process starts any thread; it exits when
/// its socket closes, and the destructor waits for it.
class ReferenceProbe {
 public:
  /// Null when the helper cannot be started.
  static std::unique_ptr<ReferenceProbe> Start();
  ~ReferenceProbe();
  ReferenceProbe(const ReferenceProbe&) = delete;
  ReferenceProbe& operator=(const ReferenceProbe&) = delete;

  /// ReferenceJob::MedianMs(reps, threads) run in the helper, in ms;
  /// negative when the helper does not answer.
  double MedianMs(int reps, int threads);

 private:
  ReferenceProbe(int fd, pid_t pid) : fd_(fd), pid_(pid) {}
  int fd_;
  pid_t pid_;
};

/// The job's time on the reference host state. A time `raw_ms` measured next
/// to a job time `job_ms` reads raw_ms × kReferenceJobMs / job_ms at the
/// reference speed.
constexpr double kReferenceJobMs = 25.0;

double AtReferenceSpeed(double raw_ms, double job_ms);

}  // namespace frontbench

#endif  // FRONTBENCH_HARNESS_CALIBRATE_H_
