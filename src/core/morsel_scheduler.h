#ifndef MDJOIN_CORE_MORSEL_SCHEDULER_H_
#define MDJOIN_CORE_MORSEL_SCHEDULER_H_

#include <atomic>
#include <cstdint>

namespace mdjoin {

/// Work-distribution cursor for morsel-driven execution (HyPer-style): the
/// unit space is `num_jobs × morsels_per_job`, where a job is one prepared
/// DetailScan (a Theorem 4.1 base fragment, or the single job of a detail
/// split) and a morsel is a `morsel_size`-position range of the detail
/// source (rows in memory, surviving blocks of a paged file).
/// Workers pull the next unit with one atomic fetch_add — there are no
/// per-worker queues to steal from, so "stealing" degenerates to the cheapest
/// possible form: an idle worker simply claims the globally next unit, and
/// skew cannot strand work on a slow thread's queue.
///
/// Units are ordered job-major (all of job 0's morsels, then job 1's, ...):
/// consecutive units usually belong to the same job, which keeps a worker on
/// one index (and one warm probe memo) for long runs and bounds the number of
/// job switches per worker by the job count.
///
/// Thread-safe; all methods are lock-free.
class MorselScheduler {
 public:
  /// `rows_per_job` is the detail-relation size (every job scans the same
  /// relation); `morsel_size` < 1 is treated as 1.
  MorselScheduler(int64_t num_jobs, int64_t rows_per_job, int64_t morsel_size);

  struct Morsel {
    int64_t job = 0;  // index of the DetailScan to run
    int64_t lo = 0;   // detail-row range [lo, hi)
    int64_t hi = 0;
  };

  /// Claims the next unit. Returns false when the cursor has drained; a
  /// false return is counted as a steal-wait (an idle worker found no work).
  bool Next(Morsel* out) {
    const int64_t u = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (u >= total_) {
      drained_polls_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    out->job = u / morsels_per_job_;
    const int64_t k = u % morsels_per_job_;
    out->lo = k * morsel_size_;
    out->hi = out->lo + morsel_size_ < rows_per_job_ ? out->lo + morsel_size_
                                                     : rows_per_job_;
    return true;
  }

  int64_t total_morsels() const { return total_; }
  int64_t morsel_size() const { return morsel_size_; }

  /// Units actually handed out (== total_morsels() once drained).
  int64_t dispatched() const {
    const int64_t c = cursor_.load(std::memory_order_relaxed);
    return c < total_ ? c : total_;
  }

  /// Next() calls that found the cursor already drained: each worker's final
  /// poll plus any extra polls by workers that went idle while others still
  /// ran — the visible cost of self-scheduling, reported as `steal_waits`.
  int64_t steal_waits() const { return drained_polls_.load(std::memory_order_relaxed); }

 private:
  int64_t rows_per_job_;
  int64_t morsel_size_;
  int64_t morsels_per_job_;
  int64_t total_;
  std::atomic<int64_t> cursor_{0};
  std::atomic<int64_t> drained_polls_{0};
};

}  // namespace mdjoin

#endif  // MDJOIN_CORE_MORSEL_SCHEDULER_H_
