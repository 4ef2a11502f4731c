#ifndef FRONTBENCH_HARNESS_SPANS_H_
#define FRONTBENCH_HARNESS_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace frontbench {

/// One timed call into an engine module, recorded by the benchmark around
/// the call (the engine itself is not instrumented). Times are steady_clock
/// nanoseconds since the recorder was created.
struct Span {
  std::string name;      // "<layer>.<call>", e.g. "analyze.parse"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;       // index of the enclosing span on the same thread
  int64_t query_id = 0;  // spans of one query share it
  int tid = 0;           // small per-recorder thread number
};

/// Keeps spans in memory; written out once when the run ends. Thread-safe:
/// each thread nests its own spans, and the vector is guarded by a mutex.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span on the calling thread; returns its index.
  int Begin(std::string name, int64_t query_id);
  /// Closes span `index`, which must be the innermost open span of the
  /// calling thread.
  void End(int index);

  std::vector<Span> Snapshot() const;

 private:
  int64_t NowNs() const;

  const int64_t origin_ns_;
  mutable std::mutex mu_;
  // All three guarded by mu_.
  std::vector<Span> spans_;
  std::map<std::thread::id, std::vector<int>> open_;  // per-thread open stack
  std::map<std::thread::id, int> tids_;
};

/// RAII span; a null recorder makes it a no-op (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, int64_t query_id)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(std::move(name), query_id) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* const recorder_;
  const int index_;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps),
/// loadable in chrome://tracing or Perfetto.
std::string ChromeTraceJson(const std::vector<Span>& spans);

}  // namespace frontbench

#endif  // FRONTBENCH_HARNESS_SPANS_H_
