#include "parallel/parallel_mdjoin.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "core/detail_scan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/morsel_scheduler.h"
#include "parallel/thread_pool.h"

namespace mdjoin {

namespace {

/// Per-thread slot: the worker (partial accumulators + scan buffers) is
/// allocated inside the task so its memory is first-touched on the thread
/// that will pound on it — on NUMA machines that places each thread's
/// partial-state columns in its local domain.
struct WorkerSlot {
  std::unique_ptr<DetailScanWorker> worker;
  Status status;
};

/// The shared morsel-driven engine behind both public entry points. It runs
/// the one detail-scan kernel over a component list; the public entry points
/// pass one component.
///
/// Phases:
///   1. Compile θ once; prepare one DetailScan job per Theorem 4.1 base
///      fragment (base split) or a single job over all of B (detail split).
///   2. Scan: `workers` threads pull (job, detail-range) morsels from one
///      atomic cursor, folding matches into thread-local partials. Fragment
///      skew melts away because an idle thread simply claims the next morsel
///      of whatever job is still unfinished.
///   3. Merge: per-worker partials combine pairwise in a log₂(workers)-level
///      tree, each level's disjoint merges running in parallel.
///   4. Finalize: output aggregate columns are themselves morselized over B
///      and materialized column-wise.
///
/// Errors anywhere trip the shared guard, so siblings stop at their next
/// stride check and the first failure wins.
Result<Table> RunMorselMdJoin(const char* op, bool base_split, const Table& base,
                              const Table& detail,
                              const std::vector<MdJoinComponent>& components,
                              int num_partitions, int num_threads,
                              const MdJoinOptions& options, ParallelMdJoinStats* stats) {
  if (num_partitions < 1 || num_threads < 1) {
    return Status::InvalidArgument(op, ": partitions and threads must be >= 1");
  }
  stats->num_partitions = num_partitions;
  stats->num_threads = num_threads;

  // Every worker shares one guard so the first failure (or an external
  // cancel/deadline) short-circuits the siblings at their next stride check.
  // With no caller guard a limit-free local one provides the short-circuit.
  QueryGuard fallback_guard;
  MdJoinOptions eff = options;
  if (eff.guard == nullptr) eff.guard = &fallback_guard;
  QueryGuard* guard = eff.guard;
  MDJ_RETURN_NOT_OK(guard->Check());

  MDJ_ASSIGN_OR_RETURN(std::vector<ScanComponent> comps,
                       BindComponents(op, base, detail, components, eff));
  const size_t num_aggs = TotalAggs(comps);

  // Job list. Base split: one job per non-empty fragment (subdivided further
  // when base_rows_per_pass caps the rows a single scan may serve, matching
  // the sequential evaluator's multi-pass behavior); every job scans all of
  // R, so total scan work stays num_partitions × |R| exactly as Theorem 4.1
  // prices it. Detail split: a single job over all of B — one logical scan
  // of R, partitioned dynamically by the cursor instead of statically.
  std::vector<DetailScan> jobs;
  if (base_split) {
    const int64_t rows = base.num_rows();
    const int64_t frag_len = rows / num_partitions;
    const int64_t extra = rows % num_partitions;
    int64_t start = 0;
    for (int f = 0; f < num_partitions; ++f) {
      const int64_t len = frag_len + (f < extra ? 1 : 0);
      const int64_t budget = eff.base_rows_per_pass > 0 ? eff.base_rows_per_pass : len;
      for (int64_t lo = start; lo < start + len; lo += budget) {
        const int64_t hi = std::min<int64_t>(lo + budget, start + len);
        std::vector<int64_t> pass_rows(static_cast<size_t>(hi - lo));
        std::iota(pass_rows.begin(), pass_rows.end(), lo);
        MDJ_ASSIGN_OR_RETURN(DetailScan job,
                             DetailScan::Prepare(base, detail, comps, pass_rows, eff));
        jobs.push_back(std::move(job));
      }
      start += len;
    }
  } else {
    std::vector<int64_t> all_rows(static_cast<size_t>(base.num_rows()));
    std::iota(all_rows.begin(), all_rows.end(), 0);
    MDJ_ASSIGN_OR_RETURN(DetailScan job,
                         DetailScan::Prepare(base, detail, comps, all_rows, eff));
    jobs.push_back(std::move(job));
  }

  const int64_t morsel =
      eff.morsel_size > 0
          ? eff.morsel_size
          : (eff.block_size > 0 ? static_cast<int64_t>(eff.block_size) : 1024);
  MorselScheduler scheduler(static_cast<int64_t>(jobs.size()), detail.num_rows(),
                            morsel);

  // More workers than schedulable morsels would only burn partial-state
  // memory; the detail split additionally honors num_partitions as a cap so
  // its historical "num_partitions partial arrays" memory contract holds.
  int64_t max_workers = std::min<int64_t>(num_threads, scheduler.total_morsels());
  if (!base_split) max_workers = std::min<int64_t>(max_workers, num_partitions);
  const int workers = static_cast<int>(std::max<int64_t>(1, max_workers));

  // Partial-state memory is workers × |B| × aggs: the price of thread-local
  // accumulation. Reserved up front so a budgeted guard rejects the plan
  // before any allocation instead of mid-scan.
  ScopedReservation partials_bytes;
  MDJ_RETURN_NOT_OK(partials_bytes.Reserve(
      guard,
      static_cast<int64_t>(workers) * static_cast<int64_t>(num_aggs) *
          base.num_rows() * kGuardBytesPerAggState,
      "parallel worker partials"));

  std::vector<WorkerSlot> slots(static_cast<size_t>(workers));
  ThreadPool pool(workers);
  {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(slots.size());
    for (size_t w = 0; w < slots.size(); ++w) {
      tasks.push_back([&, w] {
        WorkerSlot& slot = slots[w];
        Tracing::SetThreadName("mdjoin worker");
        Span worker_span("worker.scan", "parallel");
        worker_span.SetArg("worker", static_cast<int64_t>(w));
        if (MDJ_FAILPOINT("parallel:fragment_error")) {
          slot.status = Status::Internal(
              "worker ", w, " failed (failpoint parallel:fragment_error)");
          guard->Trip(slot.status);
          return;
        }
        slot.worker = std::make_unique<DetailScanWorker>(base, comps, guard);
        Status st;
        int64_t last_job = -1;
        int64_t morsels = 0;
        MorselScheduler::Morsel m;
        while (st.ok() && scheduler.Next(&m)) {
          if (m.job != last_job) {
            // Job switch: the probe memo caches the previous job's index.
            slot.worker->BeginJob();
            last_job = m.job;
          }
          Span morsel_span("morsel", "parallel");
          morsel_span.SetArg("job", m.job);
          morsel_span.SetArg("rows", m.hi - m.lo);
          ++morsels;
          st = jobs[static_cast<size_t>(m.job)].ScanRange(m.lo, m.hi,
                                                          slot.worker.get());
        }
        if (st.ok()) {
          // The pull loop ends on a drained poll — the cursor's steal_wait.
          TraceInstant("steal_wait", "parallel", "worker", static_cast<int64_t>(w));
        }
        if (st.ok()) st = slot.worker->FinishScan();
        worker_span.SetArg("morsels", morsels);
        slot.status = st;
        if (!st.ok()) guard->Trip(st);
      });
    }
    pool.SubmitBatch(std::move(tasks));
    pool.Wait();
  }

  // Roll up worker-local counters; the per-worker extremes replace the old
  // per-fragment ones (a wide spread now means early guard short-circuiting
  // rather than partition skew, which the cursor absorbs by construction).
  stats->morsels_executed = scheduler.dispatched();
  stats->steal_waits = scheduler.steal_waits();
  {
    static Counter* c_morsels = MetricsRegistry::Global().GetCounter(
        "mdjoin_morsels_dispatched_total", "morsels claimed from scan cursors");
    static Counter* c_steals = MetricsRegistry::Global().GetCounter(
        "mdjoin_steal_waits_total", "drained cursor polls (workers finding no work)");
    c_morsels->Increment(stats->morsels_executed);
    c_steals->Increment(stats->steal_waits);
  }
  bool first = true;
  for (const WorkerSlot& slot : slots) {
    if (slot.worker == nullptr) continue;
    const MdJoinStats& s = slot.worker->stats;
    stats->total_detail_rows_scanned += s.detail_rows_scanned;
    stats->detail_rows_qualified += s.detail_rows_qualified;
    stats->candidate_pairs += s.candidate_pairs;
    stats->matched_pairs += s.matched_pairs;
    stats->blocks += s.blocks;
    stats->kernel_invocations += s.kernel_invocations;
    stats->index_probe_lookups += s.index_probe_lookups;
    stats->index_probe_memo_hits += s.index_probe_memo_hits;
    if (first || s.detail_rows_scanned < stats->min_worker_detail_rows) {
      stats->min_worker_detail_rows = s.detail_rows_scanned;
    }
    if (first || s.detail_rows_scanned > stats->max_worker_detail_rows) {
      stats->max_worker_detail_rows = s.detail_rows_scanned;
    }
    first = false;
  }

  // First error wins: the guard latched whichever worker tripped first.
  if (guard->tripped()) return guard->TripStatus();
  for (const WorkerSlot& slot : slots) {
    MDJ_RETURN_NOT_OK(slot.status);
  }

  // Pairwise tree merge: level k combines slots i and i + 2^k, so each
  // level's merges touch disjoint slots and run concurrently; slots[0] ends
  // up holding the grand total after ⌈log₂ workers⌉ levels.
  for (int step = 1; step < workers; step *= 2) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i + step < workers; i += 2 * step) {
      tasks.push_back([&, i, step] {
        Span merge_span("merge_partials", "parallel");
        merge_span.SetArg("into", static_cast<int64_t>(i));
        merge_span.SetArg("from", static_cast<int64_t>(i + step));
        Status st = MergeWorkerPartials(slots[static_cast<size_t>(i)].worker.get(),
                                        *slots[static_cast<size_t>(i + step)].worker,
                                        guard);
        if (!st.ok()) {
          slots[static_cast<size_t>(i)].status = st;
          guard->Trip(st);
        }
      });
    }
    pool.SubmitBatch(std::move(tasks));
    pool.Wait();
    if (guard->tripped()) return guard->TripStatus();
  }

  const DetailScanWorker& merged = *slots[0].worker;
  const int64_t out_rows = base.num_rows();
  ScopedReservation output_bytes;
  MDJ_RETURN_NOT_OK(output_bytes.Reserve(
      guard,
      out_rows *
          static_cast<int64_t>(base.num_columns() + static_cast<int>(num_aggs)) *
          kGuardBytesPerOutputCell,
      "parallel output"));

  // Finalize, morselized over B: workers pull base-row ranges from a fresh
  // cursor and fill the aggregate output columns in place (disjoint ranges,
  // read-only state — no synchronization beyond the cursor).
  std::vector<std::vector<Value>> agg_vals(
      num_aggs, std::vector<Value>(static_cast<size_t>(out_rows)));
  MorselScheduler finalize_scheduler(1, out_rows, morsel);
  std::vector<Status> finalize_status(static_cast<size_t>(workers));
  {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      tasks.push_back([&, w] {
        Span finalize_span("worker.finalize", "parallel");
        finalize_span.SetArg("worker", static_cast<int64_t>(w));
        GuardTicket ticket(guard, /*count_rows=*/false);
        Status st;
        MorselScheduler::Morsel m;
        while (st.ok() && finalize_scheduler.Next(&m)) {
          for (int64_t r = m.lo; r < m.hi; ++r) {
            st = ticket.Tick();
            if (!st.ok()) break;
            for (size_t i = 0; i < num_aggs; ++i) {
              agg_vals[i][static_cast<size_t>(r)] = merged.cols[i].Finalize(r);
            }
          }
        }
        finalize_status[static_cast<size_t>(w)] = st;
        if (!st.ok()) guard->Trip(st);
      });
    }
    pool.SubmitBatch(std::move(tasks));
    pool.Wait();
  }
  if (guard->tripped()) return guard->TripStatus();
  for (const Status& st : finalize_status) {
    MDJ_RETURN_NOT_OK(st);
  }

  // Column-wise assembly: base columns copied wholesale, aggregate columns
  // moved in. Row order is base order — for the base split that equals the
  // legacy fragment concatenation because fragments were contiguous and
  // in-order.
  Table out;
  const std::vector<Field>& base_fields = base.schema().fields();
  for (int c = 0; c < base.num_columns(); ++c) {
    std::vector<Value> col = base.column(c);
    MDJ_RETURN_NOT_OK(out.AddColumn(base_fields[static_cast<size_t>(c)],
                                    std::move(col)));
  }
  size_t i = 0;
  for (const ScanComponent& c : comps) {
    for (const BoundAgg& agg : c.aggs) {
      MDJ_RETURN_NOT_OK(out.AddColumn(agg.output_field, std::move(agg_vals[i++])));
    }
  }
  return out;
}

}  // namespace

Result<Table> ParallelMdJoin(const Table& base, const Table& detail,
                             const std::vector<AggSpec>& aggs, const ExprPtr& theta,
                             int num_partitions, int num_threads,
                             const MdJoinOptions& options, ParallelMdJoinStats* stats) {
  ParallelMdJoinStats local;
  if (stats == nullptr) stats = &local;
  *stats = ParallelMdJoinStats{};
  return RunMorselMdJoin("ParallelMdJoin", /*base_split=*/true, base, detail,
                         {MdJoinComponent{aggs, theta}}, num_partitions, num_threads,
                         options, stats);
}

Result<Table> ParallelMdJoinDetailSplit(const Table& base, const Table& detail,
                                        const std::vector<AggSpec>& aggs,
                                        const ExprPtr& theta, int num_partitions,
                                        int num_threads, const MdJoinOptions& options,
                                        ParallelMdJoinStats* stats) {
  ParallelMdJoinStats local;
  if (stats == nullptr) stats = &local;
  *stats = ParallelMdJoinStats{};
  return RunMorselMdJoin("ParallelMdJoinDetailSplit", /*base_split=*/false, base,
                         detail, {MdJoinComponent{aggs, theta}}, num_partitions,
                         num_threads, options, stats);
}

}  // namespace mdjoin
