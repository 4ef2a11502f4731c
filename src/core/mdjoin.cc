#include "core/mdjoin.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <utility>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "core/detail_scan.h"
#include "core/generalized.h"
#include "core/morsel_scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mdjoin {

void MdJoinStats::Add(const MdJoinStats& other) {
  detail_rows_scanned += other.detail_rows_scanned;
  detail_rows_qualified += other.detail_rows_qualified;
  candidate_pairs += other.candidate_pairs;
  matched_pairs += other.matched_pairs;
  passes_over_detail += other.passes_over_detail;
  index_masks += other.index_masks;
  memory_degraded = memory_degraded || other.memory_degraded;
  blocks += other.blocks;
  kernel_invocations += other.kernel_invocations;
  kernel_fallback_rows += other.kernel_fallback_rows;
  dense_blocks += other.dense_blocks;
  fused_blocks += other.fused_blocks;
  index_probe_lookups += other.index_probe_lookups;
  index_probe_memo_hits += other.index_probe_memo_hits;
  blocks_read += other.blocks_read;
  blocks_pruned += other.blocks_pruned;
  blocks_faulted += other.blocks_faulted;
  block_cache_hits += other.block_cache_hits;
  spill_partitions += other.spill_partitions;
  spill_bytes_written += other.spill_bytes_written;
  num_threads = std::max(num_threads, other.num_threads);
  morsels += other.morsels;
  steal_waits += other.steal_waits;
}

std::string MdJoinStats::ToString() const {
  std::string out;
  out += "base_rows=" + std::to_string(base_rows);
  out += " detail_scanned=" + std::to_string(detail_rows_scanned);
  out += " detail_qualified=" + std::to_string(detail_rows_qualified);
  out += " candidate_pairs=" + std::to_string(candidate_pairs);
  out += " matched_pairs=" + std::to_string(matched_pairs);
  out += " passes=" + std::to_string(passes_over_detail);
  out += " index_masks=" + std::to_string(index_masks);
  if (blocks > 0) {
    out += " blocks=" + std::to_string(blocks);
    out += " kernel_invocations=" + std::to_string(kernel_invocations);
    out += " kernel_fallback_rows=" + std::to_string(kernel_fallback_rows);
    out += " dense_blocks=" + std::to_string(dense_blocks);
    out += " fused_blocks=" + std::to_string(fused_blocks);
  }
  if (index_probe_lookups > 0) {
    out += " probe_lookups=" + std::to_string(index_probe_lookups);
    out += " probe_memo_hits=" + std::to_string(index_probe_memo_hits);
  }
  if (memory_degraded) {
    out += " degraded_rows_per_pass=" + std::to_string(base_rows_per_pass_effective);
  }
  if (blocks_read > 0 || blocks_pruned > 0) {
    out += " blocks_read=" + std::to_string(blocks_read);
    out += " blocks_pruned=" + std::to_string(blocks_pruned);
    out += " blocks_faulted=" + std::to_string(blocks_faulted);
    out += " block_cache_hits=" + std::to_string(block_cache_hits);
  }
  if (spill_partitions > 0) {
    out += " spill_partitions=" + std::to_string(spill_partitions);
    out += " spill_bytes=" + std::to_string(spill_bytes_written);
  }
  if (num_threads > 1) {
    out += " threads=" + std::to_string(num_threads);
    out += " morsels=" + std::to_string(morsels);
    out += " steal_waits=" + std::to_string(steal_waits);
    out += " worker_rows=" + std::to_string(min_worker_detail_rows) + ".." +
           std::to_string(max_worker_detail_rows);
  }
  return out;
}

Result<Table> RunMdJoin(const char* op, const Table& base, const DetailSource& detail,
                        const std::vector<MdJoinComponent>& components,
                        const MdJoinOptions& options, MdJoinStats* stats,
                        int base_fragments) {
  MdJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = MdJoinStats{};
  const int64_t base_rows = base.num_rows();
  stats->base_rows = base_rows;

  MdJoinOptions eff = options;
  if (!detail.typed_mirror()) eff.use_flat_columns = false;
  // Observe a pre-issued cancel / expired deadline before doing any work.
  if (eff.guard != nullptr) MDJ_RETURN_NOT_OK(eff.guard->Check());

  MDJ_ASSIGN_OR_RETURN(std::vector<ScanComponent> comps,
                       BindComponents(op, base, detail.table(), components, eff));
  const int64_t num_aggs = static_cast<int64_t>(TotalAggs(comps));

  // Aggregate states live for the whole query (every pass updates them), so
  // their footprint is reserved up front and cannot be degraded away.
  ScopedReservation state_bytes;
  MDJ_RETURN_NOT_OK(state_bytes.Reserve(
      eff.guard, num_aggs * base_rows * kGuardBytesPerAggState, "aggregate states"));
  const int64_t budget = PlanPassBudget(base_rows, comps, eff, stats);

  // Empty-multiset short-circuit: when the detail relation is empty or every
  // θ constant-folds to a non-truthy literal, no (b, t) pair can qualify —
  // the outer semantics still emit every base row, with each aggregate
  // finalized over zero matches, so the pass loop is skipped without
  // touching R.
  const bool provably_empty =
      detail.extent() == 0 ||
      std::all_of(comps.begin(), comps.end(),
                  [](const ScanComponent& c) { return c.never_matches; });

  // More workers than schedulable units would only burn partial-state
  // memory. A lone worker has no one to share with, so it claims each job
  // whole instead of morsel by morsel.
  int64_t unit = detail.unit_size(eff);
  const int64_t units_per_job = (detail.extent() + unit - 1) / unit;
  const int64_t max_jobs =
      std::min<int64_t>(base_fragments, std::min(budget, base_rows));
  int workers = 1;
  if (!provably_empty) {
    workers = static_cast<int>(std::max<int64_t>(
        1, std::min<int64_t>(eff.num_threads, max_jobs * units_per_job)));
  }
  if (workers == 1) unit = std::max<int64_t>(1, detail.extent());

  // Workers share one guard so the first failure (or an external cancel)
  // stops the siblings at their next stride check; with no caller guard a
  // limit-free local one provides the short-circuit.
  QueryGuard fallback_guard;
  if (workers > 1 && eff.guard == nullptr) eff.guard = &fallback_guard;
  QueryGuard* guard = eff.guard;

  // Each extra worker holds a full set of partial states. Reserved after the
  // pass budget is planned, so staging does not depend on the thread count.
  ScopedReservation partials_bytes;
  if (workers > 1) {
    MDJ_RETURN_NOT_OK(partials_bytes.Reserve(
        guard, (workers - 1) * num_aggs * base_rows * kGuardBytesPerAggState,
        "parallel worker partials"));
  }

  std::vector<std::unique_ptr<DetailScanWorker>> slots(static_cast<size_t>(workers));
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<ThreadPool>(workers);

  // Runs task(0..n-1): inline without a pool, else one pool task each. The
  // first failure trips the shared guard and wins.
  auto fan_out = [&](int n, const std::function<Status(int)>& task) -> Status {
    if (pool == nullptr) {
      for (int i = 0; i < n; ++i) MDJ_RETURN_NOT_OK(task(i));
      return Status::OK();
    }
    std::vector<Status> status(static_cast<size_t>(n));
    std::vector<std::function<void()>> tasks;
    tasks.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      tasks.push_back([&, i] {
        Tracing::SetThreadName("mdjoin worker");
        Status st = task(i);
        if (!st.ok()) guard->Trip(st);
        status[static_cast<size_t>(i)] = std::move(st);
      });
    }
    pool->SubmitBatch(std::move(tasks));
    pool->Wait();
    if (guard->tripped()) return guard->TripStatus();
    for (const Status& st : status) MDJ_RETURN_NOT_OK(st);
    return Status::OK();
  };

  // One worker's share of a pass: claim (job, unit) ranges from the shared
  // cursor and fold them into the worker's thread-local partials. The worker
  // is allocated on its own thread, so its partial-state columns are
  // first-touched where they are used.
  auto scan = [&](int w, const std::vector<DetailScan>& jobs,
                  MorselScheduler* cursor) -> Status {
    Span worker_span("worker.scan", "parallel");
    worker_span.SetArg("worker", static_cast<int64_t>(w));
    if (MDJ_FAILPOINT("parallel:fragment_error")) {
      return Status::Internal("worker ", w, " failed (failpoint parallel:fragment_error)");
    }
    std::unique_ptr<DetailScanWorker>& worker = slots[static_cast<size_t>(w)];
    if (worker == nullptr) worker = std::make_unique<DetailScanWorker>(base, comps, guard);
    int64_t job = -1;
    int64_t morsels = 0;
    MorselScheduler::Morsel m;
    while (cursor->Next(&m)) {
      if (m.job != job) {
        // Job switch: the probe memo caches the previous job's index.
        worker->BeginJob();
        job = m.job;
      }
      Span morsel_span("morsel", "parallel");
      morsel_span.SetArg("job", m.job);
      morsel_span.SetArg("rows", m.hi - m.lo);
      ++morsels;
      MDJ_RETURN_NOT_OK(
          detail.Scan(jobs[static_cast<size_t>(m.job)], m.lo, m.hi, worker.get()));
    }
    // The pull loop ends on a drained poll — the cursor's steal_wait.
    TraceInstant("steal_wait", "parallel", "worker", static_cast<int64_t>(w));
    worker_span.SetArg("morsels", morsels);
    return worker->FinishScan();
  };

  int64_t morsels = 0;
  int64_t steal_waits = 0;
  Status run = [&]() -> Status {
    if (provably_empty) return Status::OK();
    for (int64_t start = 0; start < base_rows; start += budget) {
      const int64_t rows = std::min(budget, base_rows - start);
      Span pass_span("mdjoin.pass", "mdjoin");
      pass_span.SetArg("base_rows", rows);
      pass_span.SetArg("components", static_cast<int64_t>(comps.size()));
      // Theorem 4.1 base split: the pass's rows in up to base_fragments
      // contiguous, in-order fragments, each one scan job over all of R.
      const int64_t fragments = std::min<int64_t>(base_fragments, rows);
      std::vector<DetailScan> jobs;
      jobs.reserve(static_cast<size_t>(fragments));
      for (int64_t f = 0, lo = start; f < fragments; ++f) {
        const int64_t len = rows / fragments + (f < rows % fragments ? 1 : 0);
        std::vector<int64_t> job_rows(static_cast<size_t>(len));
        std::iota(job_rows.begin(), job_rows.end(), lo);
        lo += len;
        MDJ_ASSIGN_OR_RETURN(DetailScan job, DetailScan::Prepare(base, detail.table(),
                                                                 comps, job_rows, eff));
        stats->index_masks += job.index_masks();
        jobs.push_back(std::move(job));
      }
      stats->passes_over_detail += fragments;
      MorselScheduler cursor(fragments, detail.extent(), unit);
      Status st = fan_out(workers, [&](int w) { return scan(w, jobs, &cursor); });
      morsels += cursor.dispatched();
      steal_waits += cursor.steal_waits();
      MDJ_RETURN_NOT_OK(st);
    }
    return Status::OK();
  }();

  // Fold worker-local counters before the error exit, so cancelled queries
  // report how far they got.
  stats->num_threads = workers;
  stats->morsels = morsels;
  stats->steal_waits = steal_waits;
  bool first = true;
  for (const std::unique_ptr<DetailScanWorker>& worker : slots) {
    if (worker == nullptr) continue;
    stats->Add(worker->stats);
    const int64_t rows = worker->stats.detail_rows_scanned;
    stats->min_worker_detail_rows =
        first ? rows : std::min(stats->min_worker_detail_rows, rows);
    stats->max_worker_detail_rows =
        first ? rows : std::max(stats->max_worker_detail_rows, rows);
    first = false;
  }
  {
    static Counter* c_morsels = MetricsRegistry::Global().GetCounter(
        "mdjoin_morsels_dispatched_total", "morsels claimed from scan cursors");
    static Counter* c_steals = MetricsRegistry::Global().GetCounter(
        "mdjoin_steal_waits_total", "drained cursor polls (workers finding no work)");
    c_morsels->Increment(morsels);
    c_steals->Increment(steal_waits);
  }
  detail.Finish(stats);
  MDJ_RETURN_NOT_OK(run);

  // The short-circuit never made a worker: one with identity states is the
  // answer.
  if (slots[0] == nullptr) slots[0] = std::make_unique<DetailScanWorker>(base, comps, guard);
  // Pairwise tree merge: level `step` folds slot i + step into slot i, so each
  // level's merges touch disjoint slots and run concurrently; slot 0 holds
  // the total after ⌈log₂ workers⌉ levels.
  for (int step = 1; step < workers; step *= 2) {
    const int merges = (workers + step - 1) / (2 * step);
    MDJ_RETURN_NOT_OK(fan_out(merges, [&](int p) {
      const size_t into = static_cast<size_t>(2 * step * p);
      Span merge_span("merge_partials", "parallel");
      merge_span.SetArg("into", static_cast<int64_t>(into));
      merge_span.SetArg("from", static_cast<int64_t>(into) + step);
      return MergeWorkerPartials(slots[into].get(), *slots[into + step], guard);
    }));
  }
  return AssembleOutput(base, comps, *slots[0], guard);
}

Result<Table> MdJoin(const Table& base, const Table& detail,
                     const std::vector<AggSpec>& aggs, const ExprPtr& theta,
                     const MdJoinOptions& options, MdJoinStats* stats) {
  if (theta == nullptr) {
    return Status::InvalidArgument("MdJoin: θ-condition must not be null");
  }
  return GeneralizedMdJoin(base, detail, {MdJoinComponent{aggs, theta}}, options, stats);
}

Result<Table> GeneralizedMdJoin(const Table& base, const Table& detail,
                                const std::vector<MdJoinComponent>& components,
                                const MdJoinOptions& options, MdJoinStats* stats) {
  return RunMdJoin("GeneralizedMdJoin", base, DetailSource(detail), components, options,
                   stats);
}

}  // namespace mdjoin
