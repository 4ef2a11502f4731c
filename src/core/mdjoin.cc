#include "core/mdjoin.h"

#include <algorithm>
#include <numeric>

#include "core/detail_scan.h"
#include "core/generalized.h"
#include "obs/trace.h"

namespace mdjoin {

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
  return out;
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
  MdJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = MdJoinStats{};
  stats->base_rows = base.num_rows();

  QueryGuard* guard = options.guard;
  // Observe a pre-issued cancel / expired deadline before doing any work.
  if (guard != nullptr) MDJ_RETURN_NOT_OK(guard->Check());

  MDJ_ASSIGN_OR_RETURN(
      std::vector<ScanComponent> comps,
      BindComponents("GeneralizedMdJoin", base, detail, components, options));

  // Aggregate states live for the whole query (every pass updates them), so
  // their footprint is reserved up front and cannot be degraded away.
  ScopedReservation state_bytes;
  MDJ_RETURN_NOT_OK(state_bytes.Reserve(
      guard,
      static_cast<int64_t>(TotalAggs(comps)) * base.num_rows() * kGuardBytesPerAggState,
      "aggregate states"));

  // One worker whose partials are the final states: the sequential evaluator
  // is the single-threaded instance of the same scan machinery the morsel
  // engine schedules (core/detail_scan.h).
  DetailScanWorker worker(base, comps, guard);
  const int64_t budget = PlanPassBudget(base.num_rows(), comps, options, stats);

  // Empty-multiset short-circuit: when the detail relation is empty or every
  // θ constant-folds to a non-truthy literal, no (b, t) pair can qualify —
  // the outer semantics still emit every base row, with each aggregate
  // finalized over zero matches (the worker pre-allocated all states above),
  // so the pass loop can be skipped without touching R.
  const bool provably_empty =
      detail.num_rows() == 0 ||
      std::all_of(comps.begin(), comps.end(),
                  [](const ScanComponent& c) { return c.never_matches; });

  // Scan counters accumulate in the worker and fold into *stats at the single
  // exit below — including when a guard trip or reservation failure ends a
  // later pass early, so cancelled queries report how far they got.
  Status run = [&]() -> Status {
    if (provably_empty) return Status::OK();
    for (int64_t start = 0; start < base.num_rows(); start += budget) {
      Span pass_span("mdjoin.pass", "mdjoin");
      pass_span.SetArg("pass", stats->passes_over_detail);
      pass_span.SetArg("components", static_cast<int64_t>(comps.size()));
      const int64_t end = std::min(start + budget, base.num_rows());
      std::vector<int64_t> pass_rows(static_cast<size_t>(end - start));
      std::iota(pass_rows.begin(), pass_rows.end(), start);
      ++stats->passes_over_detail;
      MDJ_ASSIGN_OR_RETURN(DetailScan scan,
                           DetailScan::Prepare(base, detail, comps, pass_rows, options));
      stats->index_masks += scan.index_masks();
      pass_span.SetArg("base_rows", end - start);
      worker.BeginJob();
      MDJ_RETURN_NOT_OK(scan.ScanRange(0, detail.num_rows(), &worker));
      MDJ_RETURN_NOT_OK(worker.FinishScan());
    }
    return Status::OK();
  }();
  AccumulateScanStats(worker.stats, stats);
  MDJ_RETURN_NOT_OK(run);
  return AssembleOutput(base, comps, worker, guard);
}

}  // namespace mdjoin
