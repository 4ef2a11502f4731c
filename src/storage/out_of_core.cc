#include "storage/out_of_core.h"

#include <functional>
#include <optional>
#include <utility>

#include "analyze/range_analysis.h"
#include "expr/conjuncts.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/plan.h"
#include "storage/block_cache.h"
#include "storage/spill.h"

namespace mdjoin {

namespace {

Counter* BlocksReadCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "mdjoin_blocks_read_total",
      "storage blocks served to paged scans (faults + cache hits)");
  return c;
}

Counter* BlocksPrunedCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "mdjoin_blocks_pruned_total",
      "storage blocks refuted by zone maps and never decoded");
  return c;
}

Counter* BlocksFaultedCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "mdjoin_blocks_faulted_total",
      "storage block loads that ran the decoder (cache miss or no cache)");
  return c;
}

/// Touches every instrument of the storage family so a metrics dump of any
/// paged run carries the complete catalog, idle spill/cache counters included
/// (validate_obs.py --expect-storage requires each name). The registry dedups
/// by name, so instruments already registered by their owning module (block
/// cache, spill writer) are returned, not duplicated.
void RegisterStorageMetrics() {
  BlocksReadCounter();
  BlocksPrunedCounter();
  BlocksFaultedCounter();
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("mdjoin_block_cache_bytes",
                    "decoded bytes resident in the block cache (all caches summed)");
  registry.GetCounter("mdjoin_block_cache_hit_total",
                      "block-cache lookups served resident");
  registry.GetCounter("mdjoin_block_cache_miss_total",
                      "block-cache lookups that ran a loader");
  registry.GetCounter("mdjoin_block_cache_evictions_total",
                      "blocks evicted from the cache");
  registry.GetCounter("mdjoin_spill_bytes_total",
                      "bytes written to spill partition files");
  registry.GetCounter("mdjoin_spill_partitions_total",
                      "spill partition pairs written and joined");
}

/// The paged spill arm: B routes exactly as the in-memory spill driver, R
/// streams into the partition writers one decoded block at a time — with
/// zone-refuted blocks skipped outright, sound because a refuted block holds
/// no θ-matching row and partition joins re-check the full θ anyway.
Result<Table> PagedSpillMdJoin(const Table& base, const PagedTable& detail,
                               const std::vector<AggSpec>& aggs,
                               const ExprPtr& theta, const MdJoinOptions& options,
                               MdJoinStats* stats) {
  MdJoinOptions no_spill = options;
  no_spill.enable_spill = false;
  no_spill.spill_partitions = 0;

  ThetaParts parts = AnalyzeTheta(theta);
  if (parts.equi.empty() || base.num_rows() == 0) {
    // Nothing to partition on: the paged driver's multi-pass degradation is
    // the remaining memory escape.
    return PagedMdJoin(base, detail, aggs, theta, no_spill, stats);
  }

  // R streams block by block through the same pruning and faulting as the
  // driver's scans.
  const PagedSource blocks(detail, {MdJoinComponent{aggs, theta}}, options);
  SpillDetailSource source;
  source.schema = &detail.schema();
  source.for_each_chunk =
      [&](const std::function<Status(const Table&)>& fn) -> Status {
    const int64_t pruned = detail.num_blocks() - blocks.extent();
    stats->blocks_pruned += pruned;
    BlocksPrunedCounter()->Increment(pruned);
    return blocks.ForEachBlock(0, blocks.extent(), stats, fn);
  };
  source.join_broadcast = [&](const Table& broadcast_base,
                              MdJoinStats* s) -> Result<Table> {
    MdJoinStats bs;
    MDJ_ASSIGN_OR_RETURN(
        Table res, PagedMdJoin(broadcast_base, detail, aggs, theta, no_spill, &bs));
    s->Add(bs);
    return res;
  };
  return SpillMdJoinStream(base, source, aggs, theta, options, stats);
}

}  // namespace

Status RegisterPagedTable(Catalog* catalog, std::string name,
                          const PagedTable& table) {
  return catalog->RegisterPaged(std::move(name), &table, table.schema(),
                                table.num_rows());
}

std::vector<bool> PlanBlockPruning(const PagedTable& detail, const ExprPtr& theta) {
  const int nblocks = detail.num_blocks();
  std::vector<bool> keep(static_cast<size_t>(nblocks), true);
  RangeAnalysis ra = AnalyzeRanges(theta);
  if (!ra.satisfiable) {
    keep.assign(keep.size(), false);
    return keep;
  }
  // Resolve predicate columns once; a predicate naming no stored column (a
  // computed detail expression) cannot prune.
  std::vector<std::pair<int, const ZoneMapPredicate*>> preds;
  for (const ZoneMapPredicate& zp : ra.zone_predicates) {
    std::optional<int> c = detail.schema().FindField(zp.column);
    if (c.has_value()) preds.emplace_back(*c, &zp);
  }
  if (preds.empty()) return keep;
  for (int b = 0; b < nblocks; ++b) {
    const BlockMeta& meta = detail.block_meta(b);
    for (const auto& [col, zp] : preds) {
      if (!ZoneCouldMatch(*zp, meta.zones[static_cast<size_t>(col)])) {
        keep[static_cast<size_t>(b)] = false;
        break;
      }
    }
  }
  return keep;
}

PagedSource::PagedSource(const PagedTable& detail,
                         const std::vector<MdJoinComponent>& components,
                         const MdJoinOptions& options)
    : paged_(&detail),
      stub_(detail.schema()),
      cache_(options.block_cache),
      guard_(options.guard) {
  set_table(stub_);
  RegisterStorageMetrics();
  // A block survives when any component's θ may match in it; a θ that folds
  // to false refutes every block and so contributes nothing.
  std::vector<bool> keep(static_cast<size_t>(detail.num_blocks()), false);
  for (const MdJoinComponent& comp : components) {
    if (comp.theta == nullptr) continue;  // the driver rejects it at bind time
    std::vector<bool> comp_keep = PlanBlockPruning(detail, comp.theta);
    for (size_t b = 0; b < keep.size(); ++b) keep[b] = keep[b] || comp_keep[b];
  }
  for (int b = 0; b < detail.num_blocks(); ++b) {
    if (keep[static_cast<size_t>(b)]) kept_.push_back(b);
  }
}

Status PagedSource::ForEachBlock(int64_t lo, int64_t hi, MdJoinStats* counters,
                                 const std::function<Status(const Table&)>& fn) const {
  for (int64_t i = lo; i < hi; ++i) {
    const int b = kept_[static_cast<size_t>(i)];
    Span block_span("paged_block", "storage");
    block_span.SetArg("block", static_cast<int64_t>(b));
    bool hit = false;
    MDJ_ASSIGN_OR_RETURN(BlockPin pin, paged_->Fault(b, cache_, &hit));
    ++counters->blocks_read;
    BlocksReadCounter()->Increment(1);
    if (hit) {
      ++counters->block_cache_hits;
    } else {
      ++counters->blocks_faulted;
      BlocksFaultedCounter()->Increment(1);
    }
    // An uncached decode is this query's own transient memory for the
    // duration of the scan; cached residency is the cache's charge to make.
    ScopedReservation resident;
    if (cache_ == nullptr) {
      MDJ_RETURN_NOT_OK(
          resident.Reserve(guard_, paged_->ApproxBlockBytes(b), "decoded block"));
    }
    MDJ_RETURN_NOT_OK(fn(pin.table()));
  }
  return Status::OK();
}

Status PagedSource::Scan(const DetailScan& scan, int64_t lo, int64_t hi,
                         DetailScanWorker* worker) const {
  return ForEachBlock(lo, hi, &worker->stats, [&](const Table& block) {
    return scan.ScanChunk(block, 0, block.num_rows(), worker);
  });
}

void PagedSource::Finish(MdJoinStats* stats) const {
  // Every scan of R skips the refuted blocks; a run that never scanned (the
  // short-circuit) skipped the whole file.
  const int64_t blocks = paged_->num_blocks();
  const int64_t pruned = stats->passes_over_detail > 0
                             ? stats->passes_over_detail * (blocks - extent())
                             : blocks;
  stats->blocks_pruned += pruned;
  BlocksPrunedCounter()->Increment(pruned);
}

Result<Table> PagedMdJoin(const Table& base, const PagedTable& detail,
                          const std::vector<AggSpec>& aggs, const ExprPtr& theta,
                          const MdJoinOptions& options, MdJoinStats* stats) {
  if (theta == nullptr) {
    return Status::InvalidArgument("PagedMdJoin: θ-condition must not be null");
  }
  if (options.enable_spill) {
    MdJoinStats local_stats;
    if (stats == nullptr) stats = &local_stats;
    *stats = MdJoinStats{};
    stats->base_rows = base.num_rows();
    RegisterStorageMetrics();
    return PagedSpillMdJoin(base, detail, aggs, theta, options, stats);
  }
  Span span("paged_mdjoin", "storage");
  const std::vector<MdJoinComponent> components = {MdJoinComponent{aggs, theta}};
  return RunMdJoin("PagedMdJoin", base, PagedSource(detail, components, options),
                   components, options, stats);
}

}  // namespace mdjoin
