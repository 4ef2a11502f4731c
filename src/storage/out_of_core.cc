#include "storage/out_of_core.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "analyze/range_analysis.h"
#include "core/detail_scan.h"
#include "expr/conjuncts.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/plan.h"
#include "parallel/thread_pool.h"
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

/// Folds a nested paged join's counters (the spill broadcast group) into the
/// spill driver's stats — scan counters plus the paged-only block counters.
void FoldPagedStats(const MdJoinStats& from, MdJoinStats* to) {
  AccumulateScanStats(from, to);
  to->passes_over_detail += from.passes_over_detail;
  to->index_masks += from.index_masks;
  if (from.memory_degraded) to->memory_degraded = true;
  to->blocks_read += from.blocks_read;
  to->blocks_pruned += from.blocks_pruned;
  to->blocks_faulted += from.blocks_faulted;
  to->block_cache_hits += from.block_cache_hits;
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

  std::vector<bool> keep = PlanBlockPruning(detail, theta);
  BlockCache* cache = options.block_cache;
  QueryGuard* guard = options.guard;

  SpillDetailSource source;
  source.schema = &detail.schema();
  source.for_each_chunk =
      [&](const std::function<Status(const Table&)>& fn) -> Status {
    for (int b = 0; b < detail.num_blocks(); ++b) {
      if (!keep[static_cast<size_t>(b)]) {
        ++stats->blocks_pruned;
        BlocksPrunedCounter()->Increment(1);
        continue;
      }
      bool hit = false;
      MDJ_ASSIGN_OR_RETURN(BlockPin pin, detail.Fault(b, cache, &hit));
      ++stats->blocks_read;
      BlocksReadCounter()->Increment(1);
      if (hit) {
        ++stats->block_cache_hits;
      } else {
        ++stats->blocks_faulted;
        BlocksFaultedCounter()->Increment(1);
      }
      // An uncached decode is this query's own transient memory; cached
      // residency is accounted by the cache's charge hooks instead.
      ScopedReservation resident;
      if (cache == nullptr) {
        MDJ_RETURN_NOT_OK(
            resident.Reserve(guard, detail.ApproxBlockBytes(b), "decoded block"));
      }
      MDJ_RETURN_NOT_OK(fn(pin.table()));
    }
    return Status::OK();
  };
  source.join_broadcast = [&](const Table& broadcast_base,
                              MdJoinStats* s) -> Result<Table> {
    MdJoinStats bs;
    MDJ_ASSIGN_OR_RETURN(
        Table res, PagedMdJoin(broadcast_base, detail, aggs, theta, no_spill, &bs));
    FoldPagedStats(bs, s);
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

Result<Table> PagedMdJoin(const Table& base, const PagedTable& detail,
                          const std::vector<AggSpec>& aggs, const ExprPtr& theta,
                          const MdJoinOptions& options, MdJoinStats* stats) {
  if (theta == nullptr) {
    return Status::InvalidArgument("PagedMdJoin: θ-condition must not be null");
  }
  MdJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = MdJoinStats{};
  stats->base_rows = base.num_rows();
  RegisterStorageMetrics();

  if (options.enable_spill) {
    return PagedSpillMdJoin(base, detail, aggs, theta, options, stats);
  }

  Span span("paged_mdjoin", "storage");
  QueryGuard* guard = options.guard;
  if (guard != nullptr) MDJ_RETURN_NOT_OK(guard->Check());

  // θ compiles against a zero-row stub carrying the detail schema: every
  // chunk the scan sees is a decoded block, foreign to the prepared table, so
  // the typed-mirror machinery (which hoists pointers into the prepared
  // table's storage) must stay off. The stub outlives every scan below.
  MdJoinOptions eff = options;
  eff.use_flat_columns = false;
  Table stub{detail.schema()};
  MDJ_ASSIGN_OR_RETURN(
      std::vector<ScanComponent> comps,
      BindComponents("PagedMdJoin", base, stub, {MdJoinComponent{aggs, theta}}, eff));
  const size_t num_aggs = TotalAggs(comps);

  // The pruning plan is pass-independent: compute keep[] once, walk only the
  // survivors every pass.
  std::vector<bool> keep = PlanBlockPruning(detail, theta);
  std::vector<int> kept;
  kept.reserve(keep.size());
  for (int b = 0; b < detail.num_blocks(); ++b) {
    if (keep[static_cast<size_t>(b)]) kept.push_back(b);
  }
  const int64_t pruned_per_pass =
      static_cast<int64_t>(detail.num_blocks()) - static_cast<int64_t>(kept.size());

  ScopedReservation state_bytes;
  MDJ_RETURN_NOT_OK(state_bytes.Reserve(
      guard, static_cast<int64_t>(num_aggs) * base.num_rows() * kGuardBytesPerAggState,
      "aggregate states"));

  // Theorem 4.1 staging and guard degradation, exactly as the in-memory
  // driver: more passes over the (pruned) block list instead of more memory.
  const int64_t budget = PlanPassBudget(base.num_rows(), comps, options, stats);

  // Short-circuit when no block can contribute: everything pruned (or the
  // file is empty), or θ constant-folds non-truthy. Outer semantics still
  // emit every base row with identity aggregates.
  const bool provably_empty = kept.empty() || comps[0].never_matches;

  int workers = 1;
  if (!provably_empty && options.num_threads > 1) {
    workers = static_cast<int>(std::max<int64_t>(
        1, std::min<int64_t>(options.num_threads,
                             static_cast<int64_t>(kept.size()))));
  }
  // Parallel workers need a guard for the error short-circuit even when the
  // caller supplied none.
  QueryGuard fallback_guard;
  if (workers > 1 && guard == nullptr) {
    guard = &fallback_guard;
    eff.guard = guard;
  }
  ScopedReservation partials_bytes;
  if (workers > 1) {
    MDJ_RETURN_NOT_OK(partials_bytes.Reserve(
        guard,
        static_cast<int64_t>(workers - 1) * static_cast<int64_t>(num_aggs) *
            base.num_rows() * kGuardBytesPerAggState,
        "parallel worker partials"));
  }

  struct Slot {
    std::unique_ptr<DetailScanWorker> worker;
    Status status;
    int64_t blocks_read = 0;
    int64_t blocks_faulted = 0;
    int64_t cache_hits = 0;
  };
  std::vector<Slot> slots(static_cast<size_t>(workers));
  BlockCache* cache = options.block_cache;

  // One worker's share of a pass: pull block indices from the shared cursor,
  // fault each survivor, scan the decoded chunk into thread-local partials.
  auto scan_blocks = [&](Slot* slot, const DetailScan& scan,
                         std::atomic<size_t>* cursor) -> Status {
    if (slot->worker == nullptr) {
      slot->worker = std::make_unique<DetailScanWorker>(base, comps, guard);
    }
    slot->worker->BeginJob();
    for (;;) {
      const size_t i = cursor->fetch_add(1, std::memory_order_relaxed);
      if (i >= kept.size()) break;
      const int b = kept[i];
      Span block_span("paged_block", "storage");
      block_span.SetArg("block", static_cast<int64_t>(b));
      bool hit = false;
      MDJ_ASSIGN_OR_RETURN(BlockPin pin, detail.Fault(b, cache, &hit));
      ++slot->blocks_read;
      if (hit) {
        ++slot->cache_hits;
      } else {
        ++slot->blocks_faulted;
      }
      // An uncached decode is this query's own transient memory for the
      // duration of the scan; cached residency is the cache's charge to make.
      ScopedReservation resident;
      if (cache == nullptr) {
        MDJ_RETURN_NOT_OK(
            resident.Reserve(guard, detail.ApproxBlockBytes(b), "decoded block"));
      }
      MDJ_RETURN_NOT_OK(scan.ScanChunk(pin.table(), 0, pin.table().num_rows(),
                                       slot->worker.get()));
    }
    return slot->worker->FinishScan();
  };

  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<ThreadPool>(workers);

  Status run = [&]() -> Status {
    if (provably_empty) {
      stats->blocks_pruned += detail.num_blocks();
      return Status::OK();
    }
    for (int64_t start = 0; start < base.num_rows(); start += budget) {
      Span pass_span("paged_mdjoin.pass", "storage");
      pass_span.SetArg("pass", stats->passes_over_detail);
      const int64_t end = std::min(start + budget, base.num_rows());
      std::vector<int64_t> pass_rows(static_cast<size_t>(end - start));
      std::iota(pass_rows.begin(), pass_rows.end(), start);
      ++stats->passes_over_detail;
      stats->blocks_pruned += pruned_per_pass;
      MDJ_ASSIGN_OR_RETURN(DetailScan scan,
                           DetailScan::Prepare(base, stub, comps, pass_rows, eff));
      stats->index_masks += scan.index_masks();
      pass_span.SetArg("base_rows", end - start);
      std::atomic<size_t> cursor{0};
      if (workers == 1) {
        MDJ_RETURN_NOT_OK(scan_blocks(&slots[0], scan, &cursor));
      } else {
        std::vector<std::function<void()>> tasks;
        tasks.reserve(slots.size());
        for (size_t w = 0; w < slots.size(); ++w) {
          tasks.push_back([&, w] {
            Slot& slot = slots[w];
            Tracing::SetThreadName("paged mdjoin worker");
            slot.status = scan_blocks(&slot, scan, &cursor);
            if (!slot.status.ok()) guard->Trip(slot.status);
          });
        }
        pool->SubmitBatch(std::move(tasks));
        pool->Wait();
        if (guard->tripped()) return guard->TripStatus();
        for (const Slot& slot : slots) {
          MDJ_RETURN_NOT_OK(slot.status);
        }
      }
    }
    return Status::OK();
  }();

  // Fold worker-local counters before the error exit, so cancelled queries
  // report how far they got.
  for (const Slot& slot : slots) {
    if (slot.worker != nullptr) AccumulateScanStats(slot.worker->stats, stats);
    stats->blocks_read += slot.blocks_read;
    stats->blocks_faulted += slot.blocks_faulted;
    stats->block_cache_hits += slot.cache_hits;
  }
  BlocksReadCounter()->Increment(stats->blocks_read);
  BlocksPrunedCounter()->Increment(stats->blocks_pruned);
  BlocksFaultedCounter()->Increment(stats->blocks_faulted);
  MDJ_RETURN_NOT_OK(run);

  // Merge thread-local partials into slot 0 (identity when sequential). The
  // short-circuit paths never made a worker: create one so finalization has
  // the pre-allocated identity states.
  if (slots[0].worker == nullptr) {
    slots[0].worker = std::make_unique<DetailScanWorker>(base, comps, guard);
  }
  for (size_t w = 1; w < slots.size(); ++w) {
    if (slots[w].worker == nullptr) continue;
    MDJ_RETURN_NOT_OK(
        MergeWorkerPartials(slots[0].worker.get(), *slots[w].worker, guard));
  }
  MDJ_ASSIGN_OR_RETURN(Table out, AssembleOutput(base, comps, *slots[0].worker, guard));
  span.SetArg("blocks_read", stats->blocks_read);
  span.SetArg("blocks_pruned", stats->blocks_pruned);
  return out;
}

}  // namespace mdjoin
