#ifndef MDJOIN_STORAGE_OUT_OF_CORE_H_
#define MDJOIN_STORAGE_OUT_OF_CORE_H_

#include <functional>
#include <vector>

#include "agg/agg_spec.h"
#include "common/result.h"
#include "core/detail_scan.h"
#include "core/mdjoin.h"
#include "storage/paged_table.h"

namespace mdjoin {

/// The out-of-core MD-join: MdJoin() semantics with the detail relation living
/// in a block file (storage/block_format) instead of RAM. Bit-identical to the
/// in-memory evaluator — same row order, same float accumulation order — in
/// every combination of sequential/parallel × spill on/off; the tests in
/// out_of_core_test.cc check each against the Definition-3.1 reference.
///
/// Without spill it is the one MD-join driver (RunMdJoin,
/// core/detail_scan.h) over a PagedSource: per pass the workers claim the
/// blocks that survive zone-map pruning, fault each through
/// options.block_cache, and scan it with DetailScan::ScanChunk — so
/// Theorem 4.1 passes, guard degradation and options.num_threads work exactly
/// as in memory.
///
/// options.enable_spill engages the partitioned-spill escape hatch
/// (storage/spill.h) when θ carries an equi conjunct: B and the *streamed*
/// blocks of R hash-partition to spill files (zone-pruned blocks skipped —
/// they contain no matching rows), then per-partition in-memory joins merge
/// back in base order. Peak residency is one decoded block plus one partition
/// pair, never the whole detail relation.
Result<Table> PagedMdJoin(const Table& base, const PagedTable& detail,
                          const std::vector<AggSpec>& aggs, const ExprPtr& theta,
                          const MdJoinOptions& options = {},
                          MdJoinStats* stats = nullptr);

/// A paged file as a detail source of the MD-join driver. Its units are the
/// blocks that may hold a θ-matching row for some component — the union of
/// the components' PlanBlockPruning plans; a refuted block is never faulted,
/// let alone decoded (stats->blocks_pruned, per scan of R). Each surviving
/// block faults through options.block_cache when one is given (shared
/// residency, LRU within its byte budget, singleflight dedup of concurrent
/// faults) or decodes into an ephemeral pin charged to the query's guard
/// otherwise, then runs through ScanChunk against a zero-row stub carrying
/// the file's schema. `detail` must outlive the source.
class PagedSource final : public DetailSource {
 public:
  PagedSource(const PagedTable& detail, const std::vector<MdJoinComponent>& components,
              const MdJoinOptions& options);

  int64_t extent() const override { return static_cast<int64_t>(kept_.size()); }
  int64_t unit_size(const MdJoinOptions& /*options*/) const override { return 1; }
  bool typed_mirror() const override { return false; }
  Status Scan(const DetailScan& scan, int64_t lo, int64_t hi,
              DetailScanWorker* worker) const override;
  void Finish(MdJoinStats* stats) const override;

  /// Faults surviving blocks [lo, hi) in file order and hands each decoded
  /// block to `fn`, counting reads, faults and cache hits into `counters`.
  /// The spill driver streams R into its partition files through this.
  Status ForEachBlock(int64_t lo, int64_t hi, MdJoinStats* counters,
                      const std::function<Status(const Table&)>& fn) const;

 private:
  const PagedTable* paged_;
  Table stub_;
  std::vector<int> kept_;
  BlockCache* cache_;
  QueryGuard* guard_;
};

/// The pruning plan: keep[b] == false iff block b's zone maps refute θ
/// (always all-true when θ has no detail-side range facts; all-false when the
/// range analysis proves θ unsatisfiable). Exposed for the executor's EXPLAIN
/// path and the zone-map tests.
std::vector<bool> PlanBlockPruning(const PagedTable& detail, const ExprPtr& theta);

class Catalog;  // optimizer/plan.h

/// Registers `table` under `name` in the catalog, filling the catalog's
/// storage-opaque schema/row-count fields from the table itself (the plan
/// layer cannot dereference a PagedTable — see Catalog::RegisterPaged).
/// `table` must outlive the catalog binding.
Status RegisterPagedTable(Catalog* catalog, std::string name,
                          const PagedTable& table);

}  // namespace mdjoin

#endif  // MDJOIN_STORAGE_OUT_OF_CORE_H_
