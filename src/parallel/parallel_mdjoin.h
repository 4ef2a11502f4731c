#ifndef MDJOIN_PARALLEL_PARALLEL_MDJOIN_H_
#define MDJOIN_PARALLEL_PARALLEL_MDJOIN_H_

#include <vector>

#include "core/mdjoin.h"

namespace mdjoin {

struct ParallelMdJoinStats {
  int num_partitions = 0;
  int num_threads = 0;
  // Work counters summed over per-worker MdJoinStats.
  int64_t total_detail_rows_scanned = 0;
  int64_t detail_rows_qualified = 0;
  int64_t candidate_pairs = 0;
  int64_t matched_pairs = 0;
  // Block-scan counters, summed over workers.
  int64_t blocks = 0;
  int64_t kernel_invocations = 0;
  // Cube-index probe-memo counters summed over workers (see MdJoinStats).
  int64_t index_probe_lookups = 0;
  int64_t index_probe_memo_hits = 0;
  // Morsel-scheduler counters. `morsels_executed` is the number of work units
  // actually dispatched (== the schedulable total unless a trip drained the
  // cursor early); `steal_waits` counts cursor polls that found no work —
  // the per-worker drain probes that end each thread's pull loop.
  int64_t morsels_executed = 0;
  int64_t steal_waits = 0;
  // Per-worker scan extremes: with static scheduling a wide min/max spread
  // means partition skew; under morsel scheduling the spread stays narrow
  // because idle workers keep pulling from the shared cursor. Early guard
  // short-circuiting also shows up here.
  int64_t min_worker_detail_rows = 0;
  int64_t max_worker_detail_rows = 0;
};

/// Intra-operator parallel MD-join (§4.1.2): Theorem 4.1 splits the base
/// relation into `num_partitions` fragments, each evaluated as an independent
/// MD-join against the full detail relation; the union of fragment results
/// (a concatenation, since partitioning preserves base order per fragment) is
/// the answer. Total detail-scan work is num_partitions × |R| — the theorem
/// trades scan volume for parallelism, and Observation 4.1 (bench E11) shows
/// how to win the scans back when θ permits.
///
/// Execution is morsel-driven: `num_threads` workers pull
/// (fragment, detail-range) units of `options.morsel_size` rows from a shared
/// atomic cursor, folding matches into thread-local partials that are merged
/// pairwise and finalized in parallel once the cursor drains. Fragment skew
/// therefore no longer binds the critical path to the slowest fragment; set
/// `morsel_size = detail.num_rows()` to recover the legacy static
/// one-fragment-per-task schedule (the bench E10 ablation baseline).
Result<Table> ParallelMdJoin(const Table& base, const Table& detail,
                             const std::vector<AggSpec>& aggs, const ExprPtr& theta,
                             int num_partitions, int num_threads,
                             const MdJoinOptions& options = {},
                             ParallelMdJoinStats* stats = nullptr);

/// Detail-partitioned variant (the dual split, not in the paper's theorems
/// but enabled by the aggregate framework's Merge support): R is morselized
/// directly — one logical scan of R total, partitioned dynamically across
/// workers by the shared cursor rather than into `num_partitions` static
/// ranges (the knob now only caps the worker count alongside `num_threads`,
/// keeping the signature stable). Per-worker partials merge pairwise in
/// parallel; requires nothing beyond the UDAF Merge callback. Included as an
/// ablation point against the Theorem 4.1 split.
Result<Table> ParallelMdJoinDetailSplit(const Table& base, const Table& detail,
                                        const std::vector<AggSpec>& aggs,
                                        const ExprPtr& theta, int num_partitions,
                                        int num_threads,
                                        const MdJoinOptions& options = {},
                                        ParallelMdJoinStats* stats = nullptr);

}  // namespace mdjoin

#endif  // MDJOIN_PARALLEL_PARALLEL_MDJOIN_H_
