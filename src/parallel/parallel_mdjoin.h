#ifndef MDJOIN_PARALLEL_PARALLEL_MDJOIN_H_
#define MDJOIN_PARALLEL_PARALLEL_MDJOIN_H_

#include <vector>

#include "core/mdjoin.h"

namespace mdjoin {

/// Intra-operator parallel MD-join (§4.1.2), the Theorem 4.1 base split:
/// each pass's base rows split into `num_partitions` contiguous fragments,
/// each evaluated as an independent MD-join against the full detail
/// relation; the union of fragment results, in base order, is the answer.
/// Total detail-scan work is num_partitions × |R| (stats->passes_over_detail
/// counts the fragment scans) — the theorem trades scan volume for
/// parallelism, and Observation 4.1 (bench E11) shows how to win the scans
/// back when θ permits.
///
/// A configuration of the one MD-join driver (RunMdJoin, core/detail_scan.h):
/// `num_threads` workers pull (fragment, detail-range) units of
/// `options.morsel_size` rows from a shared cursor into thread-local
/// partials, merged pairwise once the cursor drains, so fragment skew does
/// not bind the critical path to the slowest fragment. Set
/// `morsel_size = detail.num_rows()` for the static one-fragment-per-task
/// schedule (the bench E10 ablation baseline). The detail split — one
/// logical scan of R shared by the workers — is plain MdJoin() with
/// options.num_threads > 1.
Result<Table> ParallelMdJoin(const Table& base, const Table& detail,
                             const std::vector<AggSpec>& aggs, const ExprPtr& theta,
                             int num_partitions, int num_threads,
                             const MdJoinOptions& options = {},
                             MdJoinStats* stats = nullptr);

}  // namespace mdjoin

#endif  // MDJOIN_PARALLEL_PARALLEL_MDJOIN_H_
