#ifndef MDJOIN_OPTIMIZER_EXECUTOR_H_
#define MDJOIN_OPTIMIZER_EXECUTOR_H_

#include "core/mdjoin.h"
#include "obs/query_profile.h"
#include "optimizer/plan.h"

namespace mdjoin {

/// Work counters of one plan execution, folded from its operator profile
/// tree; ExecutePlan and ExplainAnalyze fill equal counters for one plan.
struct ExecStats {
  int64_t nodes_executed = 0;        // plan nodes evaluated (CSE hits excluded)
  int64_t detail_rows_scanned = 0;   // summed over all (generalized) MD-joins
  int64_t candidate_pairs = 0;
  int64_t matched_pairs = 0;
  int64_t mdjoin_operators = 0;      // MD-join nodes evaluated
  int64_t rows_materialized = 0;     // output rows of the nodes that built one
                                     // (borrowed catalog tables and CSE hits
                                     // build none)
  int64_t cse_hits = 0;              // occurrences served a shared subtree result
  int64_t blocks_read = 0;           // paged detail blocks served (faults + hits)
  int64_t spill_bytes = 0;           // bytes written to spill partition files
};

/// Executes `plan` against `catalog`. Every node materializes its result (an
/// in-memory engine in the paper's §4.1.1 spirit) except a catalog table,
/// which is read in place. MD-join nodes run with `md_options`.
///
/// Common-subexpression elimination is always on (the paper: "usually
/// optimizers perform common subexpression elimination"): a non-leaf plan
/// node reached along more than one path — say the finer cuboid that feeds
/// several coarser ones in a Theorem 4.5 chain, which
/// ExpandCubeBaseWithRollups splices into every use — is evaluated once and
/// its result shared by every occurrence; `stats->cse_hits` counts the
/// reuses. Equal but separately built subtrees are evaluated separately.
/// With a guard, a shared result stays charged to it until its last
/// occurrence. Only the returned root is ever copied, and only when it is a
/// catalog table.
Result<Table> ExecutePlan(const PlanPtr& plan, const Catalog& catalog,
                          const MdJoinOptions& md_options = {},
                          ExecStats* stats = nullptr);

/// EXPLAIN ANALYZE: ExecutePlan's walk, keeping the per-operator
/// QueryProfile it records (rows, wall/CPU timings, MD-join scan counters).
/// On top, and only here: the static-analysis report, the cost model's
/// estimate on each operator, and — with `md_options.feedback` set — the
/// harvest of measured cardinalities into that store. `profile` must be
/// non-null; its `rewrites` log is preserved (populate it via OptimizePlan's
/// rewrite_log before calling), everything else is reset. `stats`, when
/// given, gets the same counters ExecutePlan would report.
///
/// The profile is always well-formed on return — on a guard trip or operator
/// failure the tree holds partial counts for whatever executed, `complete` is
/// false, and `terminal` carries the error status (the terminal event). The
/// returned Result mirrors that status. A CSE hit is a leaf marked `shared`:
/// it did no work, and feedback is harvested at its first occurrence only.
Result<Table> ExplainAnalyze(const PlanPtr& plan, const Catalog& catalog,
                             const MdJoinOptions& md_options, QueryProfile* profile,
                             ExecStats* stats = nullptr);

}  // namespace mdjoin

#endif  // MDJOIN_OPTIMIZER_EXECUTOR_H_
