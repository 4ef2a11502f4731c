#ifndef MDJOIN_OPTIMIZER_OPTIMIZE_H_
#define MDJOIN_OPTIMIZER_OPTIMIZE_H_

#include <string>
#include <vector>

#include "obs/query_profile.h"
#include "optimizer/plan.h"

namespace mdjoin {

/// Which rewrites the driver may apply. The defaults apply everything that
/// is beneficial on its own; cube roll-up chains pay off only through the
/// executor's CSE (shared parent cuboids) and stay opt-in.
struct OptimizeOptions {
  bool enable_pushdown = true;       // Theorem 4.2
  bool enable_transfer = true;       // Observation 4.1
  bool enable_fusion = true;         // Theorem 4.3
  bool enable_cube_rollup = false;   // cube expansion + Theorem 4.5 chains
  bool enable_unsat_rewrite = true;  // certified empty-result rewrite
  /// Theorem 4.4 equijoin split. Opt-in: splitting pays off only when the
  /// independent MD-joins can actually run at different sites (or in
  /// parallel), which the single-node executor does not exploit, so default
  /// plans keep the nested shape.
  bool enable_split = false;
  int max_rounds = 4;                // fixpoint guard per node

  /// Plan-feedback store (stats/feedback.h) consulted by the cost model when
  /// ranking rewrites: nodes with measured cardinalities beat the model's
  /// constants, so repeated queries converge on measurement-backed rewrite
  /// decisions. Not owned, may be null.
  const class FeedbackStore* feedback = nullptr;

  /// Debug invariant mode: re-run the full PlanAnalyzer over the plan after
  /// every accepted rule application and fail fast with the analyzer's
  /// structured diagnostic if the rewrite produced an ill-formed plan. Also
  /// enabled (independently of this flag) by setting the MDJOIN_VERIFY_PLANS
  /// environment variable to a non-empty value other than "0".
  bool verify_plans = false;
};

/// What the driver did, for explainability and tests.
struct OptimizeReport {
  std::vector<std::string> applied;  // human-readable rule firings

  std::string ToString() const;
};

/// Rule-driven plan optimization: rewrites bottom-up, firing each enabled
/// rule wherever its pattern matches, re-checking with the cost model that
/// the rewrite does not increase estimated work (a tiny cost-based
/// optimizer in the sense of §4: the transformations make MD-join plans
/// "immediately incorporable into present cost- and algebraic-based query
/// optimizers"). Result equivalence is guaranteed by the rules' theorems and
/// enforced by the property-test suite.
/// `rewrite_log`, when non-null, receives one RewriteRecord per rule firing
/// that produced a candidate plan — accepted or rejected — carrying the
/// cost-model certificate (estimated work before/after). EXPLAIN ANALYZE
/// surfaces this log through QueryProfile::rewrites.
Result<PlanPtr> OptimizePlan(const PlanPtr& plan, const Catalog& catalog,
                             const OptimizeOptions& options = {},
                             OptimizeReport* report = nullptr,
                             std::vector<RewriteRecord>* rewrite_log = nullptr);

}  // namespace mdjoin

#endif  // MDJOIN_OPTIMIZER_OPTIMIZE_H_
