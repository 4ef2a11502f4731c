#ifndef MDJOIN_CORE_REFERENCE_H_
#define MDJOIN_CORE_REFERENCE_H_

#include <vector>

#include "agg/agg_spec.h"
#include "common/result.h"
#include "expr/expr.h"
#include "table/table.h"

namespace mdjoin {

/// Literal transcription of Definition 3.1: for each base row b, scan all of
/// R, evaluate θ(b, t) in full, and aggregate the matches into heap
/// aggregate states. O(|B|·|R|) with no analysis, no index, no pushdown —
/// deliberately the dumbest correct evaluator. θ and every aggregate
/// argument run through the closure tree (CompiledExpr::EvalTreeWalk), so
/// the oracle shares no bytecode, predicate kernel, flat aggregate state, or
/// base index with the engine it checks.
Result<Table> MdJoinReference(const Table& base, const Table& detail,
                              const std::vector<AggSpec>& aggs, const ExprPtr& theta);

}  // namespace mdjoin

#endif  // MDJOIN_CORE_REFERENCE_H_
