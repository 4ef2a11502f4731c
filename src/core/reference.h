#ifndef MDJOIN_CORE_REFERENCE_H_
#define MDJOIN_CORE_REFERENCE_H_

#include <vector>

#include "agg/agg_spec.h"
#include "common/result.h"
#include "expr/expr.h"
#include "expr/row_ctx.h"
#include "table/table.h"

namespace mdjoin {

/// The single-expression oracle: evaluates `expr` on the row pair in `ctx` by
/// walking the AST. Every column reference resolves its name against the
/// schema of ctx.base or ctx.detail when it is evaluated; the operators are
/// Value's and those in expr/eval_ops.h. It shares nothing with CompileExpr
/// (no binding, typing, bytecode or kernels), so the engine's evaluator can be
/// checked against it. Typing is dynamic: a CASE mixing string and numeric
/// arms, which CompileExpr rejects, simply yields the taken arm. A reference
/// to an absent side or an unknown column is an error.
Result<Value> InterpretExpr(const Expr& expr, const RowCtx& ctx);

/// Literal transcription of Definition 3.1: for each base row b, scan all of
/// R, evaluate θ(b, t) in full, and aggregate the matches into heap
/// aggregate states. O(|B|·|R|) with no analysis, no index, no pushdown —
/// deliberately the dumbest correct evaluator. θ and every aggregate
/// argument run through InterpretExpr, so the oracle shares no compiler,
/// bytecode, predicate kernel, flat aggregate state, or base index with the
/// engine it checks. BindAggs is used only for the function lookup and the
/// output schema.
Result<Table> MdJoinReference(const Table& base, const Table& detail,
                              const std::vector<AggSpec>& aggs, const ExprPtr& theta);

}  // namespace mdjoin

#endif  // MDJOIN_CORE_REFERENCE_H_
