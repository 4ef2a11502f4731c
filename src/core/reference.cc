#include "core/reference.h"

#include "expr/compile.h"

namespace mdjoin {

Result<Table> MdJoinReference(const Table& base, const Table& detail,
                              const std::vector<AggSpec>& aggs, const ExprPtr& theta) {
  if (theta == nullptr) {
    return Status::InvalidArgument("MdJoinReference: θ-condition must not be null");
  }
  MDJ_ASSIGN_OR_RETURN(std::vector<BoundAgg> bound,
                       BindAggs(aggs, &base.schema(), &detail.schema()));
  MDJ_ASSIGN_OR_RETURN(CompiledExpr cond,
                       CompileExpr(theta, &base.schema(), &detail.schema()));

  std::vector<Field> fields = base.schema().fields();
  for (const BoundAgg& b : bound) fields.push_back(b.output_field);
  Table out{Schema(std::move(fields))};
  out.Reserve(base.num_rows());

  RowCtx ctx;
  ctx.base = &base;
  ctx.detail = &detail;
  for (int64_t b = 0; b < base.num_rows(); ++b) {
    ctx.base_row = b;
    std::vector<std::unique_ptr<AggregateState>> states;
    states.reserve(bound.size());
    for (const BoundAgg& agg : bound) states.push_back(agg.fn->MakeState());
    for (int64_t t = 0; t < detail.num_rows(); ++t) {
      ctx.detail_row = t;
      if (!cond.EvalTreeWalk(ctx).IsTruthy()) continue;
      for (size_t i = 0; i < bound.size(); ++i) {
        // count(*) feeds a non-NULL token, as every evaluator does.
        bound[i].fn->Update(states[i].get(), bound[i].has_arg
                                                 ? bound[i].arg.EvalTreeWalk(ctx)
                                                 : Value::Int64(1));
      }
    }
    std::vector<Value> row = base.GetRow(b);
    for (size_t i = 0; i < bound.size(); ++i) {
      row.push_back(bound[i].fn->Finalize(*states[i]));
    }
    out.AppendRowUnchecked(std::move(row));
  }
  return out;
}

}  // namespace mdjoin
