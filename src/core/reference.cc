#include "core/reference.h"

#include "expr/eval_ops.h"

namespace mdjoin {

Result<Value> InterpretExpr(const Expr& expr, const RowCtx& ctx) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return expr.literal();
    case ExprKind::kColumnRef: {
      const bool base_side = expr.side() == Side::kBase;
      const Table* table = base_side ? ctx.base : ctx.detail;
      if (table == nullptr) {
        return Status::BindError("column ", expr.ToString(), " references the ",
                                 base_side ? "base" : "detail",
                                 " side, which is absent in this context");
      }
      MDJ_ASSIGN_OR_RETURN(int idx, table->schema().GetFieldIndex(expr.column_name()));
      return table->Get(base_side ? ctx.base_row : ctx.detail_row, idx);
    }
    case ExprKind::kUnary: {
      MDJ_ASSIGN_OR_RETURN(Value v, InterpretExpr(*expr.operand(), ctx));
      switch (expr.unary_op()) {
        case UnaryOp::kNot:
          return Value::Bool(!v.is_null() && !v.IsTruthy());
        case UnaryOp::kNegate:
          if (v.is_int64()) return Value::Int64(-v.int64());
          if (v.is_float64()) return Value::Float64(-v.float64());
          return Value::Null();
        case UnaryOp::kIsNull:
          return Value::Bool(v.is_null());
      }
      return Status::Internal("unreachable unary op");
    }
    case ExprKind::kIn: {
      MDJ_ASSIGN_OR_RETURN(Value v, InterpretExpr(*expr.operand(), ctx));
      for (const Value& c : expr.candidates()) {
        if (v.MatchesEq(c)) return Value::Bool(true);
      }
      return Value::Bool(false);
    }
    case ExprKind::kCase: {
      for (const auto& [when, then] : expr.when_then()) {
        MDJ_ASSIGN_OR_RETURN(Value cond, InterpretExpr(*when, ctx));
        if (cond.IsTruthy()) return InterpretExpr(*then, ctx);
      }
      if (expr.else_expr() == nullptr) return Value::Null();
      return InterpretExpr(*expr.else_expr(), ctx);
    }
    case ExprKind::kBinary: {
      const BinaryOp op = expr.binary_op();
      MDJ_ASSIGN_OR_RETURN(Value lhs, InterpretExpr(*expr.left(), ctx));
      // AND / OR short-circuit: the right operand is not evaluated when the
      // left one decides.
      if (op == BinaryOp::kAnd && !lhs.IsTruthy()) return Value::Bool(false);
      if (op == BinaryOp::kOr && lhs.IsTruthy()) return Value::Bool(true);
      MDJ_ASSIGN_OR_RETURN(Value rhs, InterpretExpr(*expr.right(), ctx));
      switch (op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          return Value::Bool(rhs.IsTruthy());
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return expr_internal::EvalCompare(op, lhs, rhs);
        default:
          return expr_internal::EvalArith(op, lhs, rhs);
      }
    }
  }
  return Status::Internal("unreachable expr kind");
}

Result<Table> MdJoinReference(const Table& base, const Table& detail,
                              const std::vector<AggSpec>& aggs, const ExprPtr& theta) {
  if (theta == nullptr) {
    return Status::InvalidArgument("MdJoinReference: θ-condition must not be null");
  }
  MDJ_ASSIGN_OR_RETURN(std::vector<BoundAgg> bound,
                       BindAggs(aggs, &base.schema(), &detail.schema()));
  // θ binds lazily, per evaluation; resolve its names once up front so a bad
  // θ is an error even when B or R is empty.
  for (const std::string& name : theta->ReferencedColumns(Side::kBase)) {
    MDJ_RETURN_NOT_OK(base.schema().GetFieldIndex(name).status());
  }
  for (const std::string& name : theta->ReferencedColumns(Side::kDetail)) {
    MDJ_RETURN_NOT_OK(detail.schema().GetFieldIndex(name).status());
  }

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
      MDJ_ASSIGN_OR_RETURN(Value match, InterpretExpr(*theta, ctx));
      if (!match.IsTruthy()) continue;
      for (size_t i = 0; i < bound.size(); ++i) {
        // count(*) feeds a non-NULL token, as every evaluator does.
        Value arg = Value::Int64(1);
        if (aggs[i].argument != nullptr) {
          MDJ_ASSIGN_OR_RETURN(arg, InterpretExpr(*aggs[i].argument, ctx));
        }
        bound[i].fn->Update(states[i].get(), arg);
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
