#ifndef MDJOIN_EXPR_EVAL_OPS_H_
#define MDJOIN_EXPR_EVAL_OPS_H_

#include <cmath>

#include "expr/expr.h"
#include "types/value.h"

namespace mdjoin {
namespace expr_internal {

/// The two non-trivial Value × Value operators — the definitions of θ's
/// comparison and arithmetic. The bytecode interpreter (expr/bytecode.cc),
/// the predicate kernels' slow path (expr/kernels.cc) and the Definition-3.1
/// reference interpreter (core/reference.cc) all call these, so an expression
/// means the same Value everywhere (the fuzz suites cross-check them).

inline Value EvalArith(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null() || a.is_all() || b.is_all()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) return Value::Null();
  if (a.is_int64() && b.is_int64() && op != BinaryOp::kDiv) {
    int64_t x = a.int64(), y = b.int64();
    switch (op) {
      case BinaryOp::kAdd:
        return Value::Int64(x + y);
      case BinaryOp::kSub:
        return Value::Int64(x - y);
      case BinaryOp::kMul:
        return Value::Int64(x * y);
      case BinaryOp::kMod:
        return y == 0 ? Value::Null() : Value::Int64(x % y);
      default:
        break;
    }
  }
  double x = a.AsDouble(), y = b.AsDouble();
  switch (op) {
    case BinaryOp::kAdd:
      return Value::Float64(x + y);
    case BinaryOp::kSub:
      return Value::Float64(x - y);
    case BinaryOp::kMul:
      return Value::Float64(x * y);
    case BinaryOp::kDiv:
      return y == 0 ? Value::Null() : Value::Float64(x / y);
    case BinaryOp::kMod:
      return y == 0 ? Value::Null() : Value::Float64(std::fmod(x, y));
    default:
      break;
  }
  return Value::Null();
}

inline Value EvalCompare(BinaryOp op, const Value& a, const Value& b) {
  if (op == BinaryOp::kEq) return Value::Bool(a.MatchesEq(b));
  if (op == BinaryOp::kNe) {
    if (a.is_null() || b.is_null()) return Value::Bool(false);
    return Value::Bool(!a.MatchesEq(b));
  }
  // Ordered comparisons: NULL or ALL on either side -> false.
  if (a.is_null() || b.is_null() || a.is_all() || b.is_all()) return Value::Bool(false);
  // Mixed numeric/string comparison is false rather than an error: θ-conditions
  // meet heterogeneous data during exploratory queries.
  bool comparable = (a.is_numeric() && b.is_numeric()) || (a.is_string() && b.is_string());
  if (!comparable) return Value::Bool(false);
  int c = a.Compare(b);
  switch (op) {
    case BinaryOp::kLt:
      return Value::Bool(c < 0);
    case BinaryOp::kLe:
      return Value::Bool(c <= 0);
    case BinaryOp::kGt:
      return Value::Bool(c > 0);
    case BinaryOp::kGe:
      return Value::Bool(c >= 0);
    default:
      break;
  }
  return Value::Bool(false);
}

}  // namespace expr_internal
}  // namespace mdjoin

#endif  // MDJOIN_EXPR_EVAL_OPS_H_
