#ifndef MDJOIN_EXPR_EXPR_H_
#define MDJOIN_EXPR_EXPR_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "types/value.h"

namespace mdjoin {

/// Which relation a column reference resolves against. An MD-join θ-condition
/// (Definition 3.1) ranges over attributes of both the base-values relation B
/// and the detail relation R; single-table expressions (σ predicates,
/// projections) use kDetail only.
enum class Side {
  kBase,    // B, the base-values relation
  kDetail,  // R, the detail relation
};

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kUnary,
  kBinary,
  kIn,
  kCase,  // CASE WHEN c1 THEN v1 [WHEN ...] [ELSE e] END
};

enum class UnaryOp { kNot, kNegate, kIsNull };

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,  // θ-equality: ALL is a wildcard (see Value::MatchesEq)
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

const char* BinaryOpToString(BinaryOp op);
const char* UnaryOpToString(UnaryOp op);

class Expr;
/// Expressions are immutable and shared; compilation against schemas happens
/// separately (see compile.h), so one Expr can be reused across plans.
using ExprPtr = std::shared_ptr<const Expr>;

/// Immutable expression-tree node.
///
/// Semantics notes:
///  - Predicates evaluate to Int64 0/1.
///  - Comparisons and arithmetic involving NULL yield false / NULL (SQL-ish
///    two-valued logic: AND/OR treat NULL as false).
///  - kEq uses θ-equality, so a base row whose cube attribute is ALL matches
///    every detail value — exactly the paper's multi-granularity semantics.
///    Ordered comparisons (<, <=, >, >=) involving ALL are false.
class Expr {
 public:
  static ExprPtr Literal(Value v);
  static ExprPtr ColumnRef(Side side, std::string name);
  static ExprPtr Unary(UnaryOp op, ExprPtr operand);
  static ExprPtr Binary(BinaryOp op, ExprPtr left, ExprPtr right);
  static ExprPtr In(ExprPtr operand, std::vector<Value> candidates);
  /// CASE WHEN ... THEN ... [ELSE else_expr] END; else_expr may be null
  /// (missing ELSE yields NULL). The SQL idiom behind conditional
  /// aggregation — sum(case when state = 'NY' then sale end) — which is the
  /// standard way to emulate the pivoting the MD-join does natively.
  static ExprPtr Case(std::vector<std::pair<ExprPtr, ExprPtr>> when_then,
                      ExprPtr else_expr);

  ExprKind kind() const { return kind_; }

  // kLiteral
  const Value& literal() const { return literal_; }
  // kColumnRef
  Side side() const { return side_; }
  const std::string& column_name() const { return name_; }
  // kUnary / kBinary / kIn
  UnaryOp unary_op() const { return unary_op_; }
  BinaryOp binary_op() const { return binary_op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  const ExprPtr& operand() const { return left_; }
  const std::vector<Value>& candidates() const { return candidates_; }
  // kCase
  const std::vector<std::pair<ExprPtr, ExprPtr>>& when_then() const {
    return when_then_;
  }
  const ExprPtr& else_expr() const { return left_; }  // may be null

  /// True if any column reference on `side` occurs in this subtree.
  bool ReferencesSide(Side side) const;

  /// Collects the names referenced on `side`.
  void CollectColumns(Side side, std::set<std::string>* out) const;
  std::set<std::string> ReferencedColumns(Side side) const;

  /// Structurally rewrites every column reference on `from` to `to`
  /// (Observation 4.1 uses this to transfer a B-side selection to R).
  static ExprPtr RemapSide(const ExprPtr& e, Side from, Side to);

  /// Structurally rewrites column names on `side` via parallel vectors.
  static ExprPtr RenameColumns(const ExprPtr& e, Side side,
                               const std::vector<std::string>& from,
                               const std::vector<std::string>& to);

  /// Replaces each reference to column `name` on `side` with the paired
  /// expression (Observation 4.1 substitutes B-attribute references with the
  /// corresponding R-side key expressions). References not in the map are
  /// left intact.
  static ExprPtr SubstituteColumns(
      const ExprPtr& e, Side side,
      const std::vector<std::pair<std::string, ExprPtr>>& replacements);

  /// Readable, lossless rendering, e.g. "(R.cust = B.cust and R.state =
  /// 'NY')": literals and IN candidates render exactly (strings quoted, a
  /// float in round-trip form such as 100.0 or 99.99999, never like an int),
  /// so equal text means an equal expression.
  std::string ToString() const;

 private:
  Expr() = default;

  ExprKind kind_ = ExprKind::kLiteral;
  Value literal_;
  Side side_ = Side::kDetail;
  std::string name_;
  UnaryOp unary_op_ = UnaryOp::kNot;
  BinaryOp binary_op_ = BinaryOp::kAnd;
  ExprPtr left_;
  ExprPtr right_;
  std::vector<Value> candidates_;
  std::vector<std::pair<ExprPtr, ExprPtr>> when_then_;
};

/// Terse factory helpers; the intended way to write conditions in C++:
///
///   using namespace mdjoin::dsl;
///   ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")),
///                       Eq(RCol("state"), Lit("NY")));
namespace dsl {

inline ExprPtr Lit(int64_t v) { return Expr::Literal(Value::Int64(v)); }
inline ExprPtr Lit(int v) { return Expr::Literal(Value::Int64(v)); }
inline ExprPtr Lit(double v) { return Expr::Literal(Value::Float64(v)); }
inline ExprPtr Lit(const char* v) { return Expr::Literal(Value::String(v)); }
inline ExprPtr Lit(std::string v) { return Expr::Literal(Value::String(std::move(v))); }
inline ExprPtr Lit(Value v) { return Expr::Literal(std::move(v)); }

/// Reference into the base-values relation B.
inline ExprPtr BCol(std::string name) {
  return Expr::ColumnRef(Side::kBase, std::move(name));
}
/// Reference into the detail relation R.
inline ExprPtr RCol(std::string name) {
  return Expr::ColumnRef(Side::kDetail, std::move(name));
}
/// Single-table contexts (σ predicates, projections) resolve kDetail refs.
inline ExprPtr Col(std::string name) { return RCol(std::move(name)); }

inline ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kEq, std::move(a), std::move(b));
}
inline ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kNe, std::move(a), std::move(b));
}
inline ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kLt, std::move(a), std::move(b));
}
inline ExprPtr Le(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kLe, std::move(a), std::move(b));
}
inline ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kGt, std::move(a), std::move(b));
}
inline ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kGe, std::move(a), std::move(b));
}
inline ExprPtr And(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kAnd, std::move(a), std::move(b));
}
template <typename... Rest>
inline ExprPtr And(ExprPtr a, ExprPtr b, Rest... rest) {
  return And(And(std::move(a), std::move(b)), std::move(rest)...);
}
inline ExprPtr Or(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kOr, std::move(a), std::move(b));
}
inline ExprPtr Not(ExprPtr a) { return Expr::Unary(UnaryOp::kNot, std::move(a)); }
inline ExprPtr Neg(ExprPtr a) { return Expr::Unary(UnaryOp::kNegate, std::move(a)); }
inline ExprPtr IsNull(ExprPtr a) { return Expr::Unary(UnaryOp::kIsNull, std::move(a)); }
inline ExprPtr Add(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kAdd, std::move(a), std::move(b));
}
inline ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kSub, std::move(a), std::move(b));
}
inline ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kMul, std::move(a), std::move(b));
}
inline ExprPtr Div(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kDiv, std::move(a), std::move(b));
}
inline ExprPtr Mod(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kMod, std::move(a), std::move(b));
}
inline ExprPtr Between(ExprPtr e, ExprPtr lo, ExprPtr hi) {
  ExprPtr e_copy = e;
  return And(Ge(std::move(e_copy), std::move(lo)), Le(std::move(e), std::move(hi)));
}
inline ExprPtr In(ExprPtr e, std::vector<Value> candidates) {
  return Expr::In(std::move(e), std::move(candidates));
}
inline ExprPtr CaseWhen(std::vector<std::pair<ExprPtr, ExprPtr>> when_then,
                        ExprPtr else_expr = nullptr) {
  return Expr::Case(std::move(when_then), std::move(else_expr));
}
inline ExprPtr True() { return Lit(int64_t{1}); }
inline ExprPtr False() { return Lit(int64_t{0}); }

}  // namespace dsl

}  // namespace mdjoin

#endif  // MDJOIN_EXPR_EXPR_H_
