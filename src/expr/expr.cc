#include "expr/expr.h"

#include <cstdio>
#include <cstdlib>

#include "common/logging.h"

namespace mdjoin {

namespace {

/// Renders a literal losslessly, so equal renderings mean equal literals
/// (plan identity — the result cache, fusion and fingerprints — compares
/// ExplainPlan text). Strings are quoted with '' escaping; a float prints in
/// the shortest form that reads back to the same double and never the way an
/// int64 prints. Value::ToString, which table printers use, stays terse.
std::string LiteralToString(const Value& v) {
  if (v.is_string()) {
    std::string out = "'";
    for (char c : v.string()) {
      out.push_back(c);
      if (c == '\'') out.push_back('\'');
    }
    return out + "'";
  }
  if (!v.is_float64()) return v.ToString();
  const double d = v.float64();
  char buf[40];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  std::string out = buf;
  if (out.find_first_not_of("-0123456789") == std::string::npos) out += ".0";
  return out;
}

}  // namespace

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "and";
    case BinaryOp::kOr:
      return "or";
  }
  return "?";
}

const char* UnaryOpToString(UnaryOp op) {
  switch (op) {
    case UnaryOp::kNot:
      return "not";
    case UnaryOp::kNegate:
      return "-";
    case UnaryOp::kIsNull:
      return "is null";
  }
  return "?";
}

ExprPtr Expr::Literal(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLiteral;
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::ColumnRef(Side side, std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kColumnRef;
  e->side_ = side;
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Unary(UnaryOp op, ExprPtr operand) {
  MDJ_CHECK(operand != nullptr);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kUnary;
  e->unary_op_ = op;
  e->left_ = std::move(operand);
  return e;
}

ExprPtr Expr::Binary(BinaryOp op, ExprPtr left, ExprPtr right) {
  MDJ_CHECK(left != nullptr && right != nullptr);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kBinary;
  e->binary_op_ = op;
  e->left_ = std::move(left);
  e->right_ = std::move(right);
  return e;
}

ExprPtr Expr::In(ExprPtr operand, std::vector<Value> candidates) {
  MDJ_CHECK(operand != nullptr);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kIn;
  e->left_ = std::move(operand);
  e->candidates_ = std::move(candidates);
  return e;
}

ExprPtr Expr::Case(std::vector<std::pair<ExprPtr, ExprPtr>> when_then,
                   ExprPtr else_expr) {
  MDJ_CHECK(!when_then.empty()) << "CASE needs at least one WHEN arm";
  for (const auto& [when, then] : when_then) {
    MDJ_CHECK(when != nullptr && then != nullptr);
  }
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kCase;
  e->when_then_ = std::move(when_then);
  e->left_ = std::move(else_expr);  // may stay null
  return e;
}

bool Expr::ReferencesSide(Side side) const {
  switch (kind_) {
    case ExprKind::kLiteral:
      return false;
    case ExprKind::kColumnRef:
      return side_ == side;
    case ExprKind::kUnary:
    case ExprKind::kIn:
      return left_->ReferencesSide(side);
    case ExprKind::kBinary:
      return left_->ReferencesSide(side) || right_->ReferencesSide(side);
    case ExprKind::kCase: {
      for (const auto& [when, then] : when_then_) {
        if (when->ReferencesSide(side) || then->ReferencesSide(side)) return true;
      }
      return left_ != nullptr && left_->ReferencesSide(side);
    }
  }
  return false;
}

void Expr::CollectColumns(Side side, std::set<std::string>* out) const {
  switch (kind_) {
    case ExprKind::kLiteral:
      return;
    case ExprKind::kColumnRef:
      if (side_ == side) out->insert(name_);
      return;
    case ExprKind::kUnary:
    case ExprKind::kIn:
      left_->CollectColumns(side, out);
      return;
    case ExprKind::kBinary:
      left_->CollectColumns(side, out);
      right_->CollectColumns(side, out);
      return;
    case ExprKind::kCase:
      for (const auto& [when, then] : when_then_) {
        when->CollectColumns(side, out);
        then->CollectColumns(side, out);
      }
      if (left_ != nullptr) left_->CollectColumns(side, out);
      return;
  }
}

std::set<std::string> Expr::ReferencedColumns(Side side) const {
  std::set<std::string> out;
  CollectColumns(side, &out);
  return out;
}

ExprPtr Expr::RemapSide(const ExprPtr& e, Side from, Side to) {
  switch (e->kind_) {
    case ExprKind::kLiteral:
      return e;
    case ExprKind::kColumnRef:
      if (e->side_ == from) return ColumnRef(to, e->name_);
      return e;
    case ExprKind::kUnary:
      return Unary(e->unary_op_, RemapSide(e->left_, from, to));
    case ExprKind::kIn:
      return In(RemapSide(e->left_, from, to), e->candidates_);
    case ExprKind::kBinary:
      return Binary(e->binary_op_, RemapSide(e->left_, from, to),
                    RemapSide(e->right_, from, to));
    case ExprKind::kCase: {
      std::vector<std::pair<ExprPtr, ExprPtr>> arms;
      for (const auto& [when, then] : e->when_then_) {
        arms.emplace_back(RemapSide(when, from, to), RemapSide(then, from, to));
      }
      return Case(std::move(arms),
                  e->left_ == nullptr ? nullptr : RemapSide(e->left_, from, to));
    }
  }
  return e;
}

ExprPtr Expr::RenameColumns(const ExprPtr& e, Side side,
                            const std::vector<std::string>& from,
                            const std::vector<std::string>& to) {
  MDJ_CHECK(from.size() == to.size());
  switch (e->kind_) {
    case ExprKind::kLiteral:
      return e;
    case ExprKind::kColumnRef: {
      if (e->side_ != side) return e;
      for (size_t i = 0; i < from.size(); ++i) {
        if (e->name_ == from[i]) return ColumnRef(side, to[i]);
      }
      return e;
    }
    case ExprKind::kUnary:
      return Unary(e->unary_op_, RenameColumns(e->left_, side, from, to));
    case ExprKind::kIn:
      return In(RenameColumns(e->left_, side, from, to), e->candidates_);
    case ExprKind::kBinary:
      return Binary(e->binary_op_, RenameColumns(e->left_, side, from, to),
                    RenameColumns(e->right_, side, from, to));
    case ExprKind::kCase: {
      std::vector<std::pair<ExprPtr, ExprPtr>> arms;
      for (const auto& [when, then] : e->when_then_) {
        arms.emplace_back(RenameColumns(when, side, from, to),
                          RenameColumns(then, side, from, to));
      }
      return Case(std::move(arms), e->left_ == nullptr
                                       ? nullptr
                                       : RenameColumns(e->left_, side, from, to));
    }
  }
  return e;
}

ExprPtr Expr::SubstituteColumns(
    const ExprPtr& e, Side side,
    const std::vector<std::pair<std::string, ExprPtr>>& replacements) {
  switch (e->kind_) {
    case ExprKind::kLiteral:
      return e;
    case ExprKind::kColumnRef: {
      if (e->side_ != side) return e;
      for (const auto& [name, repl] : replacements) {
        if (e->name_ == name) return repl;
      }
      return e;
    }
    case ExprKind::kUnary:
      return Unary(e->unary_op_, SubstituteColumns(e->left_, side, replacements));
    case ExprKind::kIn:
      return In(SubstituteColumns(e->left_, side, replacements), e->candidates_);
    case ExprKind::kBinary:
      return Binary(e->binary_op_, SubstituteColumns(e->left_, side, replacements),
                    SubstituteColumns(e->right_, side, replacements));
    case ExprKind::kCase: {
      std::vector<std::pair<ExprPtr, ExprPtr>> arms;
      for (const auto& [when, then] : e->when_then_) {
        arms.emplace_back(SubstituteColumns(when, side, replacements),
                          SubstituteColumns(then, side, replacements));
      }
      return Case(std::move(arms),
                  e->left_ == nullptr
                      ? nullptr
                      : SubstituteColumns(e->left_, side, replacements));
    }
  }
  return e;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kLiteral:
      return LiteralToString(literal_);
    case ExprKind::kColumnRef:
      return (side_ == Side::kBase ? "B." : "R.") + name_;
    case ExprKind::kUnary:
      if (unary_op_ == UnaryOp::kIsNull) return "(" + left_->ToString() + " is null)";
      return std::string("(") + UnaryOpToString(unary_op_) + " " + left_->ToString() +
             ")";
    case ExprKind::kIn: {
      std::string out = "(" + left_->ToString() + " in (";
      for (size_t i = 0; i < candidates_.size(); ++i) {
        if (i > 0) out += ", ";
        out += LiteralToString(candidates_[i]);
      }
      return out + "))";
    }
    case ExprKind::kBinary:
      return "(" + left_->ToString() + " " + BinaryOpToString(binary_op_) + " " +
             right_->ToString() + ")";
    case ExprKind::kCase: {
      std::string out = "(case";
      for (const auto& [when, then] : when_then_) {
        out += " when " + when->ToString() + " then " + then->ToString();
      }
      if (left_ != nullptr) out += " else " + left_->ToString();
      return out + " end)";
    }
  }
  return "?";
}

}  // namespace mdjoin
