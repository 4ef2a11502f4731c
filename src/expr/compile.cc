#include "expr/compile.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "common/logging.h"
#include "expr/eval_ops.h"
#include "expr/verifier.h"
#include "obs/metrics.h"

namespace mdjoin {

namespace {

using EvalFn = std::function<Value(const RowCtx&)>;

struct Compiled {
  EvalFn fn;
  DataType type;
};

using expr_internal::EvalArith;
using expr_internal::EvalCompare;

/// Mirrors analyze/plan_invariants' VerifyPlansEnabledByEnv. Duplicated here
/// because mdj_expr sits below mdj_plananalyze in the layering: under
/// MDJOIN_VERIFY_PLANS a bytecode program that fails verification is a hard
/// compile error; otherwise it is a soft diagnostic and the expression falls
/// back to the closure tree.
bool HardVerifyEnabled() {
  static const bool enabled = [] {
    const char* e = std::getenv("MDJOIN_VERIFY_PLANS");
    return e != nullptr && std::string_view(e) != "0" && std::string_view(e) != "";
  }();
  return enabled;
}

Result<Compiled> CompileRec(const ExprPtr& expr, const Schema* base,
                            const Schema* detail) {
  switch (expr->kind()) {
    case ExprKind::kLiteral: {
      Value v = expr->literal();
      DataType t = DataType::kInt64;
      if (Result<DataType> rt = v.Type(); rt.ok()) t = *rt;
      return Compiled{[v](const RowCtx&) { return v; }, t};
    }
    case ExprKind::kColumnRef: {
      const Schema* schema = expr->side() == Side::kBase ? base : detail;
      const char* side_name = expr->side() == Side::kBase ? "base" : "detail";
      if (schema == nullptr) {
        return Status::BindError("column ", expr->ToString(), " references the ",
                                 side_name, " side, which is absent in this context");
      }
      MDJ_ASSIGN_OR_RETURN(int idx, schema->GetFieldIndex(expr->column_name()));
      DataType t = schema->field(idx).type;
      if (expr->side() == Side::kBase) {
        return Compiled{[idx](const RowCtx& ctx) {
                          MDJ_DCHECK(ctx.base != nullptr);
                          return ctx.base->Get(ctx.base_row, idx);
                        },
                        t};
      }
      return Compiled{[idx](const RowCtx& ctx) {
                        MDJ_DCHECK(ctx.detail != nullptr);
                        return ctx.detail->Get(ctx.detail_row, idx);
                      },
                      t};
    }
    case ExprKind::kUnary: {
      MDJ_ASSIGN_OR_RETURN(Compiled in, CompileRec(expr->operand(), base, detail));
      EvalFn f = std::move(in.fn);
      switch (expr->unary_op()) {
        case UnaryOp::kNot:
          return Compiled{[f](const RowCtx& ctx) {
                            Value v = f(ctx);
                            if (v.is_null()) return Value::Bool(false);
                            return Value::Bool(!v.IsTruthy());
                          },
                          DataType::kInt64};
        case UnaryOp::kNegate:
          return Compiled{[f](const RowCtx& ctx) {
                            Value v = f(ctx);
                            if (v.is_int64()) return Value::Int64(-v.int64());
                            if (v.is_float64()) return Value::Float64(-v.float64());
                            return Value::Null();
                          },
                          in.type};
        case UnaryOp::kIsNull:
          return Compiled{[f](const RowCtx& ctx) { return Value::Bool(f(ctx).is_null()); },
                          DataType::kInt64};
      }
      return Status::Internal("unreachable unary op");
    }
    case ExprKind::kIn: {
      MDJ_ASSIGN_OR_RETURN(Compiled in, CompileRec(expr->operand(), base, detail));
      EvalFn f = std::move(in.fn);
      std::vector<Value> cands = expr->candidates();
      return Compiled{[f, cands](const RowCtx& ctx) {
                        Value v = f(ctx);
                        for (const Value& c : cands) {
                          if (v.MatchesEq(c)) return Value::Bool(true);
                        }
                        return Value::Bool(false);
                      },
                      DataType::kInt64};
    }
    case ExprKind::kCase: {
      struct CompiledArm {
        EvalFn when;
        EvalFn then;
      };
      auto arms = std::make_shared<std::vector<CompiledArm>>();
      DataType result_type = DataType::kInt64;
      bool saw_float = false, saw_string = false, saw_numeric = false;
      for (const auto& [when_ast, then_ast] : expr->when_then()) {
        MDJ_ASSIGN_OR_RETURN(Compiled when, CompileRec(when_ast, base, detail));
        MDJ_ASSIGN_OR_RETURN(Compiled then, CompileRec(then_ast, base, detail));
        saw_float = saw_float || then.type == DataType::kFloat64;
        saw_numeric = saw_numeric || IsNumeric(then.type);
        saw_string = saw_string || then.type == DataType::kString;
        arms->push_back({std::move(when.fn), std::move(then.fn)});
      }
      EvalFn else_fn;
      if (expr->else_expr() != nullptr) {
        MDJ_ASSIGN_OR_RETURN(Compiled els, CompileRec(expr->else_expr(), base, detail));
        saw_float = saw_float || els.type == DataType::kFloat64;
        saw_numeric = saw_numeric || IsNumeric(els.type);
        saw_string = saw_string || els.type == DataType::kString;
        else_fn = std::move(els.fn);
      }
      if (saw_string && saw_numeric) {
        return Status::TypeError("CASE arms mix string and numeric results");
      }
      if (saw_string) {
        result_type = DataType::kString;
      } else if (saw_float) {
        result_type = DataType::kFloat64;
      }
      return Compiled{[arms, else_fn](const RowCtx& ctx) {
                        for (const CompiledArm& arm : *arms) {
                          if (arm.when(ctx).IsTruthy()) return arm.then(ctx);
                        }
                        return else_fn ? else_fn(ctx) : Value::Null();
                      },
                      result_type};
    }
    case ExprKind::kBinary: {
      MDJ_ASSIGN_OR_RETURN(Compiled lhs, CompileRec(expr->left(), base, detail));
      MDJ_ASSIGN_OR_RETURN(Compiled rhs, CompileRec(expr->right(), base, detail));
      EvalFn lf = std::move(lhs.fn), rf = std::move(rhs.fn);
      BinaryOp op = expr->binary_op();
      switch (op) {
        case BinaryOp::kAnd:
          return Compiled{[lf, rf](const RowCtx& ctx) {
                            if (!lf(ctx).IsTruthy()) return Value::Bool(false);
                            return Value::Bool(rf(ctx).IsTruthy());
                          },
                          DataType::kInt64};
        case BinaryOp::kOr:
          return Compiled{[lf, rf](const RowCtx& ctx) {
                            if (lf(ctx).IsTruthy()) return Value::Bool(true);
                            return Value::Bool(rf(ctx).IsTruthy());
                          },
                          DataType::kInt64};
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return Compiled{[lf, rf, op](const RowCtx& ctx) {
                            return EvalCompare(op, lf(ctx), rf(ctx));
                          },
                          DataType::kInt64};
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod: {
          DataType t = DataType::kFloat64;
          if (IsNumeric(lhs.type) && IsNumeric(rhs.type) && op != BinaryOp::kDiv) {
            t = CommonNumericType(lhs.type, rhs.type);
          }
          return Compiled{[lf, rf, op](const RowCtx& ctx) {
                            return EvalArith(op, lf(ctx), rf(ctx));
                          },
                          t};
        }
      }
      return Status::Internal("unreachable binary op");
    }
  }
  return Status::Internal("unreachable expr kind");
}

}  // namespace

Result<CompiledExpr> CompileExpr(const ExprPtr& expr, const Schema* base_schema,
                                 const Schema* detail_schema) {
  if (expr == nullptr) return Status::InvalidArgument("CompileExpr: null expression");
  MDJ_ASSIGN_OR_RETURN(Compiled c, CompileRec(expr, base_schema, detail_schema));
  CompiledExpr out;
  out.fn_ = std::move(c.fn);
  out.result_type_ = c.type;
  // Lower to bytecode only after the closure tree compiled: binding and
  // type errors are reported once, by one compiler.
  MDJ_ASSIGN_OR_RETURN(BytecodeExpr bc,
                       BytecodeExpr::Compile(expr, base_schema, detail_schema));
  // Every program is verified before it may execute: stack safety, operand
  // validity, forward-only jumps (termination). An emitter bug is a
  // load-time rejection under MDJOIN_VERIFY_PLANS and a diagnosed
  // fall-back to the closure tree otherwise — never a wrong answer.
  VerifierReport report = VerifyBytecode(bc, base_schema, detail_schema);
  if (report.ok()) {
    static Counter* verified = MetricsRegistry::Global().GetCounter(
        "mdjoin_theta_verified_total",
        "θ bytecode programs that passed the static verifier");
    verified->Increment();
    out.bc_ = std::make_shared<const BytecodeExpr>(std::move(bc));
  } else if (HardVerifyEnabled()) {
    return report.ToStatus();
  } else {
    std::fprintf(stderr, "mdjoin: θ bytecode failed verification for %s: %s\n",
                 expr->ToString().c_str(), report.ToStatus().message().c_str());
  }
  return out;
}

Result<Value> EvalConstExpr(const ExprPtr& expr) {
  if (expr->ReferencesSide(Side::kBase) || expr->ReferencesSide(Side::kDetail)) {
    return Status::InvalidArgument("EvalConstExpr: expression references columns: ",
                                   expr->ToString());
  }
  MDJ_ASSIGN_OR_RETURN(CompiledExpr c, CompileExpr(expr, nullptr, nullptr));
  RowCtx ctx;
  return c.Eval(ctx);
}

}  // namespace mdjoin
