#ifndef MDJOIN_EXPR_COMPILE_H_
#define MDJOIN_EXPR_COMPILE_H_

#include <functional>
#include <memory>

#include "common/result.h"
#include "expr/bytecode.h"
#include "expr/expr.h"
#include "expr/row_ctx.h"
#include "table/table.h"

namespace mdjoin {

/// An Expr resolved against concrete schemas: column names become indices, so
/// per-row evaluation does no name lookups. Compile once, evaluate millions
/// of times.
///
/// Two execution engines back one CompiledExpr:
///   - a flat bytecode program (expr/bytecode.h) — the runtime evaluator: one
///     cache-resident instruction array walked by a tight dispatch loop;
///   - the original closure tree — kept as the oracle (EvalTreeWalk, which
///     the Definition-3.1 reference evaluator runs) and as the fallback when
///     a bytecode program fails verification.
/// Both are compiled from the same AST and share the operator semantics in
/// expr/eval_ops.h; the fuzz suite cross-checks them on random expressions.
class CompiledExpr {
 public:
  CompiledExpr() = default;

  /// Evaluates against `ctx`. Predicates return Int64 0/1.
  Value Eval(const RowCtx& ctx) const { return bc_ ? bc_->Eval(ctx) : fn_(ctx); }

  /// Convenience for predicates.
  bool EvalBool(const RowCtx& ctx) const { return Eval(ctx).IsTruthy(); }

  /// Always evaluates through the closure tree, bypassing bytecode. The
  /// differential oracle for the reference evaluator and tests; not for hot
  /// paths.
  Value EvalTreeWalk(const RowCtx& ctx) const { return fn_(ctx); }

  /// Static result type inferred at compile time.
  DataType result_type() const { return result_type_; }

  bool valid() const { return static_cast<bool>(fn_); }

  bool has_bytecode() const { return bc_ != nullptr; }
  const BytecodeExpr* bytecode() const { return bc_.get(); }

 private:
  friend Result<CompiledExpr> CompileExpr(const ExprPtr&, const Schema*, const Schema*);

  std::function<Value(const RowCtx&)> fn_;
  std::shared_ptr<const BytecodeExpr> bc_;
  DataType result_type_ = DataType::kInt64;
};

/// Resolves `expr` against the given schemas. Pass nullptr for a side the
/// expression must not reference (a base-side reference with a null base
/// schema is a bind error).
Result<CompiledExpr> CompileExpr(const ExprPtr& expr, const Schema* base_schema,
                                 const Schema* detail_schema);

/// Single-table convenience: kDetail references resolve against `schema`.
inline Result<CompiledExpr> CompileExpr(const ExprPtr& expr, const Schema& schema) {
  return CompileExpr(expr, /*base_schema=*/nullptr, &schema);
}

/// Evaluates a constant expression (no column references).
Result<Value> EvalConstExpr(const ExprPtr& expr);

}  // namespace mdjoin

#endif  // MDJOIN_EXPR_COMPILE_H_
