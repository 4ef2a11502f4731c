#ifndef MDJOIN_EXPR_COMPILE_H_
#define MDJOIN_EXPR_COMPILE_H_

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
/// A CompiledExpr is a cheap, copyable handle on one shared, verified
/// bytecode program (expr/bytecode.h) and its static result type. The
/// bytecode interpreter is the only runtime evaluator; the independent
/// oracle it is checked against is the Definition-3.1 reference's AST
/// interpreter (core/reference.h).
class CompiledExpr {
 public:
  CompiledExpr() = default;

  /// Evaluates against `ctx`. Predicates return Int64 0/1.
  Value Eval(const RowCtx& ctx) const { return program_->Eval(ctx); }

  /// Convenience for predicates.
  bool EvalBool(const RowCtx& ctx) const { return Eval(ctx).IsTruthy(); }

  /// Static result type inferred at compile time.
  DataType result_type() const { return program_->result_type(); }

  bool valid() const { return program_ != nullptr; }

 private:
  friend Result<CompiledExpr> CompileExpr(const ExprPtr&, const Schema*, const Schema*);

  std::shared_ptr<const BytecodeExpr> program_;
};

/// Resolves `expr` against the given schemas and verifies the program
/// (expr/verifier.h). Pass nullptr for a side the expression must not
/// reference (a base-side reference with a null base schema is a bind
/// error). A program the verifier rejects is an emitter bug and comes back
/// as the verifier's error status.
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
