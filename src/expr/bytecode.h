#ifndef MDJOIN_EXPR_BYTECODE_H_
#define MDJOIN_EXPR_BYTECODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "expr/expr.h"
#include "expr/row_ctx.h"
#include "types/schema.h"
#include "types/value.h"

namespace mdjoin {

/// An expression compiled to a flat postfix program: one contiguous Instr
/// array evaluated by a tight dispatch loop over a value stack. This is the
/// only runtime form of an expression — CompileExpr (expr/compile.h) emits,
/// types and verifies it in one pass, and the comparison and arithmetic
/// operators route through expr/eval_ops.h. The whole program is one
/// cache-resident array walked with a program counter; the Definition-3.1
/// reference (core/reference.h) interprets the AST independently and the fuzz
/// suites check the two against each other.
///
/// Instruction set (stack effect in brackets):
///
///   kPushLit a          [ → v ]        push literals[a]
///   kPushNull           [ → v ]        push NULL (CASE without ELSE)
///   kLoadBase a         [ → v ]        push base cell, column a
///   kLoadDetail a       [ → v ]        push detail cell, column a
///   kNot                [ v → b ]      NULL → false, else !truthy
///   kNegate             [ v → v ]      -int / -float, else NULL
///   kIsNull             [ v → b ]      Bool(v is NULL)
///   kIn a               [ v → b ]      v MatchesEq any of in_lists[a]
///   kCompare u8         [ a b → v ]    EvalCompare(BinaryOp(u8), a, b)
///   kArith u8           [ a b → v ]    EvalArith(BinaryOp(u8), a, b)
///   kAndJump a          [ v → b? ]     top falsy: top := false, jump a;
///                                      else pop and fall through (short-
///                                      circuit AND; jump lands past the
///                                      right operand's trailing kToBool)
///   kOrJump a           [ v → b? ]     top truthy: top := true, jump a
///   kToBool             [ v → b ]      Bool(truthy) — AND/OR result shaping
///   kJump a             [ ]            pc := a (end of a taken CASE arm)
///   kJumpIfNotTruthy a  [ v → ]        pop; falsy: pc := a (next CASE arm)
///
/// Jump operands are absolute instruction indices. Programs always leave
/// exactly one value on the stack.
class BytecodeExpr {
 public:
  enum class OpCode : uint8_t {
    kPushLit,
    kPushNull,
    kLoadBase,
    kLoadDetail,
    kNot,
    kNegate,
    kIsNull,
    kIn,
    kCompare,
    kArith,
    kAndJump,
    kOrJump,
    kToBool,
    kJump,
    kJumpIfNotTruthy,
  };

  struct Instr {
    OpCode op;
    uint8_t u8 = 0;  // kCompare / kArith: the BinaryOp
    int32_t a = 0;   // literal / list / column index, or jump target
  };

  /// Binds `expr` against the schemas, infers its result type and emits the
  /// program, in one pass. Unverified: CompileExpr runs the result through
  /// VerifyBytecode before anything evaluates it.
  static Result<BytecodeExpr> Compile(const ExprPtr& expr, const Schema* base_schema,
                                      const Schema* detail_schema);

  Value Eval(const RowCtx& ctx) const;

  /// Static result type inferred by the emitter. Predicates are kInt64 0/1.
  DataType result_type() const { return result_type_; }

  int num_instrs() const { return static_cast<int>(code_.size()); }

  /// Read-only views for the verifier (expr/verifier.h) and disassemblers.
  const std::vector<Instr>& code() const { return code_; }
  const std::vector<Value>& literals() const { return literals_; }
  const std::vector<std::vector<Value>>& in_lists() const { return in_lists_; }

  /// Assembles a program from raw parts, bypassing the emitter. Testing hook:
  /// the verifier's mutated-bytecode corpus needs programs the emitter would
  /// never produce (wild jumps, underflows, bad indices). Not validated —
  /// run the result through VerifyBytecode before Eval.
  static BytecodeExpr FromParts(std::vector<Instr> code, std::vector<Value> literals,
                                std::vector<std::vector<Value>> in_lists);

  /// One-instruction-per-line disassembly, for debugging and EXPLAIN output.
  std::string ToString() const;

 private:
  std::vector<Instr> code_;
  std::vector<Value> literals_;
  std::vector<std::vector<Value>> in_lists_;
  DataType result_type_ = DataType::kInt64;
};

}  // namespace mdjoin

#endif  // MDJOIN_EXPR_BYTECODE_H_
