#ifndef MDJOIN_EXPR_ROW_CTX_H_
#define MDJOIN_EXPR_ROW_CTX_H_

#include <cstdint>

namespace mdjoin {

class Table;

/// Evaluation context: a (base row, detail row) pair. Single-table evaluation
/// leaves the unused side null. Lives in its own header so the bytecode
/// interpreter (expr/bytecode.h) and the reference interpreter
/// (core/reference.h) can name it without depending on each other.
struct RowCtx {
  const Table* base = nullptr;
  int64_t base_row = 0;
  const Table* detail = nullptr;
  int64_t detail_row = 0;
};

}  // namespace mdjoin

#endif  // MDJOIN_EXPR_ROW_CTX_H_
