#include "ra/filter.h"

#include <algorithm>

#include "expr/compile.h"
#include "expr/conjuncts.h"
#include "expr/kernels.h"
#include "table/table_ops.h"

namespace mdjoin {

Result<Table> Filter(const Table& t, const ExprPtr& predicate) {
  // Compiling the whole predicate checks it as one expression; the rows are
  // then selected block at a time by the detail scan's predicate kernels
  // (typed-mirror SIMD compares where they apply, bytecode per row
  // otherwise) and gathered column-wise, so the output keeps the mirror.
  MDJ_RETURN_NOT_OK(CompileExpr(predicate, t.schema()).status());
  MDJ_ASSIGN_OR_RETURN(simd::Level level, simd::ResolveBackend(simd::Backend::kAuto));
  MDJ_ASSIGN_OR_RETURN(PredicateKernels kernels,
                       PredicateKernels::Compile(SplitConjuncts(predicate), t.schema(),
                                                 t.accel(), level));
  constexpr int kBlock = 1024;
  std::vector<uint32_t> sel(kBlock);
  std::vector<uint64_t> mask(2 * static_cast<size_t>(simd::MaskWords(kBlock)));
  KernelStats stats;
  std::vector<int64_t> rows;
  for (int64_t start = 0; start < t.num_rows(); start += kBlock) {
    const int n = static_cast<int>(std::min<int64_t>(kBlock, t.num_rows() - start));
    const BlockFilter f =
        kernels.FilterBlock(t, start, n, sel.data(), mask.data(), &stats);
    for (int i = 0; i < f.count; ++i) {
      rows.push_back(start + (f.dense ? i : static_cast<int>(sel[static_cast<size_t>(i)])));
    }
  }
  return TakeRows(t, rows);
}

}  // namespace mdjoin
