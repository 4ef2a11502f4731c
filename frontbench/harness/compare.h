#ifndef FRONTBENCH_HARNESS_COMPARE_H_
#define FRONTBENCH_HARNESS_COMPARE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "table/table.h"

namespace frontbench {

/// Float cells match when |a − b| <= kRelTol · max(|a|, |b|) or
/// |a − b| <= kAbsTol. Optimized and unoptimized plans may sum the same
/// doubles in a different order; 1e-9 relative is far above that drift
/// (≤ 2e5 terms · 2^-52) and far below any real aggregation error.
constexpr double kRelTol = 1e-9;
constexpr double kAbsTol = 1e-12;

/// An expected result prepared once, outside any timed region, for
/// order-insensitive comparison: rows are compared after sorting both sides
/// by every cell (NULL < ALL < numbers < strings). Integer, string, NULL and
/// ALL cells must match exactly; float64 columns within the tolerance above.
class ExpectedTable {
 public:
  explicit ExpectedTable(mdjoin::Table table);

  const mdjoin::Table& table() const { return table_; }

  /// Empty when `got` matches; otherwise a description of the first
  /// mismatch found (schema, row count or cell).
  std::string Mismatch(const mdjoin::Table& got) const;

 private:
  mdjoin::Table table_;
  std::vector<int64_t> order_;  // canonical row order of table_
};

}  // namespace frontbench

#endif  // FRONTBENCH_HARNESS_COMPARE_H_
