#ifndef MDJOIN_CUBE_LATTICE_H_
#define MDJOIN_CUBE_LATTICE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace mdjoin {

/// A cuboid of a d-dimensional data cube, identified by the subset of
/// dimensions it groups on: bit i set means dims[i] is grouped, bit i clear
/// means dims[i] is rolled up to ALL. The full cuboid is (2^d)-1; the grand
/// total is 0.
using CuboidMask = uint32_t;

/// Bits in a CuboidMask: the most dimensions a mask can tell apart. A
/// grouping-sets base over more dimensions may only group all of them, which
/// the all-ones mask stands for (a GROUP BY over a wide attribute list).
constexpr size_t kMaxMaskDims = 32;

/// The mask grouping the first `num_dims` dimensions; from kMaxMaskDims on,
/// the all-ones mask, which groups every dimension.
inline CuboidMask PrefixMask(size_t num_dims) {
  return num_dims >= kMaxMaskDims ? ~CuboidMask{0}
                                  : (CuboidMask{1} << num_dims) - 1;
}

/// Whether `mask` groups dimension `i`: bit i, or for i >= kMaxMaskDims
/// whether `mask` is the all-ones mask.
inline bool GroupsDim(CuboidMask mask, size_t i) {
  return i < kMaxMaskDims ? ((mask >> i) & 1u) != 0 : mask == ~CuboidMask{0};
}

/// OK when `dims` holds distinct names and every mask groups only those
/// dimensions, and only the all-ones mask when there are more than
/// kMaxMaskDims of them: the shape check of a grouping-sets base.
Status ValidateGroupingSets(const std::vector<std::string>& dims,
                            const std::vector<CuboidMask>& masks);

/// The search lattice of a data cube over named dimensions (paper §4.4).
/// Purely structural: enumeration, parent/child tests, pretty names. Limited
/// to 20 dimensions (2^20 cuboids) — far beyond practical cube widths.
class CubeLattice {
 public:
  static Result<CubeLattice> Make(std::vector<std::string> dims);

  int num_dims() const { return static_cast<int>(dims_.size()); }
  const std::vector<std::string>& dims() const { return dims_; }

  CuboidMask full_cuboid() const { return (CuboidMask{1} << num_dims()) - 1; }

  /// All 2^d cuboid masks, grand total first, full cuboid last.
  std::vector<CuboidMask> AllCuboids() const;

  /// All 2^d cuboid masks in CUBE BY order: full cuboid first, then level
  /// by level, grand total last (the reading order of Figure 1(a)).
  std::vector<CuboidMask> CubeOrder() const;

  /// Cuboids grouping exactly `level` dimensions.
  std::vector<CuboidMask> CuboidsAtLevel(int level) const;

  /// Dimension names grouped by `mask`, in dims() order.
  std::vector<std::string> CuboidAttrs(CuboidMask mask) const;

  static int Level(CuboidMask mask);

  /// True if `parent` has exactly one more grouped dimension than `child`
  /// and contains it (a lattice edge: child is a roll-up of parent).
  static bool IsParent(CuboidMask parent, CuboidMask child);

  /// All direct parents of `child` within this lattice.
  std::vector<CuboidMask> ParentsOf(CuboidMask child) const;

  /// "(prod, ALL, state)"-style label for diagnostics.
  std::string CuboidName(CuboidMask mask) const;

 private:
  explicit CubeLattice(std::vector<std::string> dims) : dims_(std::move(dims)) {}

  std::vector<std::string> dims_;
};

}  // namespace mdjoin

#endif  // MDJOIN_CUBE_LATTICE_H_
