#ifndef MDJOIN_CUBE_BASE_TABLES_H_
#define MDJOIN_CUBE_BASE_TABLES_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "cube/lattice.h"
#include "table/table.h"

namespace mdjoin {

/// Generators for base-values relations (the B operand of an MD-join). This
/// is the paper's central decoupling: the *same* MD-join aggregates any of
/// these — a plain group-by list, a full data cube, a rollup hierarchy,
/// user-chosen grouping sets, unpivot marginals, or an arbitrary user table
/// of interesting points (Example 2.4, which needs no generator at all).
/// All outputs have schema = the dimension columns (types taken from `t`),
/// with the ALL marker filling rolled-up positions.

/// GROUPING SETS over `dims`, the one builder behind every generator: for
/// each mask in order (repeats kept), the distinct combinations of the dims
/// it groups, in first-occurrence order, with ALL in the other positions.
/// GROUP BY is the single full mask, CUBE BY all 2^d masks
/// (CubeLattice::CubeOrder), ROLLUP the prefix masks, UNPIVOT [GFC98] one
/// single-dimension mask per dimension. When the masks share dims, takes
/// one distinct pass over the dims they group and derives each other
/// cuboid from the rows it keeps; otherwise scans t once per mask. Copies
/// only each cuboid's own rows; for exactly the full mask the distinct
/// pass is the result, typed mirror included.
Result<Table> GroupingSetsBase(const Table& t, const std::vector<std::string>& dims,
                               const std::vector<CuboidMask>& masks);

/// select distinct dims from t — the GROUP BY base values.
Result<Table> GroupByBase(const Table& t, const std::vector<std::string>& dims);

/// CUBE BY dims (Example 2.1): the union of all 2^d cuboids, full first.
Result<Table> CubeByBase(const Table& t, const std::vector<std::string>& dims);

/// Widens a grouped result whose key columns are (a permutation of) the
/// `mask` attributes of `dims` to the full cube schema `cube_schema`
/// ([dims..., aggregate columns...]), writing ALL in rolled-up positions.
/// Key columns are located by name; the remaining columns are copied in
/// order. Shared by the PIPESORT executor and subcube materialization.
Result<Table> WidenGroupedToCube(const Table& grouped,
                                 const std::vector<std::string>& dims, CuboidMask mask,
                                 const Schema& cube_schema);

}  // namespace mdjoin

#endif  // MDJOIN_CUBE_BASE_TABLES_H_
