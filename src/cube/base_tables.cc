#include "cube/base_tables.h"

#include "table/table_ops.h"

namespace mdjoin {

namespace {

/// Appends rows `rows` of `t` to `columns` as the `mask` cuboid: dimension
/// i reads t's column dim_cols[i] where the mask groups it, ALL elsewhere.
void AppendCuboid(const Table& t, const std::vector<int>& dim_cols, CuboidMask mask,
                  const std::vector<int64_t>& rows,
                  std::vector<std::vector<Value>>* columns) {
  for (size_t i = 0; i < dim_cols.size(); ++i) {
    std::vector<Value>& column = (*columns)[i];
    if (!GroupsDim(mask, i)) {
      column.insert(column.end(), rows.size(), Value::All());
      continue;
    }
    const std::vector<Value>& cells = t.column(dim_cols[i]);
    for (int64_t r : rows) column.push_back(cells[static_cast<size_t>(r)]);
  }
}

}  // namespace

// When the masks share dims (their key widths sum to more than the finest
// cuboid's: a cube, a rollup), one distinct pass over R for the finest
// cuboid the masks need, kept as row indices, and every other cuboid a
// distinct pass over just those rows (Gray et al.: compute a cuboid from a
// parent). Rows and order match a scan of R per cuboid: the first R row
// with a given coarse key also carries the first occurrence of its finer
// key, so the finest rows meet the coarse keys in R's order, each
// represented by the same R row. When they share none (unpivot, disjoint
// grouping sets) that pass would hash every key cell of R anyway, into a
// larger table, so each cuboid scans R itself. Either way only each
// cuboid's own rows are copied.
Result<Table> GroupingSetsBase(const Table& t, const std::vector<std::string>& dims,
                               const std::vector<CuboidMask>& masks) {
  MDJ_RETURN_NOT_OK(ValidateGroupingSets(dims, masks));
  if (masks.size() == 1 && masks[0] == PrefixMask(dims.size())) {
    return DistinctOn(t, dims);  // GROUP BY: keeps t's typed mirror
  }
  MDJ_ASSIGN_OR_RETURN(std::vector<int> dim_cols, ResolveColumns(t.schema(), dims));
  std::vector<Field> fields;
  for (int c : dim_cols) fields.push_back(t.schema().field(c));
  auto cols_of = [&](CuboidMask mask) {
    std::vector<int> cols;
    for (size_t i = 0; i < dims.size(); ++i) {
      if (GroupsDim(mask, i)) cols.push_back(dim_cols[i]);
    }
    return cols;
  };
  CuboidMask grouped = 0;
  size_t key_width = 0;
  for (CuboidMask mask : masks) {
    grouped |= mask;
    key_width += cols_of(mask).size();
  }
  const std::vector<int> finest_cols = cols_of(grouped);
  const bool derive = key_width > finest_cols.size();
  const std::vector<int64_t> finest =
      derive ? DistinctRowIndices(t, finest_cols) : std::vector<int64_t>{};
  std::vector<std::vector<Value>> columns(dims.size());
  int64_t num_rows = 0;
  for (CuboidMask mask : masks) {
    const std::vector<int64_t> rows =
        derive && mask == grouped
            ? finest
            : DistinctRowIndices(t, cols_of(mask), derive ? &finest : nullptr);
    AppendCuboid(t, dim_cols, mask, rows, &columns);
    num_rows += static_cast<int64_t>(rows.size());
  }
  return Table::FromColumns(Schema(std::move(fields)), std::move(columns), num_rows);
}

Result<Table> GroupByBase(const Table& t, const std::vector<std::string>& dims) {
  return GroupingSetsBase(t, dims, {PrefixMask(dims.size())});
}

Result<Table> CubeByBase(const Table& t, const std::vector<std::string>& dims) {
  MDJ_ASSIGN_OR_RETURN(CubeLattice lattice, CubeLattice::Make(dims));
  return GroupingSetsBase(t, dims, lattice.CubeOrder());
}

Result<Table> WidenGroupedToCube(const Table& grouped,
                                 const std::vector<std::string>& dims, CuboidMask mask,
                                 const Schema& cube_schema) {
  Table out{cube_schema};
  out.Reserve(grouped.num_rows());
  std::vector<int> dim_src(dims.size(), -1);  // grouped column feeding each dim
  int key_columns = 0;
  for (size_t i = 0; i < dims.size(); ++i) {
    if (mask & (CuboidMask{1} << i)) {
      MDJ_ASSIGN_OR_RETURN(dim_src[i], grouped.schema().GetFieldIndex(dims[i]));
      ++key_columns;
    }
  }
  const int agg_columns = grouped.num_columns() - key_columns;
  if (agg_columns < 0 ||
      cube_schema.num_fields() != static_cast<int>(dims.size()) + agg_columns) {
    return Status::InvalidArgument("WidenGroupedToCube: schema arity mismatch");
  }
  for (int64_t r = 0; r < grouped.num_rows(); ++r) {
    std::vector<Value> row;
    row.reserve(static_cast<size_t>(cube_schema.num_fields()));
    for (size_t i = 0; i < dims.size(); ++i) {
      row.push_back(dim_src[i] < 0 ? Value::All() : grouped.Get(r, dim_src[i]));
    }
    for (int c = 0; c < agg_columns; ++c) row.push_back(grouped.Get(r, key_columns + c));
    out.AppendRowUnchecked(std::move(row));
  }
  return out;
}

}  // namespace mdjoin
