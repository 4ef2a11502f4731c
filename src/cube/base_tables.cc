#include "cube/base_tables.h"

#include <map>

#include "table/table_ops.h"

namespace mdjoin {

namespace {

/// Schema of a base table over `dims`, typed from `t`.
Result<Schema> BaseSchema(const Table& t, const std::vector<std::string>& dims) {
  std::vector<Field> fields;
  fields.reserve(dims.size());
  for (const std::string& d : dims) {
    MDJ_ASSIGN_OR_RETURN(int idx, t.schema().GetFieldIndex(d));
    fields.push_back(t.schema().field(idx));
  }
  return Schema(std::move(fields));
}

/// A base table under construction: one Value column per dimension.
struct BaseColumns {
  std::vector<std::vector<Value>> columns;
  int64_t num_rows = 0;

  explicit BaseColumns(size_t num_dims) : columns(num_dims) {}

  Table Finish(Schema schema) && {
    return Table::FromColumns(std::move(schema), std::move(columns), num_rows);
  }
};

/// Appends the `mask` cuboid of `t` to `out`: t's distinct keys over the
/// masked dims, in first-occurrence order, with ALL in the other positions.
Status AppendCuboid(const Table& t, const std::vector<std::string>& dims,
                    CuboidMask mask, BaseColumns* out) {
  std::vector<int> src(dims.size(), -1);  // t's column feeding each dim
  std::vector<int> cols;
  for (size_t i = 0; i < dims.size(); ++i) {
    if (mask & (CuboidMask{1} << i)) {
      MDJ_ASSIGN_OR_RETURN(src[i], t.schema().GetFieldIndex(dims[i]));
      cols.push_back(src[i]);
    }
  }
  const std::vector<int64_t> rows = DistinctRowIndices(t, cols);
  for (size_t i = 0; i < dims.size(); ++i) {
    std::vector<Value>& column = out->columns[i];
    if (src[i] < 0) {
      column.insert(column.end(), rows.size(), Value::All());
      continue;
    }
    const std::vector<Value>& cells = t.column(src[i]);
    for (int64_t r : rows) column.push_back(cells[static_cast<size_t>(r)]);
  }
  out->num_rows += static_cast<int64_t>(rows.size());
  return Status::OK();
}

}  // namespace

Result<Table> GroupByBase(const Table& t, const std::vector<std::string>& dims) {
  return DistinctOn(t, dims);
}

Result<Table> CuboidBase(const Table& t, const CubeLattice& lattice, CuboidMask mask) {
  MDJ_ASSIGN_OR_RETURN(Schema schema, BaseSchema(t, lattice.dims()));
  BaseColumns out(lattice.dims().size());
  MDJ_RETURN_NOT_OK(AppendCuboid(t, lattice.dims(), mask, &out));
  return std::move(out).Finish(std::move(schema));
}

// The cube builders take one distinct pass over R, for the finest cuboid,
// and derive every coarser cuboid from that (Gray et al.: compute a cuboid
// from a parent). Rows and order match a scan of R per cuboid: the first R
// row with a given coarse key also carries the first occurrence of its full
// key, so the finest cuboid meets the coarse keys in R's order, each
// represented by the same R row.

Result<Table> CubeByBase(const Table& t, const std::vector<std::string>& dims) {
  MDJ_ASSIGN_OR_RETURN(CubeLattice lattice, CubeLattice::Make(dims));
  MDJ_ASSIGN_OR_RETURN(Table finest, GroupByBase(t, dims));
  BaseColumns out(dims.size());
  // Full cuboid first, then coarser ones, grand total last — the natural
  // reading order of Figure 1(a).
  for (int level = lattice.num_dims(); level >= 0; --level) {
    for (CuboidMask mask : lattice.CuboidsAtLevel(level)) {
      MDJ_RETURN_NOT_OK(AppendCuboid(finest, dims, mask, &out));
    }
  }
  return std::move(out).Finish(finest.schema());
}

Result<Table> RollupBase(const Table& t, const std::vector<std::string>& dims) {
  MDJ_ASSIGN_OR_RETURN(Table finest, GroupByBase(t, dims));
  BaseColumns out(dims.size());
  // Prefix masks: full, drop last dim, ..., grand total.
  for (int k = static_cast<int>(dims.size()); k >= 0; --k) {
    CuboidMask mask = (CuboidMask{1} << k) - 1;
    MDJ_RETURN_NOT_OK(AppendCuboid(finest, dims, mask, &out));
  }
  return std::move(out).Finish(finest.schema());
}

Result<Table> GroupingSetsBase(const Table& t, const std::vector<std::string>& dims,
                               const std::vector<std::vector<std::string>>& sets) {
  MDJ_ASSIGN_OR_RETURN(Table finest, GroupByBase(t, dims));
  BaseColumns out(dims.size());
  for (const std::vector<std::string>& set : sets) {
    CuboidMask mask = 0;
    for (const std::string& attr : set) {
      bool found = false;
      for (size_t i = 0; i < dims.size(); ++i) {
        if (dims[i] == attr) {
          mask |= CuboidMask{1} << i;
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument("grouping set attribute '", attr,
                                       "' is not among the declared dimensions");
      }
    }
    MDJ_RETURN_NOT_OK(AppendCuboid(finest, dims, mask, &out));
  }
  return std::move(out).Finish(finest.schema());
}

Result<Table> UnpivotBase(const Table& t, const std::vector<std::string>& dims) {
  std::vector<std::vector<std::string>> sets;
  sets.reserve(dims.size());
  for (const std::string& d : dims) sets.push_back({d});
  return GroupingSetsBase(t, dims, sets);
}

Result<CuboidMask> RowCuboid(const Table& base, const CubeLattice& lattice, int64_t row) {
  CuboidMask mask = 0;
  for (int i = 0; i < lattice.num_dims(); ++i) {
    MDJ_ASSIGN_OR_RETURN(int idx,
                         base.schema().GetFieldIndex(lattice.dims()[static_cast<size_t>(i)]));
    if (!base.Get(row, idx).is_all()) mask |= CuboidMask{1} << i;
  }
  return mask;
}

Result<std::vector<CuboidPartition>> PartitionByCuboid(const Table& base,
                                                       const CubeLattice& lattice) {
  std::map<CuboidMask, Table> pieces;
  for (int64_t r = 0; r < base.num_rows(); ++r) {
    MDJ_ASSIGN_OR_RETURN(CuboidMask mask, RowCuboid(base, lattice, r));
    auto it = pieces.find(mask);
    if (it == pieces.end()) {
      it = pieces.emplace(mask, Table(base.schema())).first;
    }
    it->second.AppendRowFrom(base, r);
  }
  std::vector<CuboidPartition> out;
  out.reserve(pieces.size());
  for (auto& [mask, table] : pieces) {
    out.push_back(CuboidPartition{mask, std::move(table)});
  }
  return out;
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
