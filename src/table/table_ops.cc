#include "table/table_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "table/table_accel.h"

namespace mdjoin {

std::vector<int64_t> SortedRowIndices(const Table& t, const std::vector<SortKey>& keys) {
  std::vector<int64_t> idx(static_cast<size_t>(t.num_rows()));
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](int64_t a, int64_t b) {
    for (const SortKey& k : keys) {
      int c = t.Get(a, k.column).Compare(t.Get(b, k.column));
      if (c != 0) return k.ascending ? c < 0 : c > 0;
    }
    return false;
  });
  return idx;
}

Table SortTable(const Table& t, const std::vector<SortKey>& keys) {
  return TakeRows(t, SortedRowIndices(t, keys));
}

Result<Table> SortTableBy(const Table& t, const std::vector<std::string>& columns) {
  MDJ_ASSIGN_OR_RETURN(std::vector<int> cols, ResolveColumns(t.schema(), columns));
  std::vector<SortKey> keys;
  keys.reserve(cols.size());
  for (int c : cols) keys.push_back({c, /*ascending=*/true});
  return SortTable(t, keys);
}

namespace {

std::vector<int> AllColumns(const Table& t) {
  std::vector<int> cols(static_cast<size_t>(t.num_columns()));
  std::iota(cols.begin(), cols.end(), 0);
  return cols;
}

inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// One key column as DistinctRowIndices reads it. Equality within a column
/// is Value::Equals: a flat column holds one storage type, so int64 and
/// dictionary-code payloads compare exactly (dictionary NULL slots hold code
/// -1), and float64 payloads compare by IEEE ==, which makes -0 equal +0 and
/// NaN equal to nothing. Null slots of int64/float64 payloads hold 0, so the
/// null byte joins the comparison. Equal keys hash alike.
struct KeyColumn {
  FlatColumn::Rep rep = FlatColumn::Rep::kNone;
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const int32_t* codes = nullptr;
  const uint8_t* nulls = nullptr;  // null when the column holds no NULL
  const Value* cells = nullptr;

  bool IsNull(int64_t r) const { return nulls != nullptr && nulls[r] != 0; }

  /// Mixes this column's hashes of rows row_at(0), ..., row_at(n - 1) into `h`.
  template <typename RowAt>
  void MixHashes(RowAt row_at, int64_t n, uint64_t* h) const {
    auto mix = [&](auto&& hash_of) {
      for (int64_t i = 0; i < n; ++i) h[i] = Mix64(h[i] ^ hash_of(row_at(i)));
    };
    switch (rep) {
      case FlatColumn::Rep::kInt64:
        return mix([&](int64_t r) {
          return IsNull(r) ? uint64_t{1} : static_cast<uint64_t>(i64[r]);
        });
      case FlatColumn::Rep::kFloat64:
        return mix([&](int64_t r) {
          if (IsNull(r)) return uint64_t{1};
          const double d = f64[r] == 0.0 ? 0.0 : f64[r];  // -0 hashes as +0
          uint64_t bits;
          std::memcpy(&bits, &d, sizeof(bits));
          return bits;
        });
      case FlatColumn::Rep::kDict:
        return mix([&](int64_t r) { return static_cast<uint64_t>(int64_t{codes[r]}); });
      case FlatColumn::Rep::kNone:
        return mix([&](int64_t r) { return static_cast<uint64_t>(cells[r].Hash()); });
    }
  }

  bool Equal(int64_t a, int64_t b) const {
    switch (rep) {
      case FlatColumn::Rep::kInt64:
        return i64[a] == i64[b] && IsNull(a) == IsNull(b);
      case FlatColumn::Rep::kFloat64:
        return f64[a] == f64[b] && IsNull(a) == IsNull(b);
      case FlatColumn::Rep::kDict:
        return codes[a] == codes[b];
      case FlatColumn::Rep::kNone:
        break;
    }
    return cells[a].Equals(cells[b]);
  }
};

/// The distinct-key kernel over the `n` rows row_at(0), ..., row_at(n - 1).
template <typename RowAt>
std::vector<int64_t> DistinctRows(const Table& t, const std::vector<int>& cols, int64_t n,
                                  RowAt row_at) {
  std::vector<KeyColumn> keys(cols.size());
  for (size_t k = 0; k < cols.size(); ++k) {
    KeyColumn& key = keys[k];
    const int c = cols[k];
    key.cells = t.column(c).data();
    if (t.accel() == nullptr) continue;
    const FlatColumn& fc = t.accel()->cols[static_cast<size_t>(c)];
    key.rep = fc.rep;
    key.i64 = fc.i64.data();
    key.f64 = fc.f64.data();
    key.codes = fc.codes.data();
    key.nulls = fc.null_bytes();
  }
  auto rows_equal = [&](int64_t a, int64_t b) {
    for (const KeyColumn& key : keys) {
      if (!key.Equal(a, b)) return false;
    }
    return true;
  };

  // Open-addressing set of kept row indices, each slot with its row's hash.
  // A row is kept iff no kept row is equal to it, so the first occurrence
  // of every key survives, in R's order.
  std::vector<int64_t> kept;
  std::vector<int64_t> slot_row(1024, -1);
  std::vector<uint64_t> slot_hash(slot_row.size());
  uint64_t mask = slot_row.size() - 1;
  auto insert_slot = [&](int64_t row, uint64_t h) {
    uint64_t i = h & mask;
    while (slot_row[i] >= 0) i = (i + 1) & mask;
    slot_row[i] = row;
    slot_hash[i] = h;
  };

  // Hashes are built a block at a time, one key column after another.
  constexpr int64_t kBlock = 1024;
  std::vector<uint64_t> hashes(static_cast<size_t>(kBlock));
  for (int64_t start = 0; start < n; start += kBlock) {
    const int64_t block = std::min(kBlock, n - start);
    auto block_row = [&](int64_t i) { return row_at(start + i); };
    std::fill(hashes.begin(), hashes.begin() + block, 0x9e3779b97f4a7c15ULL);
    for (const KeyColumn& key : keys) key.MixHashes(block_row, block, hashes.data());
    for (int64_t i = 0; i < block; ++i) {
      const int64_t row = block_row(i);
      const uint64_t h = hashes[i];
      bool found = false;
      for (uint64_t s = h & mask; slot_row[s] >= 0; s = (s + 1) & mask) {
        if (slot_hash[s] == h && rows_equal(slot_row[s], row)) {
          found = true;
          break;
        }
      }
      if (found) continue;
      kept.push_back(row);
      if (2 * kept.size() > slot_row.size()) {
        const size_t grown = slot_row.size() * 2;
        std::vector<int64_t> old_rows =
            std::exchange(slot_row, std::vector<int64_t>(grown, -1));
        std::vector<uint64_t> old_hashes =
            std::exchange(slot_hash, std::vector<uint64_t>(grown));
        mask = grown - 1;
        for (size_t s = 0; s < old_rows.size(); ++s) {
          if (old_rows[s] >= 0) insert_slot(old_rows[s], old_hashes[s]);
        }
      }
      insert_slot(row, h);
    }
  }
  return kept;
}

}  // namespace

std::vector<int64_t> DistinctRowIndices(const Table& t, const std::vector<int>& cols,
                                        const std::vector<int64_t>* rows) {
  if (rows == nullptr) {
    return DistinctRows(t, cols, t.num_rows(), [](int64_t i) { return i; });
  }
  const int64_t* subset = rows->data();
  return DistinctRows(t, cols, static_cast<int64_t>(rows->size()),
                      [subset](int64_t i) { return subset[i]; });
}

Table GatherColumns(const Table& t, const std::vector<int>& cols, std::vector<Field> fields,
                    const std::vector<int64_t>* rows) {
  const int64_t n = rows == nullptr ? t.num_rows() : static_cast<int64_t>(rows->size());
  std::vector<std::vector<Value>> columns(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    const std::vector<Value>& src = t.column(cols[i]);
    if (rows == nullptr) {
      columns[i] = src;
      continue;
    }
    columns[i].reserve(static_cast<size_t>(n));
    for (int64_t r : *rows) columns[i].push_back(src[static_cast<size_t>(r)]);
  }
  std::shared_ptr<const TableAccel> accel;
  if (t.accel() != nullptr) {
    bool identity = rows == nullptr && static_cast<int>(cols.size()) == t.num_columns();
    for (size_t i = 0; identity && i < cols.size(); ++i) {
      identity = cols[i] == static_cast<int>(i);
    }
    accel = identity ? t.accel() : TableAccel::Gather(*t.accel(), cols, rows);
  }
  return Table::FromColumns(Schema(std::move(fields)), std::move(columns), n,
                            std::move(accel));
}

Table Distinct(const Table& t) { return TakeRows(t, DistinctRowIndices(t, AllColumns(t))); }

Result<Table> DistinctOn(const Table& t, const std::vector<std::string>& columns) {
  MDJ_ASSIGN_OR_RETURN(std::vector<int> cols, ResolveColumns(t.schema(), columns));
  std::vector<Field> fields;
  fields.reserve(cols.size());
  for (int c : cols) fields.push_back(t.schema().field(c));
  const std::vector<int64_t> rows = DistinctRowIndices(t, cols);
  return GatherColumns(t, cols, std::move(fields), &rows);
}

Result<Table> Concat(const Table& a, const Table& b) {
  if (!a.schema().Equals(b.schema())) {
    return Status::InvalidArgument("Concat: schema mismatch [", a.schema().ToString(),
                                   "] vs [", b.schema().ToString(), "]");
  }
  Table out = a.Clone();
  for (int64_t r = 0; r < b.num_rows(); ++r) out.AppendRowFrom(b, r);
  return out;
}

Result<Table> ConcatAll(const std::vector<Table>& tables) {
  std::vector<const Table*> pointers;
  pointers.reserve(tables.size());
  for (const Table& t : tables) pointers.push_back(&t);
  return ConcatAll(pointers);
}

Result<Table> ConcatAll(const std::vector<const Table*>& tables) {
  if (tables.empty()) return Status::InvalidArgument("ConcatAll: no input tables");
  Table out(tables[0]->schema());
  for (size_t i = 0; i < tables.size(); ++i) {
    if (!tables[i]->schema().Equals(out.schema())) {
      return Status::InvalidArgument("ConcatAll: schema mismatch at table ", i);
    }
    for (int64_t r = 0; r < tables[i]->num_rows(); ++r) out.AppendRowFrom(*tables[i], r);
  }
  return out;
}

Table TakeRows(const Table& t, const std::vector<int64_t>& rows) {
  return GatherColumns(t, AllColumns(t), t.schema().fields(), &rows);
}

std::vector<Table> PartitionIntoN(const Table& t, int n) {
  MDJ_CHECK(n > 0);
  std::vector<Table> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(PartitionSlice(t, i, n));
  return out;
}

Table PartitionSlice(const Table& t, int index, int n) {
  MDJ_CHECK(n > 0 && index >= 0 && index < n);
  const int64_t base = t.num_rows() / n, extra = t.num_rows() % n;
  const int64_t start = index * base + std::min<int64_t>(index, extra);
  const int64_t len = base + (index < extra ? 1 : 0);
  Table piece(t.schema());
  piece.Reserve(len);
  for (int64_t r = start; r < start + len; ++r) piece.AppendRowFrom(t, r);
  return piece;
}

Result<std::vector<Table>> PartitionByColumns(const Table& t,
                                              const std::vector<std::string>& columns) {
  MDJ_ASSIGN_OR_RETURN(std::vector<int> cols, ResolveColumns(t.schema(), columns));
  std::unordered_map<RowKey, size_t, RowKeyHash, RowKeyEqual> group_of;
  std::vector<Table> out;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    RowKey key = t.GetRowKey(r, cols);
    auto [it, inserted] = group_of.try_emplace(std::move(key), out.size());
    if (inserted) out.emplace_back(t.schema());
    out[it->second].AppendRowFrom(t, r);
  }
  return out;
}

namespace {

bool SchemasCompatible(const Schema& a, const Schema& b) {
  if (a.num_fields() != b.num_fields()) return false;
  for (int i = 0; i < a.num_fields(); ++i) {
    // Numeric columns are interchangeable: an int64 SUM and the same SUM
    // computed as float64 must still compare equal row-wise.
    DataType ta = a.field(i).type, tb = b.field(i).type;
    if (ta != tb && !(IsNumeric(ta) && IsNumeric(tb))) return false;
  }
  return true;
}

}  // namespace

bool TablesEqualUnordered(const Table& a, const Table& b) {
  if (!SchemasCompatible(a.schema(), b.schema())) return false;
  if (a.num_rows() != b.num_rows()) return false;
  std::unordered_map<RowKey, int64_t, RowKeyHash, RowKeyEqual> counts;
  for (int64_t r = 0; r < a.num_rows(); ++r) ++counts[a.GetRow(r)];
  for (int64_t r = 0; r < b.num_rows(); ++r) {
    auto it = counts.find(b.GetRow(r));
    if (it == counts.end() || it->second == 0) return false;
    --it->second;
  }
  return true;
}

bool TablesEqualOrdered(const Table& a, const Table& b) {
  if (!a.schema().Equals(b.schema())) return false;
  if (a.num_rows() != b.num_rows()) return false;
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      if (!a.Get(r, c).Equals(b.Get(r, c))) return false;
    }
  }
  return true;
}

namespace {

bool CellsApproxEqual(const Value& a, const Value& b, double rel_tol) {
  if (a.is_float64() || b.is_float64()) {
    if (!a.is_numeric() || !b.is_numeric()) return a.Equals(b);
    double x = a.AsDouble(), y = b.AsDouble();
    if (x == y) return true;
    double scale = std::max(std::abs(x), std::abs(y));
    return std::abs(x - y) <= rel_tol * std::max(scale, 1.0);
  }
  return a.Equals(b);
}

bool RowsApproxEqual(const Table& a, int64_t ra, const Table& b, int64_t rb,
                     double rel_tol) {
  for (int c = 0; c < a.num_columns(); ++c) {
    if (!CellsApproxEqual(a.Get(ra, c), b.Get(rb, c), rel_tol)) return false;
  }
  return true;
}

std::vector<SortKey> AllColumnKeys(const Table& t) {
  std::vector<SortKey> keys;
  for (int c = 0; c < t.num_columns(); ++c) keys.push_back({c, true});
  return keys;
}

}  // namespace

bool TablesApproxEqualOrdered(const Table& a, const Table& b, double rel_tol) {
  if (a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows()) return false;
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    if (!RowsApproxEqual(a, r, b, r, rel_tol)) return false;
  }
  return true;
}

bool TablesApproxEqualUnordered(const Table& a, const Table& b, double rel_tol) {
  if (a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows()) return false;
  Table sa = SortTable(a, AllColumnKeys(a));
  Table sb = SortTable(b, AllColumnKeys(b));
  // Sorting may interleave rows whose float cells differ in the last ulps; a
  // bounded look-back window absorbs those local swaps.
  constexpr int64_t kWindow = 8;
  std::vector<bool> used(static_cast<size_t>(sb.num_rows()), false);
  for (int64_t r = 0; r < sa.num_rows(); ++r) {
    bool matched = false;
    for (int64_t w = std::max<int64_t>(0, r - kWindow);
         w < std::min(sb.num_rows(), r + kWindow + 1); ++w) {
      if (!used[static_cast<size_t>(w)] && RowsApproxEqual(sa, r, sb, w, rel_tol)) {
        used[static_cast<size_t>(w)] = true;
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

Result<std::vector<int>> ResolveColumns(const Schema& schema,
                                        const std::vector<std::string>& names) {
  std::vector<int> out;
  out.reserve(names.size());
  for (const auto& name : names) {
    MDJ_ASSIGN_OR_RETURN(int idx, schema.GetFieldIndex(name));
    out.push_back(idx);
  }
  return out;
}

Result<Table> RenameColumns(const Table& t, const std::vector<std::string>& from,
                            const std::vector<std::string>& to) {
  if (from.size() != to.size()) {
    return Status::InvalidArgument("RenameColumns: from/to size mismatch");
  }
  std::vector<Field> fields = t.schema().fields();
  for (size_t i = 0; i < from.size(); ++i) {
    MDJ_ASSIGN_OR_RETURN(int idx, t.schema().GetFieldIndex(from[i]));
    fields[idx].name = to[i];
  }
  return GatherColumns(t, AllColumns(t), std::move(fields));
}

Table PrefixColumns(const Table& t, const std::string& prefix) {
  std::vector<Field> fields = t.schema().fields();
  for (Field& f : fields) f.name = prefix + f.name;
  return GatherColumns(t, AllColumns(t), std::move(fields));
}

}  // namespace mdjoin
