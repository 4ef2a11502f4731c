#ifndef MDJOIN_TABLE_TABLE_ACCEL_H_
#define MDJOIN_TABLE_TABLE_ACCEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "table/dictionary.h"
#include "table/table.h"

namespace mdjoin {

/// Typed mirror of one Table column for the SIMD kernels. Table cells are
/// Value variants — great for NULL/ALL/mixed-type generality, hostile to
/// vector units. A FlatColumn unpacks a column into a contiguous primitive
/// array plus a null bytemap when (and only when) every cell is one storage
/// type or NULL:
///
///   kInt64   — all cells int64/NULL;  payload in `i64` (null slots hold 0)
///   kFloat64 — all cells float64/NULL; payload in `f64`
///   kDict    — all cells string/NULL; payload in `codes` against a sorted
///              Dictionary (null slots hold -1), so θ string tests run as
///              int32 compares and strings are only decoded at output
///   kNone    — ALL cells, mixed types, or empty: engines use the Value path
///
/// ALL never flattens by design: it appears in base-values tables, and the
/// accelerator serves the detail side of scans.
struct FlatColumn {
  enum class Rep { kNone, kInt64, kFloat64, kDict };

  Rep rep = Rep::kNone;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<int32_t> codes;
  std::vector<uint8_t> nulls;  // 0/1 per row; empty when has_nulls is false
  bool has_nulls = false;
  std::shared_ptr<const Dictionary> dict;

  /// Null bytemap for the SIMD mask helpers, nullptr when the column is
  /// null-free (kernels then skip the mask pass entirely).
  const uint8_t* null_bytes() const { return has_nulls ? nulls.data() : nullptr; }

  bool flat() const { return rep != Rep::kNone; }
};

/// Immutable per-table bundle of FlatColumns, cached on the Table behind a
/// shared_ptr. Loaded tables build it once (TableBuilder::Finish, the CSV
/// loader); the column-wise operators (table_ops.h GatherColumns: filter,
/// distinct, sort, column projection) gather it alongside the cells, so
/// their outputs stay SIMD-ready. Tables assembled row by row have none and
/// scan through the Value path; every Table row mutator drops the cache so a
/// stale mirror can never be read.
struct TableAccel {
  std::vector<FlatColumn> cols;
  int64_t num_rows = 0;

  static std::shared_ptr<const TableAccel> Build(const Table& table);

  /// The mirror of GatherColumns(t, cols, ..., rows) when `src` mirrors t:
  /// column i mirrors src column cols[i], restricted to `rows` in that
  /// order (every row when `rows` is null). Payloads are copied,
  /// dictionaries shared; an empty result has only kNone columns, as Build
  /// gives, and the null bytemap is kept only if a gathered row is NULL.
  static std::shared_ptr<const TableAccel> Gather(const TableAccel& src,
                                                  const std::vector<int>& cols,
                                                  const std::vector<int64_t>* rows);

  /// Bytes of the payload arrays (i64, f64, codes, nulls). Dictionaries are
  /// shared between a table and the tables gathered from it, so they are
  /// not counted here.
  int64_t ApproxBytes() const;
};

}  // namespace mdjoin

#endif  // MDJOIN_TABLE_TABLE_ACCEL_H_
