#include "table/table_accel.h"

#include <algorithm>

namespace mdjoin {

namespace {

FlatColumn BuildColumn(const std::vector<Value>& cells) {
  FlatColumn out;
  const size_t n = cells.size();
  if (n == 0) return out;  // kNone: nothing to accelerate

  // One classification pass: the column flattens iff every cell shares one
  // storage type (or is NULL). A single ALL or mixed-type cell vetoes.
  bool any_int = false, any_float = false, any_string = false, any_null = false;
  for (const Value& v : cells) {
    if (v.is_null()) {
      any_null = true;
    } else if (v.is_int64()) {
      any_int = true;
    } else if (v.is_float64()) {
      any_float = true;
    } else if (v.is_string()) {
      any_string = true;
    } else {
      return out;  // ALL
    }
    if (static_cast<int>(any_int) + static_cast<int>(any_float) +
            static_cast<int>(any_string) >
        1) {
      return out;  // mixed types
    }
  }
  if (!any_int && !any_float && !any_string) return out;  // all NULL

  out.has_nulls = any_null;
  if (any_null) out.nulls.assign(n, 0);

  if (any_int) {
    out.rep = FlatColumn::Rep::kInt64;
    out.i64.resize(n);
    for (size_t i = 0; i < n; ++i) {
      if (cells[i].is_null()) {
        out.nulls[i] = 1;
        out.i64[i] = 0;
      } else {
        out.i64[i] = cells[i].int64();
      }
    }
  } else if (any_float) {
    out.rep = FlatColumn::Rep::kFloat64;
    out.f64.resize(n);
    for (size_t i = 0; i < n; ++i) {
      if (cells[i].is_null()) {
        out.nulls[i] = 1;
        out.f64[i] = 0.0;
      } else {
        out.f64[i] = cells[i].float64();
      }
    }
  } else {
    out.rep = FlatColumn::Rep::kDict;
    std::vector<std::string> values;
    values.reserve(n);
    for (const Value& v : cells) {
      if (!v.is_null()) values.push_back(v.string());
    }
    auto dict = std::make_shared<Dictionary>(Dictionary::Build(std::move(values)));
    out.codes.resize(n);
    for (size_t i = 0; i < n; ++i) {
      if (cells[i].is_null()) {
        out.nulls[i] = 1;
        out.codes[i] = -1;
      } else {
        out.codes[i] = dict->CodeOf(cells[i].string());
      }
    }
    out.dict = std::move(dict);
  }
  return out;
}

}  // namespace

std::shared_ptr<const TableAccel> TableAccel::Build(const Table& table) {
  auto accel = std::make_shared<TableAccel>();
  accel->num_rows = table.num_rows();
  accel->cols.reserve(static_cast<size_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    accel->cols.push_back(BuildColumn(table.column(c)));
  }
  return accel;
}

namespace {

template <typename T>
std::vector<T> TakeOrCopy(const std::vector<T>& src, const std::vector<int64_t>* rows) {
  if (rows == nullptr) return src;
  std::vector<T> out(rows->size());
  for (size_t i = 0; i < rows->size(); ++i) out[i] = src[static_cast<size_t>((*rows)[i])];
  return out;
}

FlatColumn GatherColumn(const FlatColumn& src, const std::vector<int64_t>* rows,
                        int64_t num_rows) {
  FlatColumn out;
  if (!src.flat() || num_rows == 0) return out;
  out.rep = src.rep;
  switch (src.rep) {
    case FlatColumn::Rep::kInt64:
      out.i64 = TakeOrCopy(src.i64, rows);
      break;
    case FlatColumn::Rep::kFloat64:
      out.f64 = TakeOrCopy(src.f64, rows);
      break;
    case FlatColumn::Rep::kDict:
      out.codes = TakeOrCopy(src.codes, rows);
      out.dict = src.dict;
      break;
    case FlatColumn::Rep::kNone:
      break;
  }
  if (src.has_nulls) {
    out.nulls = TakeOrCopy(src.nulls, rows);
    out.has_nulls = std::find(out.nulls.begin(), out.nulls.end(), 1) != out.nulls.end();
    if (!out.has_nulls) out.nulls = {};
  }
  return out;
}

}  // namespace

std::shared_ptr<const TableAccel> TableAccel::Gather(const TableAccel& src,
                                                     const std::vector<int>& cols,
                                                     const std::vector<int64_t>* rows) {
  auto accel = std::make_shared<TableAccel>();
  accel->num_rows = rows == nullptr ? src.num_rows : static_cast<int64_t>(rows->size());
  accel->cols.reserve(cols.size());
  for (int c : cols) {
    accel->cols.push_back(
        GatherColumn(src.cols[static_cast<size_t>(c)], rows, accel->num_rows));
  }
  return accel;
}

int64_t TableAccel::ApproxBytes() const {
  int64_t bytes = 0;
  for (const FlatColumn& col : cols) {
    bytes += static_cast<int64_t>(col.i64.capacity() * sizeof(int64_t));
    bytes += static_cast<int64_t>(col.f64.capacity() * sizeof(double));
    bytes += static_cast<int64_t>(col.codes.capacity() * sizeof(int32_t));
    bytes += static_cast<int64_t>(col.nulls.capacity());
  }
  return bytes;
}

}  // namespace mdjoin
