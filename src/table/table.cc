#include "table/table.h"

#include <algorithm>

#include "table/printer.h"
#include "table/table_accel.h"

namespace mdjoin {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_fields());
}

Table Table::Clone() const {
  Table out(schema_);
  out.columns_ = columns_;
  out.num_rows_ = num_rows_;
  out.accel_ = accel_;  // immutable and matching the copied cells
  return out;
}

Table Table::FromColumns(Schema schema, std::vector<std::vector<Value>> columns,
                         int64_t num_rows, std::shared_ptr<const TableAccel> accel) {
  MDJ_DCHECK(static_cast<int>(columns.size()) == schema.num_fields());
  MDJ_DCHECK(accel == nullptr || (accel->num_rows == num_rows &&
                                  accel->cols.size() == columns.size()));
  MDJ_DCHECK(std::all_of(columns.begin(), columns.end(), [&](const auto& col) {
    return static_cast<int64_t>(col.size()) == num_rows;
  }));
  Table out(std::move(schema));
  out.columns_ = std::move(columns);
  out.num_rows_ = num_rows;
  out.accel_ = std::move(accel);
  return out;
}

void Table::AppendRowUnchecked(std::vector<Value> values) {
  MDJ_DCHECK(static_cast<int>(values.size()) == num_columns());
  for (int c = 0; c < num_columns(); ++c) {
    columns_[c].push_back(std::move(values[c]));
  }
  ++num_rows_;
  accel_.reset();
}

void Table::AppendRowFrom(const Table& src, int64_t row) {
  MDJ_DCHECK(src.num_columns() == num_columns());
  for (int c = 0; c < num_columns(); ++c) {
    columns_[c].push_back(src.Get(row, c));
  }
  ++num_rows_;
  accel_.reset();
}

RowKey Table::GetRow(int64_t row) const {
  RowKey key;
  key.reserve(num_columns());
  for (int c = 0; c < num_columns(); ++c) key.push_back(Get(row, c));
  return key;
}

RowKey Table::GetRowKey(int64_t row, const std::vector<int>& cols) const {
  RowKey key;
  key.reserve(cols.size());
  for (int c : cols) key.push_back(Get(row, c));
  return key;
}

Status Table::AddColumn(Field field, std::vector<Value> values) {
  if (num_rows_ != 0 && static_cast<int64_t>(values.size()) != num_rows_) {
    return Status::InvalidArgument("AddColumn: length ", values.size(),
                                   " != table rows ", num_rows_);
  }
  MDJ_RETURN_NOT_OK(schema_.AddField(std::move(field)));
  if (num_rows_ == 0 && columns_.empty()) {
    num_rows_ = static_cast<int64_t>(values.size());
  }
  columns_.push_back(std::move(values));
  accel_.reset();
  return Status::OK();
}

void Table::RebuildAccel() { accel_ = TableAccel::Build(*this); }

void Table::Reserve(int64_t rows) {
  for (auto& col : columns_) col.reserve(static_cast<size_t>(rows));
}

int64_t Table::ApproxBytes() const {
  int64_t bytes = 0;
  for (const auto& col : columns_) {
    bytes += static_cast<int64_t>(col.capacity() * sizeof(Value));
    for (const Value& v : col) {
      if (v.is_string()) bytes += static_cast<int64_t>(v.string().capacity());
    }
  }
  if (accel_ != nullptr) bytes += accel_->ApproxBytes();
  return bytes;
}

std::string Table::ToString(int64_t max_rows) const {
  return PrintTable(*this, max_rows);
}

}  // namespace mdjoin
