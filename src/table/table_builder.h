#ifndef MDJOIN_TABLE_TABLE_BUILDER_H_
#define MDJOIN_TABLE_TABLE_BUILDER_H_

#include <initializer_list>
#include <vector>

#include "common/result.h"
#include "table/table.h"

namespace mdjoin {

/// Type-checked row-at-a-time Table construction:
///
///   TableBuilder b({{"prod", DataType::kInt64}, {"state", DataType::kString}});
///   MDJ_RETURN_NOT_OK(b.AppendRow({Value::Int64(12), Value::String("NY")}));
///   Table t = std::move(b).Finish();
class TableBuilder {
 public:
  explicit TableBuilder(Schema schema) : table_(std::move(schema)) {}
  TableBuilder(std::initializer_list<Field> fields)
      : table_(Schema(std::vector<Field>(fields))) {}

  /// Validates arity and per-cell types (NULL/ALL allowed anywhere).
  Status AppendRow(std::vector<Value> values);

  /// AppendRow that dies on error; for tests and examples with literal data.
  void AppendRowOrDie(std::vector<Value> values);

  const Schema& schema() const { return table_.schema(); }
  int64_t num_rows() const { return table_.num_rows(); }
  void Reserve(int64_t rows) { table_.Reserve(rows); }

  /// Builds the typed columnar accelerator as part of finishing, so every
  /// loaded/generated table arrives SIMD-ready. Operator outputs bypass the
  /// builder; the column-wise ones gather their input's mirror instead.
  Table Finish() && {
    table_.RebuildAccel();
    return std::move(table_);
  }

 private:
  Table table_;
};

}  // namespace mdjoin

#endif  // MDJOIN_TABLE_TABLE_BUILDER_H_
