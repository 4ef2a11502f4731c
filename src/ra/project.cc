#include "ra/project.h"

#include "expr/compile.h"
#include "table/table_ops.h"

namespace mdjoin {

Result<Table> Project(const Table& t, const std::vector<ProjectItem>& items) {
  std::vector<CompiledExpr> exprs;
  std::vector<Field> fields;
  exprs.reserve(items.size());
  fields.reserve(items.size());
  for (const ProjectItem& item : items) {
    MDJ_ASSIGN_OR_RETURN(CompiledExpr c, CompileExpr(item.expr, t.schema()));
    fields.push_back(Field{item.name, c.result_type()});
    exprs.push_back(std::move(c));
  }
  // A projection of bare detail columns is a column copy, typed mirror
  // included; computed columns evaluate one column at a time.
  std::vector<int> cols;
  for (const ProjectItem& item : items) {
    if (item.expr->kind() != ExprKind::kColumnRef || item.expr->side() != Side::kDetail) {
      break;
    }
    MDJ_ASSIGN_OR_RETURN(int c, t.schema().GetFieldIndex(item.expr->column_name()));
    cols.push_back(c);
  }
  if (cols.size() == items.size()) return GatherColumns(t, cols, std::move(fields));
  std::vector<std::vector<Value>> columns(exprs.size());
  RowCtx ctx;
  ctx.detail = &t;
  for (size_t i = 0; i < exprs.size(); ++i) {
    columns[i].reserve(static_cast<size_t>(t.num_rows()));
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      ctx.detail_row = r;
      columns[i].push_back(exprs[i].Eval(ctx));
    }
  }
  return Table::FromColumns(Schema(std::move(fields)), std::move(columns), t.num_rows());
}

Result<Table> ProjectColumns(const Table& t, const std::vector<std::string>& columns) {
  MDJ_ASSIGN_OR_RETURN(std::vector<int> cols, ResolveColumns(t.schema(), columns));
  std::vector<Field> fields;
  fields.reserve(cols.size());
  for (int c : cols) fields.push_back(t.schema().field(c));
  return GatherColumns(t, cols, std::move(fields));
}

}  // namespace mdjoin
