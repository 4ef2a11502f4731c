#include "harness/compare.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace frontbench {

using mdjoin::Table;
using mdjoin::Value;

namespace {

int Rank(const Value& v) {
  if (v.is_null()) return 0;
  if (v.is_all()) return 1;
  if (v.is_numeric()) return 2;
  return 3;
}

int CompareCells(const Value& a, const Value& b) {
  const int ra = Rank(a);
  const int rb = Rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  if (ra == 2) {
    if (a.is_int64() && b.is_int64()) {
      return a.int64() < b.int64() ? -1 : (a.int64() > b.int64() ? 1 : 0);
    }
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    if (std::isnan(x) || std::isnan(y)) {
      return std::isnan(x) == std::isnan(y) ? 0 : (std::isnan(x) ? 1 : -1);
    }
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (ra == 3) {
    const int s = a.string().compare(b.string());
    return s < 0 ? -1 : (s > 0 ? 1 : 0);
  }
  return 0;
}

bool CellsMatch(const Value& want, const Value& got) {
  if (want.is_numeric() && got.is_numeric()) {
    if (want.is_int64() && got.is_int64()) return want.int64() == got.int64();
    const double x = want.AsDouble();
    const double y = got.AsDouble();
    if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
    const double diff = std::fabs(x - y);
    return diff <= kAbsTol || diff <= kRelTol * std::max(std::fabs(x), std::fabs(y));
  }
  return want.Equals(got);
}

std::string Render(const Value& v) {
  if (v.is_null()) return "NULL";
  if (v.is_all()) return "ALL";
  if (v.is_int64()) return std::to_string(v.int64());
  if (v.is_float64()) {
    std::ostringstream os;
    os.precision(17);
    os << v.float64();
    return os.str();
  }
  return "'" + v.string() + "'";
}

/// Row indices of `t` sorted by every cell (NULL < ALL < numbers < strings).
std::vector<int64_t> CanonicalOrder(const Table& t) {
  std::vector<int64_t> order(static_cast<size_t>(t.num_rows()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  const int ncols = t.num_columns();
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    for (int c = 0; c < ncols; ++c) {
      const int cmp = CompareCells(t.Get(a, c), t.Get(b, c));
      if (cmp != 0) return cmp < 0;
    }
    return a < b;
  });
  return order;
}

}  // namespace

ExpectedTable::ExpectedTable(Table table)
    : table_(std::move(table)), order_(CanonicalOrder(table_)) {}

std::string ExpectedTable::Mismatch(const Table& got) const {
  if (got.num_columns() != table_.num_columns()) {
    return "column count " + std::to_string(got.num_columns()) + " != expected " +
           std::to_string(table_.num_columns());
  }
  for (int c = 0; c < table_.num_columns(); ++c) {
    if (got.schema().field(c).name != table_.schema().field(c).name) {
      return "column " + std::to_string(c) + " named '" + got.schema().field(c).name +
             "', expected '" + table_.schema().field(c).name + "'";
    }
  }
  if (got.num_rows() != table_.num_rows()) {
    return "row count " + std::to_string(got.num_rows()) + " != expected " +
           std::to_string(table_.num_rows());
  }
  const std::vector<int64_t> got_order = CanonicalOrder(got);
  for (size_t i = 0; i < order_.size(); ++i) {
    for (int c = 0; c < table_.num_columns(); ++c) {
      const Value& want = table_.Get(order_[i], c);
      const Value& have = got.Get(got_order[i], c);
      if (!CellsMatch(want, have)) {
        return "row " + std::to_string(i) + " column '" + table_.schema().field(c).name +
               "': got " + Render(have) + ", expected " + Render(want);
      }
    }
  }
  return "";
}

}  // namespace frontbench
