#ifndef MDJOIN_TESTS_TEST_UTIL_H_
#define MDJOIN_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "core/generalized.h"
#include "core/reference.h"
#include "cube/lattice.h"
#include "table/key.h"
#include "table/table_accel.h"
#include "table/table_builder.h"

namespace mdjoin {
namespace testutil {

inline Value I(int64_t v) { return Value::Int64(v); }
inline Value F(double v) { return Value::Float64(v); }
inline Value S(std::string v) { return Value::String(std::move(v)); }
inline Value ALL() { return Value::All(); }
inline Value NUL() { return Value::Null(); }

/// The paper's running-example Sales table:
/// (cust, prod, day, month, year, state, sale).
inline Schema SalesSchema() {
  return Schema({{"cust", DataType::kInt64},
                 {"prod", DataType::kInt64},
                 {"day", DataType::kInt64},
                 {"month", DataType::kInt64},
                 {"year", DataType::kInt64},
                 {"state", DataType::kString},
                 {"sale", DataType::kFloat64}});
}

/// A small deterministic Sales instance exercised by most integration tests:
/// customers 1..4, products 10/20, months 1..3, years 1997/1999, states
/// NY/NJ/CT/CA.
inline Table SmallSales() {
  TableBuilder b(SalesSchema());
  auto add = [&b](int64_t cust, int64_t prod, int64_t day, int64_t month, int64_t year,
                  const char* state, double sale) {
    b.AppendRowOrDie({I(cust), I(prod), I(day), I(month), I(year), S(state), F(sale)});
  };
  add(1, 10, 1, 1, 1997, "NY", 100);
  add(1, 10, 2, 1, 1997, "NY", 200);
  add(1, 20, 3, 2, 1997, "NJ", 50);
  add(1, 20, 4, 3, 1997, "CT", 70);
  add(2, 10, 5, 1, 1997, "NJ", 400);
  add(2, 20, 6, 2, 1997, "CA", 150);
  add(2, 20, 7, 2, 1997, "NY", 60);
  add(3, 10, 8, 3, 1997, "CT", 90);
  add(3, 20, 9, 3, 1999, "NY", 300);
  add(4, 10, 10, 1, 1999, "CA", 500);
  add(4, 20, 11, 2, 1999, "CA", 20);
  add(4, 10, 12, 3, 1997, "NJ", 80);
  return std::move(b).Finish();
}

/// Random Sales-like table for property tests. Seeded: reproducible.
inline Table RandomSales(uint64_t seed, int64_t rows, int64_t num_cust = 6,
                         int64_t num_prod = 4, int64_t num_month = 4) {
  Random rng(seed);
  const char* states[] = {"NY", "NJ", "CT", "CA", "IL"};
  TableBuilder b(SalesSchema());
  for (int64_t i = 0; i < rows; ++i) {
    b.AppendRowOrDie({I(rng.UniformInt(1, num_cust)), I(rng.UniformInt(1, num_prod) * 10),
                      I(rng.UniformInt(1, 28)), I(rng.UniformInt(1, num_month)),
                      I(rng.UniformInt(1996, 1999)),
                      S(states[rng.Uniform(5)]),
                      F(static_cast<double>(rng.UniformInt(1, 500)))});
  }
  return std::move(b).Finish();
}

/// Edge cases for base generation: (a, b, c, v) with NULL, NaN, ±0, and an
/// Int64 and a Float64 of equal value in one Float64 column, so a base whose
/// cuboids kept a different representative row than a direct scan of each
/// cuboid would show. v is 1 on every row.
inline Table EdgeTable() {
  Table edge{Schema({Field("a", DataType::kFloat64), Field("b", DataType::kFloat64),
                     Field("c", DataType::kString), Field("v", DataType::kInt64)})};
  const double nan = std::nan("");
  auto add = [&edge](Value a, Value b, Value c) {
    edge.AppendRowUnchecked({std::move(a), std::move(b), std::move(c), Value::Int64(1)});
  };
  add(Value::Int64(1), Value::Float64(-0.0), Value::String("x"));
  add(Value::Float64(1.0), Value::Float64(0.0), Value::String("y"));
  add(Value::Null(), Value::Float64(nan), Value::String("x"));
  add(Value::Float64(1.0), Value::Float64(nan), Value::Null());
  add(Value::Int64(2), Value::Float64(0.0), Value::String("x"));
  add(Value::Null(), Value::Float64(-0.0), Value::Null());
  add(Value::Int64(1), Value::Float64(nan), Value::String("y"));
  add(Value::Float64(2.0), Value::Null(), Value::String("x"));
  add(Value::Float64(1.0), Value::Float64(0.0), Value::String("x"));
  add(Value::Null(), Value::Null(), Value::Null());
  add(Value::Float64(-0.0), Value::Float64(1.0), Value::String("y"));
  add(Value::Int64(0), Value::Int64(1), Value::String("y"));
  return edge;
}

/// Bit-exact cell comparison: doubles by bit pattern, so NaN equals the same
/// NaN and -0.0 differs from +0.0 (Value::Equals treats both the other way).
inline bool BitEq(const Value& a, const Value& b) {
  if (a.is_null()) return b.is_null();
  if (a.is_all()) return b.is_all();
  if (a.is_int64()) return b.is_int64() && a.int64() == b.int64();
  if (a.is_float64()) {
    if (!b.is_float64()) return false;
    uint64_t ba, bb;
    const double da = a.float64(), db = b.float64();
    std::memcpy(&ba, &da, sizeof(ba));
    std::memcpy(&bb, &db, sizeof(bb));
    return ba == bb;
  }
  return b.is_string() && a.string() == b.string();
}

/// Ordered, bit-exact table comparison (schemas must agree on names/types).
inline ::testing::AssertionResult TablesBitIdentical(const Table& a, const Table& b) {
  if (!a.schema().Equals(b.schema())) {
    return ::testing::AssertionFailure() << "schemas differ";
  }
  if (a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure()
           << "row counts differ: " << a.num_rows() << " vs " << b.num_rows();
  }
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      if (!BitEq(a.Get(r, c), b.Get(r, c))) {
        return ::testing::AssertionFailure()
               << "cell (" << r << ", " << c << ") differs: "
               << a.Get(r, c).ToString() << " vs " << b.Get(r, c).ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// select distinct `cols` from t, first occurrence kept, through a RowKey
/// set: the test-only oracle for the distinct-key kernel and every base
/// generator built on it.
inline Table ReferenceDistinctOn(const Table& t, const std::vector<int>& cols) {
  std::vector<Field> fields;
  fields.reserve(cols.size());
  for (int c : cols) fields.push_back(t.schema().field(c));
  Table out{Schema(std::move(fields))};
  std::unordered_set<RowKey, RowKeyHash, RowKeyEqual> seen;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    RowKey key = t.GetRowKey(r, cols);
    if (seen.insert(key).second) out.AppendRowUnchecked(std::move(key));
  }
  return out;
}

/// CUBE BY's masks over `dims`, in CubeLattice::CubeOrder.
inline std::vector<CuboidMask> CubeMasks(const std::vector<std::string>& dims) {
  return CubeLattice::Make(dims).ValueOrDie().CubeOrder();
}

/// The grouping-sets base over `dims` of t, by the definition: for each
/// mask in order, ReferenceDistinctOn over the dims it groups, each a scan
/// of t itself, with ALL in the other positions.
inline Table ReferenceGroupingSets(const Table& t, const std::vector<std::string>& dims,
                                   const std::vector<CuboidMask>& masks) {
  std::vector<int> dim_cols;
  std::vector<Field> fields;
  for (const std::string& d : dims) {
    dim_cols.push_back(t.schema().GetFieldIndex(d).ValueOrDie());
    fields.push_back(t.schema().field(dim_cols.back()));
  }
  Table out{Schema(std::move(fields))};
  for (CuboidMask mask : masks) {
    std::vector<size_t> grouped;
    std::vector<int> cols;
    for (size_t i = 0; i < dims.size(); ++i) {
      if (!GroupsDim(mask, i)) continue;
      grouped.push_back(i);
      cols.push_back(dim_cols[i]);
    }
    const Table keys = ReferenceDistinctOn(t, cols);
    for (int64_t r = 0; r < keys.num_rows(); ++r) {
      std::vector<Value> row(dims.size(), Value::All());
      for (size_t k = 0; k < grouped.size(); ++k) {
        row[grouped[k]] = keys.Get(r, static_cast<int>(k));
      }
      out.AppendRowUnchecked(std::move(row));
    }
  }
  return out;
}

/// Checks `t`'s typed mirror, when it has one, cell by cell against its
/// Value cells: a flat column's payload (int64, float64 by bit pattern, or
/// the string its dictionary code decodes to) and null byte must agree with
/// every cell, so no engine fast path can read a value the cells do not
/// hold.
inline ::testing::AssertionResult MirrorAgreesWithCells(const Table& t) {
  const auto& accel = t.accel();
  if (accel == nullptr) return ::testing::AssertionSuccess();
  if (accel->num_rows != t.num_rows() ||
      static_cast<int>(accel->cols.size()) != t.num_columns()) {
    return ::testing::AssertionFailure() << "mirror shape differs from the table";
  }
  for (int c = 0; c < t.num_columns(); ++c) {
    const FlatColumn& fc = accel->cols[static_cast<size_t>(c)];
    if (!fc.flat()) continue;
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      const Value& v = t.Get(r, c);
      const size_t i = static_cast<size_t>(r);
      const bool null = fc.has_nulls && fc.nulls[i] != 0;
      Value mirrored = Value::Null();
      if (!null) {
        switch (fc.rep) {
          case FlatColumn::Rep::kInt64:
            mirrored = Value::Int64(fc.i64[i]);
            break;
          case FlatColumn::Rep::kFloat64:
            mirrored = Value::Float64(fc.f64[i]);
            break;
          case FlatColumn::Rep::kDict:
            if (fc.codes[i] < 0 || fc.codes[i] >= fc.dict->size()) {
              return ::testing::AssertionFailure()
                     << "cell (" << r << ", " << c << ") has code " << fc.codes[i];
            }
            mirrored = Value::String(fc.dict->Decode(fc.codes[i]));
            break;
          case FlatColumn::Rep::kNone:
            break;
        }
      }
      if (!BitEq(v, mirrored)) {
        return ::testing::AssertionFailure()
               << "cell (" << r << ", " << c << ") is " << v.ToString()
               << " but its mirror holds " << mirrored.ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// The generalized expectation: k reference MD-joins, one per component,
/// their aggregate columns concatenated after B's columns in order.
inline Table GeneralizedReference(const Table& base, const Table& detail,
                                  const std::vector<MdJoinComponent>& components) {
  Table out = base.Clone();
  for (const MdJoinComponent& comp : components) {
    Result<Table> one = MdJoinReference(base, detail, comp.aggs, comp.theta);
    MDJ_CHECK(one.ok()) << one.status().ToString();
    for (int c = base.num_columns(); c < one->num_columns(); ++c) {
      Status st = out.AddColumn(one->schema().field(c), one->column(c));
      MDJ_CHECK(st.ok()) << st.ToString();
    }
  }
  return out;
}

/// Example 2.2's tri-state pivot as a k = 3 generalized MD-join over a
/// customer base: per customer, the count, total and average sale in each of
/// NY, NJ and CT — one (l_i, θ_i) component per state.
inline std::vector<MdJoinComponent> TriStateComponents() {
  std::vector<MdJoinComponent> components;
  const std::pair<std::string, const char*> states[] = {
      {"ny", "NY"}, {"nj", "NJ"}, {"ct", "CT"}};
  for (const auto& [s, code] : states) {
    components.push_back(
        {{Count("n_" + s), Sum(dsl::RCol("sale"), "total_" + s),
          Avg(dsl::RCol("sale"), "avg_" + s)},
         dsl::And(dsl::Eq(dsl::RCol("cust"), dsl::BCol("cust")),
                  dsl::Eq(dsl::RCol("state"), dsl::Lit(code)))});
  }
  return components;
}

}  // namespace testutil
}  // namespace mdjoin

#endif  // MDJOIN_TESTS_TEST_UTIL_H_
