#include "workloads.h"

#include "agg/agg_spec.h"
#include "common/random.h"
#include "cube/base_tables.h"
#include "expr/expr.h"
#include "ra/group_by.h"
#include "table/table_builder.h"
#include "table/table_ops.h"

namespace frontbench {

using namespace mdjoin;

namespace {

constexpr char kEquiAggs[] =
    "sum(sale) as total, count(*) as n, min(sale) as lo, max(sale) as hi, "
    "avg(sale) as mean";

std::string Join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& s : items) out += (out.empty() ? "" : ", ") + s;
  return out;
}

QuerySpec GroupQuery(const std::vector<std::string>& dims) {
  const std::string d = Join(dims);
  return {QClass::kEqui,
          "select " + d + ", " + kEquiAggs + " from Sales analyze by group(" + d + ")",
          dims, false};
}

// Figure 1: cube(prod, month) with every distributive/algebraic aggregate.
QuerySpec CubeQuery() {
  return {QClass::kEqui,
          std::string("select prod, month, ") + kEquiAggs +
              " from Sales analyze by cube(prod, month)",
          {"prod", "month"},
          true};
}

// Example 2.2: per-customer averages in three states, one grouping
// variable per state (fused by Theorem 4.3).
QuerySpec TriStateQuery(const std::string& base) {
  return {QClass::kPivot,
          "select cust, avg(X.sale) as avg_ny, avg(Y.sale) as avg_nj, "
          "avg(Z.sale) as avg_ct from Sales analyze by " + base + " "
          "such that X: X.cust = cust and X.state = 'NY', "
          "Y: Y.cust = cust and Y.state = 'NJ', "
          "Z: Z.cust = cust and Z.state = 'CT'",
          {},
          false};
}

// Example 2.5: sales between the previous and the next month's averages.
QuerySpec Example25Query() {
  return {QClass::kRange,
          "select prod, month, count(Z.sale) as between_count from Sales "
          "where year = 1997 analyze by group(prod, month) "
          "such that X: X.prod = prod and X.month = month - 1, "
          "Y: Y.prod = prod and Y.month = month + 1, "
          "Z: Z.prod = prod and Z.month = month and "
          "Z.sale > avg(X.sale) and Z.sale < avg(Y.sale)",
          {},
          false};
}

// A year/month window per customer: detail-only range conjuncts.
QuerySpec WindowQuery(const std::string& base) {
  return {QClass::kRange,
          "select cust, sum(X.sale) as h2_total, count(X.sale) as h2_n from Sales "
          "analyze by " + base + " such that X: X.cust = cust and X.year = 1997 "
          "and X.month >= 7",
          {},
          false};
}

}  // namespace

const char* ClassName(QClass c) {
  switch (c) {
    case QClass::kEqui: return "equi";
    case QClass::kPivot: return "pivot";
    case QClass::kRange: return "range";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kOlapSession, Workload::kAnalystTeam, Workload::kOutOfCore}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kOlapSession: return "olap_session";
    case Workload::kAnalystTeam: return "analyst_team";
    case Workload::kOutOfCore: return "out_of_core";
  }
  return "?";
}

SalesConfig SalesConfigFor(uint64_t seed) {
  SalesConfig c;
  c.num_rows = kSalesRows;
  c.num_customers = kCustomers;
  c.num_products = kProducts;
  c.num_months = kMonths;
  c.first_year = kFirstYear;
  c.last_year = kLastYear;
  c.seed = seed;
  return c;
}

Table MakeProdMonthBase(uint64_t seed) {
  Random rng(seed ^ 0x9e3779b97f4a7c15ULL);
  TableBuilder b({{"prod", DataType::kInt64}, {"month", DataType::kInt64}});
  for (int64_t p = 1; p <= kProducts; ++p) {
    for (int64_t m = 1; m <= kMonths; ++m) {
      if (rng.Bernoulli(0.75)) b.AppendRowOrDie({Value::Int64(p), Value::Int64(m)});
    }
    if (p % 5 == 0) b.AppendRowOrDie({Value::Int64(p), Value::All()});
  }
  for (int64_t p = kProducts + 1; p <= kProducts + 4; ++p) {
    b.AppendRowOrDie({Value::Int64(p), Value::Int64(1)});
  }
  return std::move(b).Finish();
}

Table MakeCustomerBase() {
  TableBuilder b({{"cust", DataType::kInt64}});
  for (int64_t c = 1; c <= kCustomers + 4; ++c) b.AppendRowOrDie({Value::Int64(c)});
  return std::move(b).Finish();
}

std::vector<QuerySpec> QueryPool(Workload w) {
  switch (w) {
    case Workload::kOlapSession:
      return {CubeQuery(), TriStateQuery("group(cust)"), Example25Query()};
    case Workload::kOutOfCore:
      // Bases are small in-memory tables; Sales is the paged detail.
      return {{QClass::kEqui,
               std::string("select prod, month, ") + kEquiAggs +
                   " from Sales analyze by PM(prod, month)",
               {},
               false},
              TriStateQuery("Custs(cust)"), WindowQuery("Custs(cust)")};
    case Workload::kAnalystTeam: {
      std::vector<QuerySpec> pool = {CubeQuery(), TriStateQuery("group(cust)"),
                                     Example25Query()};
      // Every non-empty group() cuboid of (prod, month, state), coarse first.
      for (const std::vector<std::string>& dims :
           std::vector<std::vector<std::string>>{{"month"},
                                                 {"state"},
                                                 {"prod"},
                                                 {"month", "state"},
                                                 {"prod", "month"},
                                                 {"prod", "state"},
                                                 {"prod", "month", "state"}}) {
        pool.push_back(GroupQuery(dims));
      }
      pool.push_back({QClass::kEqui,
                      "select prod, month, sum(sale) as total, count(*) as n from Sales "
                      "analyze by PM(prod, month)",
                      {},
                      false});
      pool.push_back({QClass::kEqui,
                      "select cust, sum(sale) as total, count(*) as n from Sales "
                      "analyze by Custs(cust)",
                      {},
                      false});
      pool.push_back(WindowQuery("group(cust)"));
      pool.push_back({QClass::kPivot,
                      "select prod, sum(A.sale) as h1, sum(B.sale) as h2 from Sales "
                      "analyze by group(prod) such that A: A.prod = prod and A.month <= 6, "
                      "B: B.prod = prod and B.month > 6",
                      {},
                      false});
      pool.push_back({QClass::kPivot,
                      "select state, sum(X.sale) as y97, sum(Y.sale) as y98, "
                      "sum(Z.sale) as y99 from Sales analyze by group(state) "
                      "such that X: X.state = state and X.year = 1997, "
                      "Y: Y.state = state and Y.year = 1998, "
                      "Z: Z.state = state and Z.year = 1999",
                      {},
                      false});
      pool.push_back({QClass::kRange,
                      "select prod, month, sum(X.sale) as ytd from Sales where year = 1998 "
                      "analyze by group(prod, month) such that X: X.prod = prod and "
                      "X.month <= month",
                      {},
                      false});
      pool.push_back({QClass::kRange,
                      "select prod, month, avg(X.sale) as trailing3 from Sales "
                      "where year = 1996 analyze by group(prod, month) such that "
                      "X: X.prod = prod and X.month >= month - 2 and X.month <= month",
                      {},
                      false});
      pool.push_back({QClass::kPivot,
                      "select prod, sum(X.sale) as ny, sum(Y.sale) as nj, "
                      "sum(Z.sale) as ca from Sales analyze by group(prod) "
                      "such that X: X.prod = prod and X.state = 'NY', "
                      "Y: Y.prod = prod and Y.state = 'NJ', "
                      "Z: Z.prod = prod and Z.state = 'CA'",
                      {},
                      false});
      return pool;
    }
  }
  return {};
}

QuerySpec ProbeQuery(QClass c) {
  return QueryPool(Workload::kOlapSession)[static_cast<size_t>(c)];
}

std::string CrossCheckWithGroupBy(const QuerySpec& q, const Table& sales,
                                  const ExpectedTable& expected) {
  if (q.ra_dims.empty()) return "";
  const std::vector<AggSpec> aggs = {
      Sum(dsl::RCol("sale"), "total"), Count("n"), Min(dsl::RCol("sale"), "lo"),
      Max(dsl::RCol("sale"), "hi"), Avg(dsl::RCol("sale"), "mean")};
  Table baseline;
  if (!q.ra_cube) {
    Result<Table> grouped = GroupBy(sales, q.ra_dims, aggs);
    if (!grouped.ok()) return "GroupBy failed: " + grouped.status().ToString();
    baseline = std::move(*grouped);
  } else {
    std::vector<Table> cuboids;
    const CuboidMask full = (CuboidMask{1} << q.ra_dims.size()) - 1;
    for (CuboidMask mask = 0; mask <= full; ++mask) {
      std::vector<std::string> keys;
      for (size_t i = 0; i < q.ra_dims.size(); ++i) {
        if (mask & (CuboidMask{1} << i)) keys.push_back(q.ra_dims[i]);
      }
      Result<Table> grouped = keys.empty() ? AggregateAll(sales, aggs)
                                           : GroupBy(sales, keys, aggs);
      if (!grouped.ok()) return "GroupBy failed: " + grouped.status().ToString();
      Result<Table> wide =
          WidenGroupedToCube(*grouped, q.ra_dims, mask, expected.table().schema());
      if (!wide.ok()) return "widen failed: " + wide.status().ToString();
      cuboids.push_back(std::move(*wide));
    }
    Result<Table> all = ConcatAll(cuboids);
    if (!all.ok()) return "concat failed: " + all.status().ToString();
    baseline = std::move(*all);
  }
  const std::string mismatch = expected.Mismatch(baseline);
  return mismatch.empty() ? "" : "GroupBy baseline disagrees: " + mismatch;
}

}  // namespace frontbench
