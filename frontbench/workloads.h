#ifndef FRONTBENCH_WORKLOADS_H_
#define FRONTBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/compare.h"
#include "table/table.h"
#include "workload/generators.h"

namespace frontbench {

/// The three query classes, each from the paper.
///  equi:  equality-only θ (Figure-1 cube, group() cuboids, Example 2.4's
///         table-driven base);
///  pivot: grouping variables fused into a generalized MD-join (Example 2.2,
///         Theorem 4.3);
///  range: range or dependent θ (Example 2.5, year/month windows).
enum class QClass { kEqui = 0, kPivot = 1, kRange = 2 };
constexpr int kNumClasses = 3;
const char* ClassName(QClass c);

struct QuerySpec {
  QClass cls = QClass::kEqui;
  std::string text;
  /// Non-empty for equi queries that an ra::GroupBy baseline can reproduce:
  /// the group(...) attributes, or the cube(...) dimensions when `ra_cube`.
  std::vector<std::string> ra_dims;
  bool ra_cube = false;
};

enum class Workload { kOlapSession, kAnalystTeam, kOutOfCore };
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

// Data shape: the workload/ Sales generator at 200k rows.
constexpr int64_t kSalesRows = 200000;
constexpr int64_t kCustomers = 1000;
constexpr int64_t kProducts = 100;
constexpr int kMonths = 12;
constexpr int kFirstYear = 1994;
constexpr int kLastYear = 1999;
/// Rows per block of the out_of_core block file.
constexpr int64_t kBlockRows = 4096;

mdjoin::SalesConfig SalesConfigFor(uint64_t seed);

/// PM(prod, month): a seeded three-quarters of the (prod, month) grid, one
/// (prod, ALL) roll-up row for every fifth product, and four points no sale
/// matches (Example 2.4's table-driven base values, outer semantics).
mdjoin::Table MakeProdMonthBase(uint64_t seed);

/// Custs(cust): every customer id plus four that have no sales.
mdjoin::Table MakeCustomerBase();

/// The distinct query texts a workload draws from. For olap_session and
/// out_of_core these are one query per class, in rotation order; for
/// analyst_team the pool in Zipf rank order (most popular first).
std::vector<QuerySpec> QueryPool(Workload w);

/// The olap_session query of each class; the layer probes of every traced
/// run use these, over the in-memory tables.
QuerySpec ProbeQuery(QClass c);

/// Recomputes an equi query with ra::GroupBy (per cuboid, widened with ALL,
/// for cube queries) and compares it to `expected`. Empty when they agree
/// or the query has no GroupBy baseline; otherwise the mismatch.
std::string CrossCheckWithGroupBy(const QuerySpec& q, const mdjoin::Table& sales,
                                  const ExpectedTable& expected);

}  // namespace frontbench

#endif  // FRONTBENCH_WORKLOADS_H_
