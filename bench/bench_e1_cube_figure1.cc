/// E1 — Figure 1(a): the CUBE BY query of Example 2.1 as one MD-join.
/// Prints the figure's output-table shape on the running example, then
/// measures cube computation via MD-join across data sizes and dimension
/// counts. Counters report the multi-granularity index's ALL-mask buckets
/// (2^d) and per-tuple candidate work.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "core/mdjoin.h"
#include "cube/base_tables.h"
#include "ra/filter.h"
#include "table/table_ops.h"

namespace mdjoin {
namespace {

using bench::CachedSales;
using bench::DimsTheta;

void PrintFigure1a() {
  // The paper's Figure 1(a) layout on a small instance: cube over
  // (prod, month, state) with Sum(sale), ALL rows included.
  const Table& sales = CachedSales(200, 8, 4, 4);
  std::vector<std::string> dims = {"prod", "month", "state"};
  Table base = *CubeByBase(sales, dims);
  Table cube = *MdJoin(base, sales, {Sum(dsl::RCol("sale"), "sum_sale")},
                       DimsTheta(dims));
  std::printf("E1 / Figure 1(a): CUBE BY (prod, month, state), Sum(sale) — %lld rows\n",
              static_cast<long long>(cube.num_rows()));
  // CubeByBase emits finest granularity first and the grand total last, the
  // reading order of the paper's figure; show the head and the final row.
  std::printf("%s", cube.ToString(8).c_str());
  Table last(cube.schema());
  last.AppendRowFrom(cube, cube.num_rows() - 1);
  std::printf("last row (grand total):\n%s\n", last.ToString().c_str());
}

void BM_CubeMdJoin(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int ndims = static_cast<int>(state.range(1));
  const Table& sales = CachedSales(rows, 100, 50, 12);
  std::vector<std::string> all_dims = {"prod", "month", "state"};
  std::vector<std::string> dims(all_dims.begin(), all_dims.begin() + ndims);
  Table base = *CubeByBase(sales, dims);
  ExprPtr theta = DimsTheta(dims);
  std::vector<AggSpec> aggs = {Sum(dsl::RCol("sale"), "total"), Count("n")};
  MdJoinStats stats;
  for (auto _ : state) {
    Table cube = *MdJoin(base, sales, aggs, theta, {}, &stats);
    benchmark::DoNotOptimize(cube.num_rows());
  }
  state.counters["base_rows"] = static_cast<double>(base.num_rows());
  state.counters["index_masks"] = static_cast<double>(stats.index_masks);
  state.counters["candidate_pairs"] = static_cast<double>(stats.candidate_pairs);
  state.counters["detail_rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_CubeMdJoin)
    ->ArgsProduct({{10000, 50000, 200000}, {1, 2, 3}})
    ->Unit(benchmark::kMillisecond);

void BM_CubeMdJoinGuarded(benchmark::State& state) {
  // BM_CubeMdJoin with a QueryGuard attached (no limits set, default 4096-row
  // check stride): the delta against the unguarded rows is the whole cost of
  // the guardrail machinery on the hot scan — the budget is < 5%.
  const int64_t rows = state.range(0);
  const int ndims = static_cast<int>(state.range(1));
  const Table& sales = CachedSales(rows, 100, 50, 12);
  std::vector<std::string> all_dims = {"prod", "month", "state"};
  std::vector<std::string> dims(all_dims.begin(), all_dims.begin() + ndims);
  Table base = *CubeByBase(sales, dims);
  ExprPtr theta = DimsTheta(dims);
  std::vector<AggSpec> aggs = {Sum(dsl::RCol("sale"), "total"), Count("n")};
  for (auto _ : state) {
    QueryGuard guard;
    MdJoinOptions options;
    options.guard = &guard;
    Table cube = *MdJoin(base, sales, aggs, theta, options);
    benchmark::DoNotOptimize(cube.num_rows());
  }
  state.counters["base_rows"] = static_cast<double>(base.num_rows());
}
BENCHMARK(BM_CubeMdJoinGuarded)
    ->ArgsProduct({{10000, 50000, 200000}, {1, 2, 3}})
    ->Unit(benchmark::kMillisecond);

/// The raw-speed ladder on the 2-D cube. arg1 picks the arm:
///   0 baseline_pr2 — the block scan without the raw-speed machinery: no
///     SIMD kernels, no dictionary/flat columns. θ runs through bytecode,
///     the one runtime evaluator, in every arm.
///   1 scalar_full  — all current machinery pinned to the scalar SIMD level
///     (isolates the algorithmic wins from the instruction-set win).
///   2 auto_full    — best available SIMD level; the headline arm. The
///     acceptance bar is ≥1.5× over arm 0 at 1M rows.
///   3 auto_pred    — auto_full plus detail-only predicates (a
///     dictionary-coded string test and a sale range), so the compare
///     kernels, dense-block path, and fused predicate+aggregate path all
///     fire; fused_blocks/dense_blocks counters make that visible.
///   4 baseline_pred — arm 3's θ under arm 0's configuration: the paired
///     baseline for the predicated A/B (same query, Value string compares
///     and Value-cell updates instead of code compares + kernels).
void BM_CubeRawSpeed(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int arm = static_cast<int>(state.range(1));
  const Table& sales = CachedSales(rows, 100, 50, 12);
  std::vector<std::string> dims = {"prod", "month"};
  Table base = *CubeByBase(sales, dims);
  ExprPtr theta = DimsTheta(dims);
  if (arm == 3 || arm == 4) {
    theta = dsl::And(std::move(theta),
                     dsl::Ne(dsl::RCol("state"), dsl::Lit("CA")),
                     dsl::Gt(dsl::RCol("sale"), dsl::Lit(25.0)));
  }
  std::vector<AggSpec> aggs = {Sum(dsl::RCol("sale"), "total"), Count("n"),
                               Min(dsl::RCol("sale"), "lo"),
                               Max(dsl::RCol("sale"), "hi"),
                               Avg(dsl::RCol("sale"), "mean")};
  MdJoinOptions options;
  if (arm == 0 || arm == 4) {
    options.simd = simd::Backend::kScalar;
    options.use_flat_columns = false;
  } else if (arm == 1) {
    options.simd = simd::Backend::kScalar;
  }
  MdJoinStats stats;
  for (auto _ : state) {
    Table cube = *MdJoin(base, sales, aggs, theta, options, &stats);
    benchmark::DoNotOptimize(cube.num_rows());
  }
  state.counters["arm"] = arm;
  state.counters["base_rows"] = static_cast<double>(base.num_rows());
  state.counters["detail_rows"] = static_cast<double>(rows);
  state.counters["dense_blocks"] = static_cast<double>(stats.dense_blocks);
  state.counters["fused_blocks"] = static_cast<double>(stats.fused_blocks);
  state.counters["kernel_invocations"] =
      static_cast<double>(stats.kernel_invocations);
  state.counters["probe_memo_hits"] =
      static_cast<double>(stats.index_probe_memo_hits);
  bench::TagConfig(state, options);
}
BENCHMARK(BM_CubeRawSpeed)
    ->ArgsProduct({{200000, 1000000}, {0, 1, 2, 3, 4}})
    ->Unit(benchmark::kMillisecond);

/// Base generation, which the arms above do outside the timed loop. arg1
/// picks the generator as the executor runs it:
///   0 cube  — CubeByBase over (prod, month): Figure 1's B, one distinct
///     pass over R for the finest cuboid, coarser cuboids derived from it.
///   1 group — group(cust) as the binder lowers it, a single full-mask
///     GroupingSets node, GroupByBase(R, {cust}): Example 2.2's B.
///   2..6 — GroupingSetsBase over low-cardinality dims (prod, month,
///     state: 50 × 12 × 50) and high-cardinality ones (cust, day, sale,
///     where sale is all but unique, so the finest cuboid is close to |R|):
///     2/3 unpivot low/high, 4/5 grouping_sets ((a, b), (c), ()) low/high,
///     6 one non-full mask, (cust, day) of (cust, day, sale), as
///     ApplyRollup's finer bases and the cache's roll-up plans build it.
/// All read the detail table's typed mirror (distinct keys on int64 and
/// float64 payloads) and copy only each cuboid's distinct rows.
void BM_BaseGeneration(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int arm = static_cast<int>(state.range(1));
  const Table& sales = CachedSales(rows, 100, 50, 12);
  const std::vector<std::string> low = {"prod", "month", "state"};
  const std::vector<std::string> high = {"cust", "day", "sale"};
  const std::vector<CuboidMask> unpivot = {0b001, 0b010, 0b100};
  const std::vector<CuboidMask> sets = {0b011, 0b100, 0b000};
  int64_t base_rows = 0;
  for (auto _ : state) {
    Table base;
    switch (arm) {
      case 0: base = *CubeByBase(sales, {"prod", "month"}); break;
      case 1: base = *GroupByBase(sales, {"cust"}); break;
      case 2: base = *GroupingSetsBase(sales, low, unpivot); break;
      case 3: base = *GroupingSetsBase(sales, high, unpivot); break;
      case 4: base = *GroupingSetsBase(sales, low, sets); break;
      case 5: base = *GroupingSetsBase(sales, high, sets); break;
      default: base = *GroupingSetsBase(sales, high, {0b011}); break;
    }
    base_rows = base.num_rows();
    benchmark::DoNotOptimize(base_rows);
  }
  state.counters["arm"] = arm;
  state.counters["base_rows"] = static_cast<double>(base_rows);
  state.counters["detail_rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_BaseGeneration)
    ->ArgsProduct({{200000, 1000000}, {0, 1, 2, 3, 4, 5, 6}})
    ->Unit(benchmark::kMillisecond);

void BM_GroupingSetsViaSameOperator(benchmark::State& state) {
  // The decoupling payoff: switching the group definition (cube → unpivot
  // marginals, the [GFC98] use case) changes only the base table.
  const int64_t rows = state.range(0);
  const Table& sales = CachedSales(rows, 100, 50, 12);
  std::vector<std::string> dims = {"prod", "month", "state"};
  Table base = *GroupingSetsBase(sales, dims, {0b001, 0b010, 0b100});
  ExprPtr theta = DimsTheta(dims);
  std::vector<AggSpec> aggs = {Sum(dsl::RCol("sale"), "total"), Count("n")};
  for (auto _ : state) {
    Table marginals = *MdJoin(base, sales, aggs, theta);
    benchmark::DoNotOptimize(marginals.num_rows());
  }
  state.counters["base_rows"] = static_cast<double>(base.num_rows());
}
BENCHMARK(BM_GroupingSetsViaSameOperator)
    ->Arg(10000)
    ->Arg(50000)
    ->Arg(200000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mdjoin

int main(int argc, char** argv) {
  mdjoin::PrintFigure1a();
  return mdjoin::bench::RunBenchMain(argc, argv, "e1");
}
