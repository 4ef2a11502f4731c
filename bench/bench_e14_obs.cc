/// E14 — observability overhead A/B. The tracing/metrics instrumentation in
/// the scan, pass, and parallel layers must be invisible when no trace is
/// being collected: a disabled Span is one relaxed load, metric flushes are
/// one batched fetch_add per scan range. This driver measures the same cube
/// MD-join (the E1 workload) in three modes:
///
///   /0  tracing off       — no trace ever started (the production default;
///                           this is the "instrumentation compiled in but
///                           disabled" arm the < 3% budget applies to)
///   /1  tracing enabled   — a live trace collecting every span/instant
///   /2  explain analyze   — profiled execution through the plan executor
///
/// Acceptance: mode /0 vs the pre-instrumentation baseline (tracked by the
/// checked-in BENCH_obs.json deltas against BENCH_e1.json's equivalent
/// workload) stays within 3%. Mode /1 quantifies the cost of actually
/// collecting a trace, mode /2 the cost of per-operator profiling.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "core/mdjoin.h"
#include "cube/base_tables.h"
#include "obs/trace.h"
#include "optimizer/executor.h"
#include "optimizer/plan.h"
#include "table/table_ops.h"

namespace mdjoin {
namespace {

using bench::CachedSales;
using bench::DimsTheta;

enum ObsMode { kTracingOff = 0, kTracingEnabled = 1, kExplainAnalyze = 2 };

void BM_CubeObsMode(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const ObsMode mode = static_cast<ObsMode>(state.range(1));
  const Table& sales = CachedSales(rows, 100, 50, 12);
  std::vector<std::string> dims = {"prod", "month"};
  Table base = *CubeByBase(sales, dims);
  ExprPtr theta = DimsTheta(dims);
  std::vector<AggSpec> aggs = {Sum(dsl::RCol("sale"), "total"), Count("n"),
                               Min(dsl::RCol("sale"), "lo"),
                               Max(dsl::RCol("sale"), "hi"),
                               Avg(dsl::RCol("sale"), "mean")};
  MdJoinStats stats;
  int64_t trace_events = 0;
  for (auto _ : state) {
    // Restart per iteration so the enabled arm pays steady-state appends,
    // not unbounded buffer growth across iterations.
    if (mode == kTracingEnabled) Tracing::Start();
    Table cube = *MdJoin(base, sales, aggs, theta, {}, &stats);
    benchmark::DoNotOptimize(cube.num_rows());
    if (mode == kTracingEnabled) {
      trace_events = Tracing::event_count();
      Tracing::Stop();
    }
  }
  state.counters["base_rows"] = static_cast<double>(base.num_rows());
  state.counters["detail_rows"] = static_cast<double>(rows);
  if (mode == kTracingEnabled) {
    state.counters["trace_events"] = static_cast<double>(trace_events);
  }
}
BENCHMARK(BM_CubeObsMode)
    ->ArgsProduct({{200000, 1000000}, {kTracingOff, kTracingEnabled}})
    ->Unit(benchmark::kMillisecond);

void BM_CubeExplainAnalyze(benchmark::State& state) {
  // Profiled plan execution vs plain: the per-node timing/counter capture.
  const int64_t rows = state.range(0);
  const bool profiled = state.range(1) != 0;
  const Table& sales = CachedSales(rows, 100, 50, 12);
  Catalog catalog;
  if (!catalog.Register("Sales", &sales).ok()) {
    state.SkipWithError("catalog registration failed");
    return;
  }
  PlanPtr plan = MdJoinPlan(
      GroupingSetsPlan(TableRef("Sales"), {"prod", "month"},
                       CubeLattice::Make({"prod", "month"})->CubeOrder()),
      TableRef("Sales"),
      {Sum(dsl::RCol("sale"), "total"), Count("n")},
      DimsTheta({"prod", "month"}));
  for (auto _ : state) {
    if (profiled) {
      QueryProfile profile;
      Result<Table> out = ExplainAnalyze(plan, catalog, {}, &profile);
      benchmark::DoNotOptimize(out->num_rows());
    } else {
      Result<Table> out = ExecutePlan(plan, catalog);
      benchmark::DoNotOptimize(out->num_rows());
    }
  }
  state.counters["detail_rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_CubeExplainAnalyze)
    ->ArgsProduct({{200000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mdjoin

int main(int argc, char** argv) {
  return mdjoin::bench::RunBenchMain(argc, argv, "obs");
}
