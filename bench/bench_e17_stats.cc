/// E17 — workload-telemetry overhead and convergence. Three questions:
///
///   1. What does the stats machinery cost when it is off? BM_CubeStatsMode/0
///      runs the E1 cube workload through the plain executor with no
///      feedback store, no history, no analyzed stats — the production
///      default, held to the same < 3% budget as E14's disabled-tracing arm.
///   2. What does it cost when it is on? Mode /1 runs the same plan under
///      EXPLAIN ANALYZE with a live feedback store (estimate annotation +
///      harvest every iteration) and a query-history record per run.
///   3. What does AnalyzeTable itself cost, and does feedback converge?
///      BM_AnalyzeTable prices the offline scan; BM_FeedbackConvergence
///      reports first-run vs steady-state max Q-error as counters
///      (qerr_run1 > qerr_rest is the convergence acceptance).
///
/// Checked-in results: BENCH_e17.json (bench_util.h WriteBenchJson).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/mdjoin.h"
#include "obs/query_profile.h"
#include "optimizer/cost.h"
#include "optimizer/executor.h"
#include "optimizer/plan.h"
#include "stats/feedback.h"
#include "stats/query_log.h"
#include "stats/table_stats.h"

namespace mdjoin {
namespace {

using bench::CachedSales;
using bench::DimsTheta;

PlanPtr CubePlan() {
  return MdJoinPlan(
      GroupingSetsPlan(TableRef("Sales"), {"prod", "month"},
                       CubeLattice::Make({"prod", "month"})->CubeOrder()),
      TableRef("Sales"),
      {Sum(dsl::RCol("sale"), "total"), Count("n")}, DimsTheta({"prod", "month"}));
}

enum StatsMode { kStatsOff = 0, kStatsOn = 1 };

void BM_CubeStatsMode(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const StatsMode mode = static_cast<StatsMode>(state.range(1));
  const Table& sales = CachedSales(rows, 100, 50, 12);
  Catalog catalog;
  if (!catalog.Register("Sales", &sales).ok()) {
    state.SkipWithError("catalog registration failed");
    return;
  }
  PlanPtr plan = CubePlan();

  FeedbackStore feedback;
  QueryHistory history({/*capacity=*/256, /*log_path=*/"", /*slow_query_ms=*/0});
  MdJoinOptions options;
  if (mode == kStatsOn) options.feedback = &feedback;

  double last_qerror = -1;
  for (auto _ : state) {
    if (mode == kStatsOn) {
      QueryProfile profile;
      Result<Table> out = ExplainAnalyze(plan, catalog, options, &profile);
      benchmark::DoNotOptimize(out->num_rows());
      last_qerror = profile.max_qerror;
      QueryRecord record;
      record.fingerprint = PlanFingerprint(plan);
      record.rows = out->num_rows();
      record.max_qerror = profile.max_qerror;
      history.Record(std::move(record));
    } else {
      Result<Table> out = ExecutePlan(plan, catalog, options);
      benchmark::DoNotOptimize(out->num_rows());
    }
  }
  state.counters["detail_rows"] = static_cast<double>(rows);
  if (mode == kStatsOn) {
    state.counters["final_max_qerror"] = last_qerror;
    state.counters["history_records"] =
        static_cast<double>(history.total_recorded());
  }
}
BENCHMARK(BM_CubeStatsMode)
    ->ArgsProduct({{200000, 1000000}, {kStatsOff}})
    ->Unit(benchmark::kMillisecond);
// A fixed repeat count for the stats-on arm: left to the time budget, the
// 1M-row arm ran a single iteration, so final_max_qerror reported the
// first run's estimate, made before any feedback existed.
BENCHMARK(BM_CubeStatsMode)
    ->ArgsProduct({{200000, 1000000}, {kStatsOn}})
    ->Iterations(5)
    ->Unit(benchmark::kMillisecond);

void BM_AnalyzeTable(benchmark::State& state) {
  // The offline statistics scan: counts + min/max + HLL + an equi-depth
  // histogram per column (the histogram sorts a column copy, which is the
  // dominant term).
  const int64_t rows = state.range(0);
  const Table& sales = CachedSales(rows, 100, 50, 12);
  int64_t ndv_prod = 0;
  for (auto _ : state) {
    Result<TableStats> stats = AnalyzeTable(sales, "Sales");
    if (!stats.ok()) {
      state.SkipWithError("AnalyzeTable failed");
      return;
    }
    ndv_prod = stats->FindColumn("prod")->ndv;
    benchmark::DoNotOptimize(ndv_prod);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["ndv_prod"] = static_cast<double>(ndv_prod);
}
BENCHMARK(BM_AnalyzeTable)
    ->Arg(200000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_FeedbackConvergence(benchmark::State& state) {
  // The convergence property as a measurement: run 1 estimates from the cost
  // model's constants, every later run from harvested cardinalities. The
  // qerr_run1 / qerr_rest counters make the drop visible in BENCH_e17.json.
  const int64_t rows = state.range(0);
  const Table& sales = CachedSales(rows, 100, 50, 12);
  Catalog catalog;
  if (!catalog.Register("Sales", &sales).ok()) {
    state.SkipWithError("catalog registration failed");
    return;
  }
  PlanPtr plan = CubePlan();
  double qerr_run1 = -1, qerr_rest = -1;
  for (auto _ : state) {
    state.PauseTiming();
    FeedbackStore feedback;  // fresh store: each iteration replays run 1..3
    MdJoinOptions options;
    options.feedback = &feedback;
    state.ResumeTiming();
    for (int run = 1; run <= 3; ++run) {
      QueryProfile profile;
      Result<Table> out = ExplainAnalyze(plan, catalog, options, &profile);
      benchmark::DoNotOptimize(out->num_rows());
      if (run == 1) {
        qerr_run1 = profile.max_qerror;
      } else {
        qerr_rest = profile.max_qerror;
      }
    }
  }
  state.counters["qerr_run1"] = qerr_run1;
  state.counters["qerr_rest"] = qerr_rest;
  state.counters["detail_rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_FeedbackConvergence)->Arg(200000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mdjoin

int main(int argc, char** argv) {
  return mdjoin::bench::RunBenchMain(argc, argv, "e17");
}
