/// E10 — §4.1.2 intra-operator parallelism. Two decompositions:
///   (a) Theorem 4.1 base split: m fragments of B, each scanning all of R
///       on a worker (total scan work m × |R|);
///   (b) detail split: plain MdJoin with options.num_threads — R's morsels
///       shared by the workers, per-worker partial aggregate states merged
///       via the UDAF Merge callback (one logical scan).
/// plus the scheduling A/B (BM_StaticVsMorselSkew): the same base-split plan
/// run with one work unit per fragment (`morsel_size = |R|`, the legacy
/// static schedule) versus the default morsel-driven schedule, sweeping
/// Zipf skew on the detail's cust/prod dimensions. Under skew the hot cube
/// fragments dominate a static schedule's critical path; the morsel cursor
/// lets idle workers take over their remaining ranges, which the per-worker
/// min/max scan counters make visible.
/// Note: this host exposes a single core, so wall-clock speedup is not
/// expected (static and morsel do identical total work and serialize onto
/// the one core); the counters report the scan-work trade, the dispatch
/// counts, and the per-worker balance that multi-core hosts convert into
/// latency.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/mdjoin.h"
#include "cube/base_tables.h"
#include "parallel/parallel_mdjoin.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using bench::CachedSales;

constexpr int64_t kRows = 100000;

void BM_SequentialBaseline(benchmark::State& state) {
  const Table& sales = CachedSales(kRows, 2000);
  Table base = *GroupByBase(sales, {"cust"});
  ExprPtr theta = Eq(RCol("cust"), BCol("cust"));
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};
  for (auto _ : state) {
    Table out = *MdJoin(base, sales, aggs, theta);
    benchmark::DoNotOptimize(out.num_rows());
  }
}
BENCHMARK(BM_SequentialBaseline)->Unit(benchmark::kMillisecond);

void BM_BaseSplitParallel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const Table& sales = CachedSales(kRows, 2000);
  Table base = *GroupByBase(sales, {"cust"});
  ExprPtr theta = Eq(RCol("cust"), BCol("cust"));
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};
  MdJoinStats stats;
  for (auto _ : state) {
    Table out = *ParallelMdJoin(base, sales, aggs, theta, /*num_partitions=*/threads,
                                threads, {}, &stats);
    benchmark::DoNotOptimize(out.num_rows());
  }
  state.counters["scan_work_multiplier"] =
      static_cast<double>(stats.detail_rows_scanned) / kRows;
}
BENCHMARK(BM_BaseSplitParallel)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_DetailSplitParallel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const Table& sales = CachedSales(kRows, 2000);
  Table base = *GroupByBase(sales, {"cust"});
  ExprPtr theta = Eq(RCol("cust"), BCol("cust"));
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};
  MdJoinOptions options;
  options.num_threads = threads;
  MdJoinStats stats;
  for (auto _ : state) {
    Table out = *MdJoin(base, sales, aggs, theta, options, &stats);
    benchmark::DoNotOptimize(out.num_rows());
  }
  state.counters["scan_work_multiplier"] =
      static_cast<double>(stats.detail_rows_scanned) / kRows;
}
BENCHMARK(BM_DetailSplitParallel)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

/// Args: (schedule, zipf×10). schedule 0 = static (one morsel per fragment),
/// 1 = morsel-driven (default size). 1M detail rows against a cust×prod cube
/// base, 8 workers over 8 Theorem 4.1 fragments.
void BM_StaticVsMorselSkew(benchmark::State& state) {
  const bool morsel_driven = state.range(0) == 1;
  const double zipf = static_cast<double>(state.range(1)) / 10.0;
  constexpr int64_t kSkewRows = 1000000;
  constexpr int kThreads = 8;
  const Table& sales = CachedSales(kSkewRows, /*customers=*/500, /*products=*/50,
                                   /*num_months=*/12, zipf);
  Table base = *CubeByBase(sales, {"cust", "prod"});
  ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("prod"), BCol("prod")));
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total"),
                               Min(RCol("sale"), "lo"), Max(RCol("sale"), "hi"),
                               Avg(RCol("sale"), "a")};
  MdJoinOptions options;
  options.morsel_size = morsel_driven ? 0 : sales.num_rows();
  MdJoinStats stats;
  for (auto _ : state) {
    Table out = *ParallelMdJoin(base, sales, aggs, theta, /*num_partitions=*/kThreads,
                                kThreads, options, &stats);
    benchmark::DoNotOptimize(out.num_rows());
  }
  state.counters["zipf_theta"] = zipf;
  state.counters["base_rows"] = static_cast<double>(base.num_rows());
  state.counters["morsels"] = static_cast<double>(stats.morsels);
  state.counters["steal_waits"] = static_cast<double>(stats.steal_waits);
  // Worker balance: 1.0 = perfectly level; static scheduling under skew
  // drives this toward num_partitions / busiest-fragment share.
  state.counters["worker_rows_min"] =
      static_cast<double>(stats.min_worker_detail_rows);
  state.counters["worker_rows_max"] =
      static_cast<double>(stats.max_worker_detail_rows);
  state.counters["scan_work_multiplier"] =
      static_cast<double>(stats.detail_rows_scanned) / kSkewRows;
  bench::TagConfig(state, options);
}
BENCHMARK(BM_StaticVsMorselSkew)
    ->ArgPair(0, 0)
    ->ArgPair(1, 0)
    ->ArgPair(0, 8)
    ->ArgPair(1, 8)
    ->ArgPair(0, 11)
    ->ArgPair(1, 11)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mdjoin

int main(int argc, char** argv) {
  return mdjoin::bench::RunBenchMain(argc, argv, "e10");
}
