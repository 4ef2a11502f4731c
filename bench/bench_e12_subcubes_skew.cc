/// E12 (extension) — two ablations beyond the paper's explicit experiments:
///
/// (a) Subcube materialization (§4.4/§6 future work): greedy HRU-style view
///     selection over the lattice, materialized with Theorem 4.5 roll-ups.
///     Compares answering every granularity from k materialized views vs.
///     recomputing each from the detail relation.
///
/// (b) Zipf skew: the MD-join's base index degrades gracefully under heavy
///     key skew (one bucket holds a hot key's rows, but probe count per
///     tuple stays 1); sweeps θ_zipf on the customer dimension.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/mdjoin.h"
#include "cube/base_tables.h"
#include "cube/pipesort.h"
#include "cube/subcube_selection.h"
#include "workload/generators.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using bench::CachedSales;
using bench::DimsTheta;

const std::vector<std::string>& Dims3() {
  static const auto* kDims = new std::vector<std::string>{"prod", "month", "state"};
  return *kDims;
}

void BM_AnswerAllFromSubcubes(benchmark::State& state) {
  const int max_views = static_cast<int>(state.range(0));
  const Table& sales = CachedSales(100000, 200, 50, 12);
  CubeLattice lattice = *CubeLattice::Make(Dims3());
  auto cardinality = *CuboidCardinalities(sales, lattice);
  SubcubeSelection sel = *SelectSubcubesGreedy(lattice, cardinality, max_views);
  std::vector<AggSpec> aggs = {Sum(RCol("sale"), "total")};
  auto materialized = *MaterializeSubcubes(sel, lattice, cardinality, sales, aggs);
  for (auto _ : state) {
    int64_t total_rows = 0;
    for (CuboidMask target : lattice.AllCuboids()) {
      Table answer = *AnswerFromSubcubes(sel, lattice, cardinality, materialized,
                                         aggs, target);
      total_rows += answer.num_rows();
    }
    benchmark::DoNotOptimize(total_rows);
  }
  state.counters["views"] = static_cast<double>(sel.materialized.size());
  state.counters["benefit"] = sel.total_benefit;
}
BENCHMARK(BM_AnswerAllFromSubcubes)->Arg(1)->Arg(3)->Arg(6)->Unit(
    benchmark::kMillisecond);

void BM_AnswerAllFromDetail(benchmark::State& state) {
  const Table& sales = CachedSales(100000, 200, 50, 12);
  CubeLattice lattice = *CubeLattice::Make(Dims3());
  std::vector<AggSpec> aggs = {Sum(RCol("sale"), "total")};
  ExprPtr theta = DimsTheta(Dims3());
  for (auto _ : state) {
    int64_t total_rows = 0;
    for (CuboidMask target : lattice.AllCuboids()) {
      Table base = *GroupingSetsBase(sales, lattice.dims(), {target});
      Table answer = *MdJoin(base, sales, aggs, theta);
      total_rows += answer.num_rows();
    }
    benchmark::DoNotOptimize(total_rows);
  }
}
BENCHMARK(BM_AnswerAllFromDetail)->Unit(benchmark::kMillisecond);

void BM_SkewedMdJoin(benchmark::State& state) {
  const double zipf = static_cast<double>(state.range(0)) / 100.0;
  const Table& sales = CachedSales(100000, 2000, 100, 12, zipf);
  Table base = *GroupByBase(sales, {"cust"});
  ExprPtr theta = Eq(RCol("cust"), BCol("cust"));
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};
  MdJoinStats stats;
  for (auto _ : state) {
    Table out = *MdJoin(base, sales, aggs, theta, {}, &stats);
    benchmark::DoNotOptimize(out.num_rows());
  }
  state.counters["zipf_theta"] = zipf;
  state.counters["base_rows"] = static_cast<double>(base.num_rows());
  state.counters["pairs_per_tuple"] =
      static_cast<double>(stats.candidate_pairs) / 100000.0;
}
BENCHMARK(BM_SkewedMdJoin)->Arg(0)->Arg(60)->Arg(120)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mdjoin

int main(int argc, char** argv) {
  return mdjoin::bench::RunBenchMain(argc, argv, "e12");
}
