/// The one detail-scan kernel against the Definition-3.1 reference
/// (core/reference.h): for every θ shape the kernel grammar distinguishes
/// (typed compares, string equality, IN lists, flipped literals, residuals,
/// computed keys) and every option the evaluator exposes (index on/off,
/// pushdown on/off, multi-pass staging, guard budgets, odd block sizes),
/// MdJoin and GeneralizedMdJoin must produce the reference's table bit for
/// bit, and work counters that agree with it: matched_pairs is the sum of a
/// count(*) column, detail_rows_scanned is |R| × passes. The aggregate list
/// deliberately mixes flat-kernel builtins (count, sum, min, max, avg) with
/// heap-fallback functions (count_distinct, var_pop) and a computed argument,
/// so both state representations run side by side.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/failpoint.h"
#include "core/generalized.h"
#include "core/mdjoin.h"
#include "core/reference.h"
#include "cube/base_tables.h"
#include "expr/conjuncts.h"
#include "parallel/parallel_mdjoin.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using testutil::ALL;
using testutil::F;
using testutil::GeneralizedReference;
using testutil::I;
using testutil::NUL;
using testutil::S;
using testutil::TablesBitIdentical;

/// RandomSales plus NULL-bearing rows: NULL sale (aggregate inputs), NULL
/// month (equi key that matches nothing), NULL state (string kernels).
Table SalesWithNulls(uint64_t seed, int64_t rows) {
  Table t = testutil::RandomSales(seed, rows);
  TableBuilder b(testutil::SalesSchema());
  for (int64_t r = 0; r < t.num_rows(); ++r) b.AppendRowOrDie(t.GetRow(r));
  b.AppendRowOrDie({I(1), I(10), I(1), I(1), I(1997), S("NY"), NUL()});
  b.AppendRowOrDie({I(2), I(20), I(2), NUL(), I(1997), S("CA"), F(75)});
  b.AppendRowOrDie({I(3), I(10), I(3), I(2), I(1999), NUL(), F(33)});
  b.AppendRowOrDie({NUL(), I(20), I(4), I(3), I(1999), S("NJ"), F(12)});
  return std::move(b).Finish();
}

/// Flat kernels (count/sum/min/max/avg), heap fallbacks (count_distinct,
/// var_pop), string extremum, int sum, and a computed argument. The first
/// aggregate is count(*), which the counter checks sum.
std::vector<AggSpec> MixedAggs() {
  std::vector<AggSpec> aggs = {Count("n"),
                               Count(RCol("sale"), "n_sale"),
                               Sum(RCol("sale"), "total"),
                               Sum(RCol("cust"), "cust_sum"),
                               Min(RCol("sale"), "lo"),
                               Max(RCol("sale"), "hi"),
                               Max(RCol("state"), "last_state"),
                               Avg(RCol("sale"), "mean"),
                               CountDistinct(RCol("prod"), "n_prod")};
  aggs.push_back(AggSpec{"var_pop", RCol("sale"), "var"});
  aggs.push_back(Sum(Mul(RCol("sale"), Lit(2.0)), "twice"));
  return aggs;
}

/// θ shapes chosen so each predicate-kernel case (and the per-row fallback)
/// gets exercised, on top of the always-present equi conjunct.
std::vector<ExprPtr> ThetaVariants() {
  std::vector<ExprPtr> thetas;
  // Pure equi (single bucket index).
  thetas.push_back(Eq(RCol("cust"), BCol("cust")));
  // Typed compare kernels: float >, int <= with the literal on the left.
  thetas.push_back(And(Eq(RCol("cust"), BCol("cust")), Gt(RCol("sale"), Lit(100.0)),
                       Le(Lit(2), RCol("month"))));
  // String equality kernel + IN-list kernel.
  thetas.push_back(And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("state"), Lit("NY"))));
  thetas.push_back(And(Eq(RCol("cust"), BCol("cust")),
                       In(RCol("prod"), {Value::Int64(10), Value::Int64(30)})));
  // Detail-only conjunct with no columnar kernel (generic fallback in-block).
  thetas.push_back(
      And(Eq(RCol("cust"), BCol("cust")), Gt(Mul(RCol("sale"), Lit(2)), Lit(150))));
  // Base-only + residual conjuncts, computed equi key.
  thetas.push_back(And(Eq(RCol("cust"), BCol("cust")), Le(BCol("cust"), Lit(4)),
                       Gt(RCol("sale"), Mul(BCol("cust"), Lit(20)))));
  thetas.push_back(And(Eq(RCol("cust"), BCol("cust")),
                       Eq(RCol("month"), Sub(BCol("month"), Lit(1)))));
  // Two equi conjuncts (month key has NULLs on both sides).
  thetas.push_back(
      And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("month"), BCol("month"))));
  return thetas;
}

/// θ-conjuncts the generalized cases share.
ExprPtr CustEq() { return Eq(RCol("cust"), BCol("cust")); }
ExprPtr CustMonthEq() { return And(CustEq(), Eq(RCol("month"), BCol("month"))); }
ExprPtr CustNy() { return And(CustEq(), Eq(RCol("state"), Lit("NY"))); }

/// Sum of an int64 column: for a count(*) column, the number of (b, t) pairs
/// θ matched.
int64_t ColumnSum(const Table& t, const std::string& name) {
  const int c = *t.schema().FindField(name);
  int64_t sum = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) sum += t.Get(r, c).int64();
  return sum;
}

/// Passes the driver must make: ⌈|B| / rows per pass⌉, 0 for an empty B.
int64_t ExpectedPasses(int64_t base_rows, int64_t rows_per_pass) {
  if (rows_per_pass <= 0) rows_per_pass = base_rows;
  return base_rows == 0 ? 0 : (base_rows + rows_per_pass - 1) / rows_per_pass;
}

/// Runs MdJoin and checks it against the reference table `want`: the same
/// table bit for bit, matched_pairs == Σ count(*), detail_rows_scanned ==
/// |R| × passes, and a block scan (blocks > 0).
void ExpectMatchesReference(const Table& want, const Table& base, const Table& detail,
                            const std::vector<AggSpec>& aggs, const ExprPtr& theta,
                            const MdJoinOptions& options,
                            MdJoinStats* out_stats = nullptr) {
  MdJoinStats stats;
  Result<Table> got = MdJoin(base, detail, aggs, theta, options, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString() << " θ=" << theta->ToString();
  EXPECT_TRUE(TablesBitIdentical(want, *got)) << "θ=" << theta->ToString();
  EXPECT_EQ(stats.matched_pairs, ColumnSum(want, "n")) << "θ=" << theta->ToString();
  EXPECT_EQ(stats.passes_over_detail,
            ExpectedPasses(base.num_rows(), stats.base_rows_per_pass_effective));
  EXPECT_EQ(stats.detail_rows_scanned, detail.num_rows() * stats.passes_over_detail);
  EXPECT_GT(stats.blocks, 0);
  if (out_stats != nullptr) *out_stats = stats;
}

class VectorizedAB : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    FailpointRegistry::Global()->Reset();
    sales_ = SalesWithNulls(GetParam(), 200);
    base_ = *GroupByBase(sales_, {"cust", "month"});
  }
  void TearDown() override { FailpointRegistry::Global()->Reset(); }

  Table sales_;
  Table base_;
};

TEST_P(VectorizedAB, OptionsMatrix) {
  for (const ExprPtr& theta : ThetaVariants()) {
    Result<Table> want = MdJoinReference(base_, sales_, MixedAggs(), theta);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    for (bool use_index : {true, false}) {
      for (bool pushdown : {true, false}) {
        for (int64_t rows_per_pass : {int64_t{0}, int64_t{3}}) {
          MdJoinOptions options;
          options.use_index = use_index;
          options.push_detail_selection = pushdown;
          options.base_rows_per_pass = rows_per_pass;
          ExpectMatchesReference(*want, base_, sales_, MixedAggs(), theta, options);
        }
      }
    }
  }
}

TEST_P(VectorizedAB, OddBlockSizesCoverPartialBlocks) {
  ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")), Gt(RCol("sale"), Lit(50.0)));
  Result<Table> want = MdJoinReference(base_, sales_, MixedAggs(), theta);
  ASSERT_TRUE(want.ok());
  MdJoinStats first;
  for (int block_size : {1, 7, 64, 100000}) {
    MdJoinOptions options;
    options.block_size = block_size;
    MdJoinStats stats;
    ExpectMatchesReference(*want, base_, sales_, MixedAggs(), theta, options, &stats);
    if (block_size == 1) {
      first = stats;
      continue;
    }
    // Block shape is an execution detail: every work counter must agree.
    EXPECT_EQ(stats.detail_rows_qualified, first.detail_rows_qualified) << block_size;
    EXPECT_EQ(stats.candidate_pairs, first.candidate_pairs) << block_size;
    EXPECT_EQ(stats.index_masks, first.index_masks) << block_size;
  }
}

TEST_P(VectorizedAB, CubeBaseWithAllMarkers) {
  // Cube base: ALL markers in key positions, multiple index mask buckets.
  Table cube = *CubeByBase(sales_, {"prod", "month"});
  ExprPtr theta = And(Eq(RCol("prod"), BCol("prod")), Eq(RCol("month"), BCol("month")),
                      Gt(RCol("sale"), Lit(30.0)));
  Result<Table> want = MdJoinReference(cube, sales_, MixedAggs(), theta);
  ASSERT_TRUE(want.ok());
  for (bool use_index : {true, false}) {
    MdJoinOptions options;
    options.use_index = use_index;
    ExpectMatchesReference(*want, cube, sales_, MixedAggs(), theta, options);
  }
}

TEST_P(VectorizedAB, EmptyRngGroupsKeepIdentityValues) {
  // A base built from different data: many groups have empty RNG(b, R, θ)
  // and must finalize to the aggregate identities.
  Table other = SalesWithNulls(GetParam() + 7777, 40);
  Table disjoint_base = *GroupByBase(other, {"cust", "month"});
  ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")),
                      Eq(RCol("month"), BCol("month")), Eq(RCol("state"), Lit("IL")));
  Result<Table> want = MdJoinReference(disjoint_base, sales_, MixedAggs(), theta);
  ASSERT_TRUE(want.ok());
  ExpectMatchesReference(*want, disjoint_base, sales_, MixedAggs(), theta,
                         MdJoinOptions{});
}

TEST_P(VectorizedAB, GuardBudgetDegradesToMultiPass) {
  // A soft memory budget forces multi-pass degradation: more scans of R,
  // the same result, and every reservation returned at the end.
  ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")), Gt(RCol("sale"), Lit(20.0)));
  QueryGuardOptions gopt;
  gopt.memory_budget_bytes =
      MixedAggs().size() * base_.num_rows() * kGuardBytesPerAggState +
      3 * kGuardBytesPerIndexedBaseRow;
  QueryGuard guard(gopt);
  MdJoinOptions options;
  options.guard = &guard;

  Result<Table> want = MdJoinReference(base_, sales_, MixedAggs(), theta);
  ASSERT_TRUE(want.ok());
  MdJoinStats stats;
  ExpectMatchesReference(*want, base_, sales_, MixedAggs(), theta, options, &stats);
  EXPECT_TRUE(stats.memory_degraded);
  EXPECT_EQ(stats.base_rows_per_pass_effective, 3);
  EXPECT_GT(stats.passes_over_detail, 1);
  EXPECT_EQ(guard.bytes_reserved(), 0);
}

TEST_P(VectorizedAB, GeneralizedCubeComponentsKeepIndexesSeparate) {
  // Two components over a cube base (multi-bucket indexes) whose equi keys
  // coincide but whose base-only filters differ: the same probe key must
  // yield different candidate sets per component. Catches any state (e.g. a
  // probe memo) leaking across component indexes in the shared scan.
  Table cube = *CubeByBase(sales_, {"prod", "month"});
  std::vector<MdJoinComponent> components;
  components.push_back(
      {{Count("n_all"), Sum(RCol("sale"), "t_all")},
       And(Eq(RCol("prod"), BCol("prod")), Eq(RCol("month"), BCol("month")))});
  components.push_back(
      {{Count("n_h2"), Sum(RCol("sale"), "t_h2")},
       And(Eq(RCol("prod"), BCol("prod")), Eq(RCol("month"), BCol("month")),
           Gt(BCol("month"), Lit(2)))});

  const Table want = GeneralizedReference(cube, sales_, components);
  MdJoinStats stats;
  Result<Table> got = GeneralizedMdJoin(cube, sales_, components, {}, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(TablesBitIdentical(want, *got));
  EXPECT_EQ(stats.matched_pairs, ColumnSum(want, "n_all") + ColumnSum(want, "n_h2"));
  EXPECT_EQ(stats.detail_rows_scanned, sales_.num_rows());
  EXPECT_GT(stats.index_probe_lookups, 0);
}

TEST_P(VectorizedAB, GeneralizedSharedScanAgrees) {
  const ExprPtr ny = Eq(RCol("state"), Lit("NY"));
  const ExprPtr big = Gt(RCol("sale"), Lit(100.0));
  std::vector<MdJoinComponent> components;
  components.push_back(
      {{Count("ny_n"), Sum(RCol("sale"), "ny_total")}, And(CustEq(), ny)});
  components.push_back(
      {{Count("big_n"), Sum(RCol("sale"), "big_total"), Min(RCol("sale"), "big_lo"),
        CountDistinct(RCol("prod"), "big_prods")},
       And(CustEq(), big)});
  const Table want = GeneralizedReference(base_, sales_, components);

  // With pushdown, a row qualifies when some component's selection keeps it:
  // the reference count of rows satisfying either detail-only conjunct.
  TableBuilder one_row_builder({{"k", DataType::kInt64}});
  one_row_builder.AppendRowOrDie({I(0)});
  const Table one_row = std::move(one_row_builder).Finish();
  Result<Table> either = MdJoinReference(one_row, sales_, {Count("n")}, Or(ny, big));
  ASSERT_TRUE(either.ok());
  const int64_t union_rows = either->Get(0, 1).int64();

  for (bool pushdown : {true, false}) {
    MdJoinOptions options;
    options.push_detail_selection = pushdown;
    MdJoinStats stats;
    Result<Table> got = GeneralizedMdJoin(base_, sales_, components, options, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(TablesBitIdentical(want, *got)) << "pushdown=" << pushdown;
    EXPECT_EQ(stats.passes_over_detail, 1);
    EXPECT_EQ(stats.detail_rows_scanned, sales_.num_rows());
    EXPECT_EQ(stats.detail_rows_qualified, pushdown ? union_rows : sales_.num_rows());
    EXPECT_EQ(stats.matched_pairs, ColumnSum(want, "ny_n") + ColumnSum(want, "big_n"));
    EXPECT_GE(stats.candidate_pairs, stats.matched_pairs);
    EXPECT_GT(stats.blocks, 0);
  }
}

TEST_P(VectorizedAB, GeneralizedFusedComponent) {
  // A component with no equi conjunct and no residual takes the fused
  // predicate+aggregate path inside the shared scan, beside an indexed one.
  Table small_base = *GroupByBase(sales_, {"year"});
  std::vector<MdJoinComponent> components;
  components.push_back({{Count("n_eq"), Avg(RCol("sale"), "avg_eq")},
                        Eq(RCol("year"), BCol("year"))});
  components.push_back({{Count("n_big"), Sum(RCol("sale"), "t_big"),
                         Min(RCol("sale"), "lo_big"), Max(RCol("cust"), "hi_cust")},
                        And(Gt(RCol("sale"), Lit(100.0)), Ne(RCol("state"), Lit("CA")))});
  const Table want = GeneralizedReference(small_base, sales_, components);
  MdJoinStats stats;
  Result<Table> got = GeneralizedMdJoin(small_base, sales_, components, {}, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(TablesBitIdentical(want, *got));
  EXPECT_GT(stats.fused_blocks, 0);
  EXPECT_EQ(stats.fused_blocks, stats.blocks);  // one fused component per block
  EXPECT_EQ(stats.matched_pairs, ColumnSum(want, "n_eq") + ColumnSum(want, "n_big"));
}

TEST_P(VectorizedAB, GeneralizedMultiPassAndSoftBudget) {
  std::vector<MdJoinComponent> components;
  components.push_back({{Count("n"), Sum(RCol("sale"), "total")}, CustMonthEq()});
  components.push_back(
      {{Count("n_ny"), CountDistinct(RCol("prod"), "prods_ny")}, CustNy()});
  const Table want = GeneralizedReference(base_, sales_, components);
  const int64_t state_bytes = 4 * base_.num_rows() * kGuardBytesPerAggState;

  // Theorem 4.1 staging is planned before any worker exists, so every thread
  // count makes the same passes; 32-row morsels give the workers units to
  // share.
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // base_rows_per_pass = 7 under a soft budget roomy enough not to bind:
    // ⌈|B| / 7⌉ passes, each serving both components.
    {
      QueryGuardOptions gopt;
      gopt.memory_budget_bytes = state_bytes + 2 * 100 * kGuardBytesPerIndexedBaseRow;
      QueryGuard guard(gopt);
      MdJoinOptions options;
      options.base_rows_per_pass = 7;
      options.guard = &guard;
      options.num_threads = threads;
      options.morsel_size = 32;
      MdJoinStats stats;
      Result<Table> got = GeneralizedMdJoin(base_, sales_, components, options, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(TablesBitIdentical(want, *got));
      EXPECT_FALSE(stats.memory_degraded);
      EXPECT_EQ(stats.passes_over_detail, (base_.num_rows() + 6) / 7);
      EXPECT_EQ(stats.detail_rows_scanned, sales_.num_rows() * stats.passes_over_detail);
      EXPECT_EQ(stats.matched_pairs, ColumnSum(want, "n") + ColumnSum(want, "n_ny"));
      EXPECT_EQ(stats.num_threads, threads);
      EXPECT_EQ(guard.bytes_reserved(), 0);
    }
    // A soft budget that fits 2 indexed rows per component degrades to
    // ⌈|B| / 2⌉ passes instead of failing.
    {
      QueryGuardOptions gopt;
      gopt.memory_budget_bytes = state_bytes + 2 * 2 * kGuardBytesPerIndexedBaseRow;
      QueryGuard guard(gopt);
      MdJoinOptions options;
      options.guard = &guard;
      options.num_threads = threads;
      options.morsel_size = 32;
      MdJoinStats stats;
      Result<Table> got = GeneralizedMdJoin(base_, sales_, components, options, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(TablesBitIdentical(want, *got));
      EXPECT_TRUE(stats.memory_degraded);
      EXPECT_EQ(stats.base_rows_per_pass_effective, 2);
      EXPECT_EQ(stats.passes_over_detail, (base_.num_rows() + 1) / 2);
      EXPECT_EQ(stats.num_threads, threads);
      EXPECT_EQ(guard.bytes_reserved(), 0);
    }
  }
}

TEST_P(VectorizedAB, GeneralizedSpecialValues) {
  // Detail cells holding NULL, ALL, NaN and ±0 in keys, selections and
  // aggregate arguments.
  Table detail = SalesWithNulls(GetParam(), 120);
  {
    TableBuilder b(testutil::SalesSchema());
    for (int64_t r = 0; r < detail.num_rows(); ++r) b.AppendRowOrDie(detail.GetRow(r));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    b.AppendRowOrDie({I(1), I(10), I(5), ALL(), I(1997), S("NY"), F(-0.0)});
    b.AppendRowOrDie({I(2), I(20), I(6), I(2), I(1998), ALL(), F(0.0)});
    b.AppendRowOrDie({I(3), I(30), I(7), I(3), I(1999), S("NJ"), F(nan)});
    b.AppendRowOrDie({ALL(), I(10), I(8), I(1), I(1996), S("CT"), F(-0.0)});
    b.AppendRowOrDie({I(4), NUL(), I(9), I(4), I(1997), S("NY"), F(nan)});
    b.AppendRowOrDie({I(1), I(20), I(10), I(1), I(1997), S("CA"), F(0.0)});
    detail = std::move(b).Finish();
  }
  Table base = *GroupByBase(detail, {"cust", "month"});
  std::vector<MdJoinComponent> components;
  components.push_back({{Count("n"), Sum(RCol("sale"), "total"), Min(RCol("sale"), "lo"),
                         Max(RCol("sale"), "hi"), Avg(RCol("sale"), "mean")},
                        CustMonthEq()});
  components.push_back({{Count("n_ny"), Min(RCol("sale"), "lo_ny")}, CustNy()});
  components.push_back({{Count("n_pos"), Max(RCol("sale"), "hi_pos"),
                         Sum(RCol("sale"), "t_pos")},
                        Ge(RCol("sale"), Lit(0.0))});
  const Table want = GeneralizedReference(base, detail, components);
  for (bool use_index : {true, false}) {
    MdJoinOptions options;
    options.use_index = use_index;
    MdJoinStats stats;
    Result<Table> got = GeneralizedMdJoin(base, detail, components, options, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(TablesBitIdentical(want, *got)) << "use_index=" << use_index;
    EXPECT_EQ(stats.matched_pairs, ColumnSum(want, "n") + ColumnSum(want, "n_ny") +
                                       ColumnSum(want, "n_pos"));
  }
}

TEST_P(VectorizedAB, GeneralizedCancelMidScanReleasesReservations) {
  Table sales = testutil::RandomSales(GetParam() + 101, 2000);
  Table base = *GroupByBase(sales, {"cust"});
  std::vector<MdJoinComponent> components;
  components.push_back({{Count("n")}, CustEq()});
  components.push_back(
      {{Sum(RCol("sale"), "big")}, And(CustEq(), Gt(RCol("sale"), Lit(100.0)))});
  QueryGuardOptions gopt;
  gopt.check_stride = 64;
  gopt.memory_budget_bytes = int64_t{1} << 30;
  QueryGuard guard(gopt);
  MdJoinOptions options;
  options.guard = &guard;
  // Skip the entry check and the first stride so the cancel lands mid-scan.
  FailpointRegistry::Global()->Enable("query_guard:cancel", /*count=*/1, /*skip=*/2);
  MdJoinStats stats;
  Result<Table> got = GeneralizedMdJoin(base, sales, components, options, &stats);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
  EXPECT_GT(stats.detail_rows_scanned, 0);
  EXPECT_LT(stats.detail_rows_scanned, sales.num_rows());
  EXPECT_EQ(guard.bytes_reserved(), 0);
}

TEST_P(VectorizedAB, ParallelVariantsAgree) {
  ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")), Gt(RCol("sale"), Lit(60.0)));
  Result<Table> want = MdJoinReference(base_, sales_, MixedAggs(), theta);
  ASSERT_TRUE(want.ok());
  MdJoinStats base_split_stats, detail_split_stats;
  Result<Table> base_split =
      ParallelMdJoin(base_, sales_, MixedAggs(), theta, /*num_partitions=*/3,
                     /*num_threads=*/2, {}, &base_split_stats);
  MdJoinOptions threaded;
  threaded.num_threads = 2;
  threaded.morsel_size = 32;
  Result<Table> detail_split =
      MdJoin(base_, sales_, MixedAggs(), theta, threaded, &detail_split_stats);
  ASSERT_TRUE(base_split.ok()) << base_split.status().ToString();
  ASSERT_TRUE(detail_split.ok()) << detail_split.status().ToString();
  EXPECT_TRUE(TablesBitIdentical(*want, *base_split));
  EXPECT_TRUE(TablesBitIdentical(*want, *detail_split));
  EXPECT_GT(base_split_stats.blocks, 0);
  EXPECT_GT(detail_split_stats.blocks, 0);
  EXPECT_EQ(base_split_stats.matched_pairs, ColumnSum(*want, "n"));
  EXPECT_EQ(detail_split_stats.matched_pairs, ColumnSum(*want, "n"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorizedAB, ::testing::Values(1, 2, 3, 4, 5),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace mdjoin
