/// Morsel-driven parallel MD-join coverage: scheduler unit behavior
/// (complete, disjoint coverage of the unit space under concurrent pulls),
/// results bit-identical to the Definition-3.1 reference across thread
/// counts, morsel sizes, and θ shapes for the base split (ParallelMdJoin),
/// the detail split (MdJoin and GeneralizedMdJoin with num_threads), executor
/// routing via MdJoinOptions::num_threads, failpoint-driven cancellation
/// landing mid-morsel, and the guard short-circuit inside the partial-state
/// merge.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/query_guard.h"
#include "core/detail_scan.h"
#include "core/generalized.h"
#include "core/mdjoin.h"
#include "core/morsel_scheduler.h"
#include "core/reference.h"
#include "cube/base_tables.h"
#include "optimizer/executor.h"
#include "optimizer/plan.h"
#include "parallel/parallel_mdjoin.h"
#include "ra/group_by.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT

class MorselTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Global()->Reset(); }
  void TearDown() override { FailpointRegistry::Global()->Reset(); }
};

TEST_F(MorselTest, SchedulerCoversUnitSpaceExactlyOnce) {
  MorselScheduler sched(/*num_jobs=*/3, /*rows_per_job=*/10, /*morsel_size=*/4);
  // 10 rows at morsel 4 → 3 morsels per job, 9 units total.
  EXPECT_EQ(sched.total_morsels(), 9);
  std::set<std::pair<int64_t, int64_t>> seen;  // (job, lo)
  MorselScheduler::Morsel m;
  while (sched.Next(&m)) {
    EXPECT_GE(m.job, 0);
    EXPECT_LT(m.job, 3);
    EXPECT_LT(m.lo, m.hi);
    EXPECT_LE(m.hi, 10);
    EXPECT_LE(m.hi - m.lo, 4);
    EXPECT_TRUE(seen.emplace(m.job, m.lo).second) << "unit dispatched twice";
  }
  EXPECT_EQ(seen.size(), 9u);
  EXPECT_EQ(sched.dispatched(), 9);
  // One drained poll: the while-loop's terminating Next().
  EXPECT_EQ(sched.steal_waits(), 1);
  // Each job's morsels tile [0, 10) with no gaps.
  for (int64_t job = 0; job < 3; ++job) {
    EXPECT_TRUE(seen.count({job, 0}) && seen.count({job, 4}) && seen.count({job, 8}));
  }
}

TEST_F(MorselTest, SchedulerDegenerateInputs) {
  MorselScheduler empty(/*num_jobs=*/4, /*rows_per_job=*/0, /*morsel_size=*/16);
  MorselScheduler::Morsel m;
  EXPECT_EQ(empty.total_morsels(), 0);
  EXPECT_FALSE(empty.Next(&m));
  EXPECT_EQ(empty.dispatched(), 0);

  // morsel_size < 1 is treated as 1 row per unit.
  MorselScheduler tiny(/*num_jobs=*/1, /*rows_per_job=*/3, /*morsel_size=*/0);
  EXPECT_EQ(tiny.total_morsels(), 3);
  EXPECT_EQ(tiny.morsel_size(), 1);

  // Oversized morsel: one unit spanning the whole relation (the legacy
  // static-split degenerate case).
  MorselScheduler one(/*num_jobs=*/2, /*rows_per_job=*/5, /*morsel_size=*/1000);
  EXPECT_EQ(one.total_morsels(), 2);
  ASSERT_TRUE(one.Next(&m));
  EXPECT_EQ(m.lo, 0);
  EXPECT_EQ(m.hi, 5);
}

TEST_F(MorselTest, SchedulerConcurrentPullsAreDisjointAndComplete) {
  const int64_t jobs = 5, rows = 1000, morsel = 7;
  MorselScheduler sched(jobs, rows, morsel);
  const int64_t per_job = (rows + morsel - 1) / morsel;
  constexpr int kThreads = 8;
  std::vector<std::vector<MorselScheduler::Morsel>> pulled(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      MorselScheduler::Morsel m;
      while (sched.Next(&m)) pulled[static_cast<size_t>(t)].push_back(m);
    });
  }
  for (std::thread& th : threads) th.join();

  std::set<std::pair<int64_t, int64_t>> seen;
  int64_t covered_rows = 0;
  for (const auto& list : pulled) {
    for (const MorselScheduler::Morsel& m : list) {
      EXPECT_TRUE(seen.emplace(m.job, m.lo).second) << "unit dispatched twice";
      covered_rows += m.hi - m.lo;
    }
  }
  EXPECT_EQ(static_cast<int64_t>(seen.size()), jobs * per_job);
  EXPECT_EQ(covered_rows, jobs * rows);
  EXPECT_EQ(sched.dispatched(), sched.total_morsels());
  // Every worker's pull loop ends on a failed poll.
  EXPECT_GE(sched.steal_waits(), kThreads);
}

/// The determinism matrix of the acceptance criteria: for every θ shape,
/// thread count, and morsel size — including morsel 1 (maximum interleaving)
/// and morsel |R| (the legacy static split) — the base split, the detail
/// split and the sequential evaluator must produce exactly the reference's
/// table, bit for bit; the sales amounts are integer-valued so float sums
/// are exact under any merge order. count_distinct keeps a heap-fallback
/// column in the partials, so the per-cell virtual Merge inside
/// MergeWorkerPartials runs too. A k = 3 generalized shape (Example 2.2's
/// tri-state pivot) runs the same thread × morsel matrix.
TEST_F(MorselTest, BitIdenticalAcrossThreadsMorselsAndThetaShapes) {
  Table sales = testutil::RandomSales(71, 400);
  Table flat_base = *GroupByBase(sales, {"cust", "month"});
  Table cust_base = *GroupByBase(sales, {"cust"});
  Table cube_base = *CubeByBase(sales, {"prod", "month"});

  struct Shape {
    const char* name;
    const Table* base;
    ExprPtr theta;
  };
  std::vector<Shape> shapes = {
      {"cust", &cust_base, Eq(RCol("cust"), BCol("cust"))},
      {"equi", &flat_base,
       And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("month"), BCol("month")))},
      {"equi+residual", &flat_base,
       And(Eq(RCol("cust"), BCol("cust")), Ge(RCol("month"), BCol("month")))},
      {"cube", &cube_base,
       And(Eq(RCol("prod"), BCol("prod")), Eq(RCol("month"), BCol("month")),
           Gt(RCol("sale"), Lit(30.0)))},
  };
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total"),
                               Min(RCol("sale"), "lo"), Avg(RCol("sale"), "a"),
                               CountDistinct(RCol("prod"), "dp")};

  for (const Shape& shape : shapes) {
    Result<Table> reference = MdJoinReference(*shape.base, sales, aggs, shape.theta);
    ASSERT_TRUE(reference.ok()) << shape.name;
    Result<Table> sequential = MdJoin(*shape.base, sales, aggs, shape.theta);
    ASSERT_TRUE(sequential.ok()) << shape.name;
    EXPECT_TRUE(testutil::TablesBitIdentical(*reference, *sequential)) << shape.name;
    for (int threads : {1, 2, 8}) {
      for (int64_t morsel : {int64_t{1}, int64_t{37}, int64_t{1024}, sales.num_rows()}) {
        MdJoinOptions options;
        options.morsel_size = morsel;
        MdJoinStats stats;
        Result<Table> split = ParallelMdJoin(*shape.base, sales, aggs, shape.theta,
                                             /*num_partitions=*/4, threads, options,
                                             &stats);
        ASSERT_TRUE(split.ok()) << shape.name << " threads=" << threads
                                << " morsel=" << morsel << ": "
                                << split.status().ToString();
        EXPECT_TRUE(testutil::TablesBitIdentical(*reference, *split))
            << "base split: " << shape.name << " threads=" << threads
            << " morsel=" << morsel;
        EXPECT_EQ(stats.detail_rows_scanned, 4 * sales.num_rows());

        options.num_threads = threads;
        Result<Table> detail =
            MdJoin(*shape.base, sales, aggs, shape.theta, options, &stats);
        ASSERT_TRUE(detail.ok()) << shape.name << " threads=" << threads
                                 << " morsel=" << morsel << ": "
                                 << detail.status().ToString();
        EXPECT_TRUE(testutil::TablesBitIdentical(*reference, *detail))
            << "detail split: " << shape.name << " threads=" << threads
            << " morsel=" << morsel;
        EXPECT_EQ(stats.detail_rows_scanned, sales.num_rows());
      }
    }
  }

  const std::vector<MdJoinComponent> tri_state = testutil::TriStateComponents();
  const Table tri_reference =
      testutil::GeneralizedReference(cust_base, sales, tri_state);
  for (int threads : {1, 2, 8}) {
    for (int64_t morsel : {int64_t{1}, int64_t{37}, int64_t{1024}, sales.num_rows()}) {
      MdJoinOptions options;
      options.num_threads = threads;
      options.morsel_size = morsel;
      MdJoinStats stats;
      Result<Table> got = GeneralizedMdJoin(cust_base, sales, tri_state, options, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(testutil::TablesBitIdentical(tri_reference, *got))
          << "tri-state: threads=" << threads << " morsel=" << morsel;
      EXPECT_EQ(stats.detail_rows_scanned, sales.num_rows());
    }
  }
}

TEST_F(MorselTest, ExecutorRoutesThroughMorselEngine) {
  Table sales = testutil::RandomSales(79, 350);
  Table base = *GroupByBase(sales, {"cust"});
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  ASSERT_TRUE(catalog.Register("Base", &base).ok());
  PlanPtr plan = MdJoinPlan(TableRef("Base"), TableRef("Sales"),
                            {Count("n"), Sum(RCol("sale"), "total")},
                            Eq(RCol("cust"), BCol("cust")));

  ExecStats seq_stats;
  Result<Table> sequential = ExecutePlan(plan, catalog, {}, &seq_stats);
  ASSERT_TRUE(sequential.ok());

  MdJoinOptions options;
  options.num_threads = 4;
  ExecStats par_stats;
  Result<Table> parallel = ExecutePlan(plan, catalog, options, &par_stats);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_TRUE(TablesEqualOrdered(*sequential, *parallel));
  // Detail split: one logical scan of R either way.
  EXPECT_EQ(par_stats.detail_rows_scanned, seq_stats.detail_rows_scanned);
  EXPECT_EQ(par_stats.matched_pairs, seq_stats.matched_pairs);
}

TEST_F(MorselTest, CancelLandsMidMorselWithinStride) {
  Table sales = testutil::RandomSales(83, 2000);
  Table base = *GroupByBase(sales, {"cust"});
  std::vector<AggSpec> aggs = {Count("n")};
  ExprPtr theta = Eq(RCol("cust"), BCol("cust"));

  for (int variant = 0; variant < 2; ++variant) {
    FailpointRegistry::Global()->Reset();
    // Skip the entry check and a few worker strides so the cancel fires
    // while morsels are in flight, then verify cooperative shutdown.
    FailpointRegistry::Global()->Enable("query_guard:cancel", /*count=*/1, /*skip=*/4);
    QueryGuardOptions guard_options;
    guard_options.check_stride = 64;
    QueryGuard guard(guard_options);
    MdJoinOptions options;
    options.guard = &guard;
    options.morsel_size = 64;  // many small morsels in flight
    options.num_threads = 4;
    MdJoinStats stats;
    Result<Table> result =
        variant == 0 ? ParallelMdJoin(base, sales, aggs, theta, 4, 4, options, &stats)
                     : MdJoin(base, sales, aggs, theta, options, &stats);
    ASSERT_FALSE(result.ok()) << "variant=" << variant;
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << "variant=" << variant;
    // The cursor stopped being drained once the trip propagated.
    EXPECT_LT(stats.detail_rows_scanned,
              (variant == 0 ? 4 : 1) * sales.num_rows())
        << "variant=" << variant;
  }
}

TEST_F(MorselTest, WorkerFailpointPropagatesFirstError) {
  Table sales = testutil::RandomSales(89, 500);
  Table base = *GroupByBase(sales, {"cust"});
  FailpointRegistry::Global()->Enable("parallel:fragment_error", /*count=*/1);
  MdJoinOptions options;
  options.morsel_size = 32;
  Result<Table> result = ParallelMdJoin(base, sales, {Count("n")},
                                        Eq(RCol("cust"), BCol("cust")), 4, 4, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("parallel:fragment_error"),
            std::string::npos);
}

/// Regression for the merge-tail guard gap: cancellation must be honored
/// inside the column MergeRange chunks — flat columns and the heap-fallback
/// column of count_distinct alike — not only during scans. A pre-cancelled
/// stride-1 guard has to stop the merge at its first tick.
TEST_F(MorselTest, MergeShortCircuitsOnCancelledGuard) {
  Table sales = testutil::RandomSales(97, 50);
  Table base = *GroupByBase(sales, {"cust"});
  Result<std::vector<ScanComponent>> comps = BindComponents(
      "test", base, sales,
      {MdJoinComponent{{Count("n"), CountDistinct(RCol("prod"), "dp")},
                       Eq(RCol("cust"), BCol("cust"))}},
      MdJoinOptions{});
  ASSERT_TRUE(comps.ok()) << comps.status().ToString();

  QueryGuardOptions guard_options;
  guard_options.check_stride = 1;
  QueryGuard guard(guard_options);
  DetailScanWorker into(base, *comps, &guard);
  DetailScanWorker from(base, *comps, &guard);
  ASSERT_FALSE(into.cols[1].is_flat());  // the heap-fallback column
  guard.Cancel();
  Status st = MergeWorkerPartials(&into, from, &guard);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace mdjoin
