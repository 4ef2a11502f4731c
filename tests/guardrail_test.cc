/// Query-guardrail coverage: cooperative cancellation (before and mid-scan,
/// observed within one check stride), deadlines, memory accounting with
/// graceful degradation to multi-pass (Theorem 4.1), row/pair work budgets,
/// first-error-wins propagation out of the parallel paths, failpoint-driven
/// fault injection, and the hardened ThreadPool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/failpoint.h"
#include "common/query_guard.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "obs/trace.h"
#include "core/generalized.h"
#include "core/incremental.h"
#include "core/mdjoin.h"
#include "cube/base_tables.h"
#include "optimizer/executor.h"
#include "optimizer/plan.h"
#include "parallel/parallel_mdjoin.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT

ExprPtr CustTheta() { return Eq(RCol("cust"), BCol("cust")); }

/// Resets the global failpoint registry around every test so armed points
/// never leak across tests.
class GuardrailTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Global()->Reset(); }
  void TearDown() override { FailpointRegistry::Global()->Reset(); }
};

TEST_F(GuardrailTest, CancelBeforeScanAllPaths) {
  Table sales = testutil::RandomSales(41, 300);
  Table base = *GroupByBase(sales, {"cust"});
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};

  QueryGuard guard;
  guard.Cancel();
  MdJoinOptions options;
  options.guard = &guard;

  Result<Table> classic = MdJoin(base, sales, aggs, CustTheta(), options);
  ASSERT_FALSE(classic.ok());
  EXPECT_EQ(classic.status().code(), StatusCode::kCancelled);

  Result<Table> parallel =
      ParallelMdJoin(base, sales, aggs, CustTheta(), 4, 2, options);
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.status().code(), StatusCode::kCancelled);

  MdJoinOptions threaded = options;
  threaded.num_threads = 2;
  Result<Table> split = MdJoin(base, sales, aggs, CustTheta(), threaded);
  ASSERT_FALSE(split.ok());
  EXPECT_EQ(split.status().code(), StatusCode::kCancelled);

  std::vector<MdJoinComponent> components = {{aggs, CustTheta()}};
  Result<Table> generalized = GeneralizedMdJoin(base, sales, components, options);
  ASSERT_FALSE(generalized.ok());
  EXPECT_EQ(generalized.status().code(), StatusCode::kCancelled);
}

TEST_F(GuardrailTest, CancelMidScanObservedWithinStride) {
  Table sales = testutil::RandomSales(43, 2000);
  Table base = *GroupByBase(sales, {"cust"});
  std::vector<AggSpec> aggs = {Count("n")};

  // The failpoint fires inside QueryGuard::Check at a stride boundary, which
  // is exactly where a concurrent Cancel() would first be seen. Skip the
  // first two checks (operator entry + first stride) so the cancel lands
  // mid-scan, then verify it is observed within one further stride.
  const int64_t stride = 64;
  QueryGuardOptions guard_options;
  guard_options.check_stride = stride;
  QueryGuard guard(guard_options);
  MdJoinOptions options;
  options.guard = &guard;
  FailpointRegistry::Global()->Enable("query_guard:cancel", /*count=*/1, /*skip=*/2);

  MdJoinStats stats;
  Result<Table> result = MdJoin(base, sales, aggs, CustTheta(), options, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // Two checks passed (entry + one stride of 64 rows), the third cancelled:
  // the scan stopped after at most two strides of detail rows.
  EXPECT_GT(stats.detail_rows_scanned, 0);
  EXPECT_LE(stats.detail_rows_scanned, 2 * stride);
  EXPECT_LT(stats.detail_rows_scanned, sales.num_rows());
}

TEST_F(GuardrailTest, CancelMidScanParallelPaths) {
  Table sales = testutil::RandomSales(45, 2000);
  Table base = *GroupByBase(sales, {"cust"});
  std::vector<AggSpec> aggs = {Count("n")};

  for (int variant = 0; variant < 2; ++variant) {
    FailpointRegistry::Global()->Reset();
    FailpointRegistry::Global()->Enable("query_guard:cancel", /*count=*/1,
                                        /*skip=*/4);
    QueryGuardOptions guard_options;
    guard_options.check_stride = 64;
    QueryGuard guard(guard_options);
    MdJoinOptions options;
    options.guard = &guard;
    options.num_threads = 2;
    Result<Table> result =
        variant == 0 ? ParallelMdJoin(base, sales, aggs, CustTheta(), 4, 2, options)
                     : MdJoin(base, sales, aggs, CustTheta(), options);
    ASSERT_FALSE(result.ok()) << "variant=" << variant;
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << "variant=" << variant;
  }
}

TEST_F(GuardrailTest, CancelledQueryProfileStillWellFormed) {
  // A query tripped mid-scan must still leave a coherent observability
  // record: a profile tree with partial counts, a non-ok terminal event, a
  // guard-trip instant in the trace, and a guard-trip counter increment.
  Table sales = testutil::RandomSales(49, 2000);
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  PlanPtr base =
      DistinctPlan(ProjectPlan(TableRef("Sales"), {{Col("cust"), "cust"}}));
  PlanPtr plan = MdJoinPlan(base, TableRef("Sales"), {Count("n")}, CustTheta());

  QueryGuardOptions guard_options;
  guard_options.check_stride = 64;
  QueryGuard guard(guard_options);
  MdJoinOptions options;
  options.guard = &guard;
  // Every executor node gate evaluates the failpoint too (five plan nodes),
  // then the scan's entry check: skipping ten lands the cancel a few strides
  // into the detail scan, with partial counts already accumulated.
  FailpointRegistry::Global()->Enable("query_guard:cancel", /*count=*/1,
                                      /*skip=*/10);

  Counter* trips = MetricsRegistry::Global().GetCounter("mdjoin_guard_trips_total");
  Counter* cancelled =
      MetricsRegistry::Global().GetCounter("mdjoin_guard_trips_cancelled_total");
  const int64_t trips_before = trips->value();
  const int64_t cancelled_before = cancelled->value();

  Tracing::Start();
  QueryProfile profile;
  Result<Table> result = ExplainAnalyze(plan, catalog, options, &profile);
  Tracing::Stop();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  // The profile is well-formed despite the failure.
  ASSERT_NE(profile.root, nullptr);
  EXPECT_FALSE(profile.complete);
  EXPECT_NE(profile.terminal, "ok");
  EXPECT_NE(profile.terminal.find("Cancelled"), std::string::npos);
  EXPECT_GE(profile.total_ms, 0);
  // Partial scan counts from the strides that ran before the trip.
  EXPECT_TRUE(profile.root->is_mdjoin);
  EXPECT_GT(profile.root->detail_rows_scanned, 0);
  EXPECT_LT(profile.root->detail_rows_scanned, sales.num_rows());
  // The base subtree completed before the join started scanning.
  ASSERT_EQ(profile.root->children.size(), 2u);
  EXPECT_GT(profile.root->children[0]->output_rows, 0);
  // Rendering still works and carries the terminal event.
  std::string text = profile.ToText();
  EXPECT_NE(text.find("terminal: "), std::string::npos);
  EXPECT_NE(text.find("Cancelled"), std::string::npos);
  std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"complete\": false"), std::string::npos);
  EXPECT_NE(json.find("Cancelled"), std::string::npos);

  // The trip surfaced as a trace instant and a counter increment.
  EXPECT_EQ(trips->value(), trips_before + 1);
  EXPECT_EQ(cancelled->value(), cancelled_before + 1);
  bool saw_trip = false;
  for (const TraceEvent& e : Tracing::Snapshot()) {
    if (std::string(e.name) == "guard_trip") saw_trip = true;
  }
  EXPECT_TRUE(saw_trip);
}

TEST_F(GuardrailTest, DeadlineExpires) {
  Table sales = testutil::RandomSales(47, 200);
  Table base = *GroupByBase(sales, {"cust"});

  QueryGuardOptions guard_options;
  guard_options.timeout_ms = 1;
  QueryGuard guard(guard_options);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  MdJoinOptions options;
  options.guard = &guard;
  Result<Table> result = MdJoin(base, sales, {Count("n")}, CustTheta(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("deadline"), std::string::npos);
}

TEST_F(GuardrailTest, MemoryBudgetDegradesToMultiPass) {
  Table sales = testutil::RandomSales(49, 600);
  Table base = *GroupByBase(sales, {"cust", "month"});
  ExprPtr theta =
      And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("month"), BCol("month")));
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};

  MdJoinStats unguarded_stats;
  Result<Table> unguarded = MdJoin(base, sales, aggs, theta, {}, &unguarded_stats);
  ASSERT_TRUE(unguarded.ok());
  ASSERT_EQ(unguarded_stats.passes_over_detail, 1);

  // Budget: full state footprint plus index room for ~1/3 of the base rows.
  const int64_t n = base.num_rows();
  const int64_t per_pass_rows = std::max<int64_t>(1, n / 3);
  QueryGuardOptions guard_options;
  guard_options.memory_budget_bytes =
      static_cast<int64_t>(aggs.size()) * n * kGuardBytesPerAggState +
      per_pass_rows * kGuardBytesPerIndexedBaseRow;
  QueryGuard guard(guard_options);
  MdJoinOptions options;
  options.guard = &guard;

  MdJoinStats stats;
  Result<Table> guarded = MdJoin(base, sales, aggs, theta, options, &stats);
  ASSERT_TRUE(guarded.ok()) << guarded.status().ToString();
  EXPECT_TRUE(stats.memory_degraded);
  EXPECT_LE(stats.base_rows_per_pass_effective, per_pass_rows);
  EXPECT_GT(stats.passes_over_detail, 1);
  // Theorem 4.1: the multi-pass evaluation is result-identical, it only
  // trades extra scans of R for the smaller per-pass index.
  EXPECT_TRUE(TablesEqualOrdered(*unguarded, *guarded));
  EXPECT_EQ(stats.detail_rows_scanned,
            stats.passes_over_detail * sales.num_rows());
}

TEST_F(GuardrailTest, MemoryHardLimitFails) {
  Table sales = testutil::RandomSales(51, 200);
  Table base = *GroupByBase(sales, {"cust"});

  QueryGuardOptions guard_options;
  guard_options.memory_hard_limit_bytes = 64;  // nothing fits
  QueryGuard guard(guard_options);
  MdJoinOptions options;
  options.guard = &guard;
  Result<Table> result = MdJoin(base, sales, {Count("n")}, CustTheta(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("hard limit"), std::string::npos);
}

TEST_F(GuardrailTest, DetailRowAndPairBudgets) {
  Table sales = testutil::RandomSales(53, 500);
  Table base = *GroupByBase(sales, {"cust"});

  {
    QueryGuardOptions guard_options;
    guard_options.max_detail_rows = 100;
    guard_options.check_stride = 32;
    QueryGuard guard(guard_options);
    MdJoinOptions options;
    options.guard = &guard;
    Result<Table> result = MdJoin(base, sales, {Count("n")}, CustTheta(), options);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsResourceExhausted());
    EXPECT_NE(result.status().message().find("detail-row budget"), std::string::npos);
  }
  {
    QueryGuardOptions guard_options;
    guard_options.max_candidate_pairs = 50;
    guard_options.check_stride = 32;
    QueryGuard guard(guard_options);
    MdJoinOptions options;
    options.guard = &guard;
    Result<Table> result = MdJoin(base, sales, {Count("n")}, CustTheta(), options);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsResourceExhausted());
    EXPECT_NE(result.status().message().find("candidate-pair budget"),
              std::string::npos);
  }
}

TEST_F(GuardrailTest, GuardedRunMatchesUnguardedAndAccountsWork) {
  Table sales = testutil::RandomSales(55, 400);
  Table base = *GroupByBase(sales, {"cust"});
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};

  Result<Table> unguarded = MdJoin(base, sales, aggs, CustTheta());
  ASSERT_TRUE(unguarded.ok());

  QueryGuard guard;  // no limits: pure observation
  MdJoinOptions options;
  options.guard = &guard;
  MdJoinStats stats;
  Result<Table> guarded = MdJoin(base, sales, aggs, CustTheta(), options, &stats);
  ASSERT_TRUE(guarded.ok());
  EXPECT_TRUE(TablesEqualOrdered(*unguarded, *guarded));
  // GuardTicket::Finish flushes the tail, so accounting is exact.
  EXPECT_EQ(guard.detail_rows_seen(), stats.detail_rows_scanned);
  EXPECT_EQ(guard.candidate_pairs_seen(), stats.candidate_pairs);
  EXPECT_GT(guard.bytes_high_water(), 0);
  EXPECT_EQ(guard.bytes_reserved(), 0);  // everything released
}

TEST_F(GuardrailTest, ParallelFragmentErrorFirstErrorWins) {
  Table sales = testutil::RandomSales(57, 400);
  Table base = *GroupByBase(sales, {"cust"});
  std::vector<AggSpec> aggs = {Count("n")};

  FailpointRegistry::Global()->Enable("parallel:fragment_error", /*count=*/1);
  Result<Table> result = ParallelMdJoin(base, sales, aggs, CustTheta(), 4, 2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("parallel:fragment_error"),
            std::string::npos);

  FailpointRegistry::Global()->Reset();
  FailpointRegistry::Global()->Enable("parallel:fragment_error", /*count=*/1);
  MdJoinOptions threaded;
  threaded.num_threads = 2;
  result = MdJoin(base, sales, aggs, CustTheta(), threaded);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("parallel:fragment_error"),
            std::string::npos);
}

TEST_F(GuardrailTest, ParallelNullThetaSymmetry) {
  Table sales = testutil::SmallSales();
  Table base = *GroupByBase(sales, {"cust"});
  // Both entry points reject a null θ the same way (this was asymmetric).
  Result<Table> a = ParallelMdJoin(base, sales, {Count("n")}, nullptr, 2, 2);
  ASSERT_FALSE(a.ok());
  EXPECT_TRUE(a.status().IsInvalidArgument());
  MdJoinOptions threaded;
  threaded.num_threads = 2;
  Result<Table> b = MdJoin(base, sales, {Count("n")}, nullptr, threaded);
  ASSERT_FALSE(b.ok());
  EXPECT_TRUE(b.status().IsInvalidArgument());
}

TEST_F(GuardrailTest, ParallelStatsAggregateAcrossFragments) {
  Table sales = testutil::RandomSales(59, 400);
  Table base = *GroupByBase(sales, {"cust"});
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};

  MdJoinStats seq;
  ASSERT_TRUE(MdJoin(base, sales, aggs, CustTheta(), {}, &seq).ok());

  const int partitions = 4;
  MdJoinStats base_split;
  ASSERT_TRUE(ParallelMdJoin(base, sales, aggs, CustTheta(), partitions, 2, {},
                             &base_split)
                  .ok());
  // Theorem 4.1 split: every fragment scans all of R; base rows (and thus
  // candidate/matched pairs) partition across fragments.
  EXPECT_EQ(base_split.detail_rows_scanned, partitions * sales.num_rows());
  EXPECT_EQ(base_split.detail_rows_qualified, partitions * seq.detail_rows_qualified);
  EXPECT_EQ(base_split.candidate_pairs, seq.candidate_pairs);
  EXPECT_EQ(base_split.matched_pairs, seq.matched_pairs);
  // Morsel scheduling: with the default morsel size (1024 ≥ 400 rows) each
  // fragment is one morsel, all four dispatched. How the two workers split
  // them is a race, so the per-worker extremes only admit loose bounds —
  // pigeonhole guarantees the busiest worker at least half the total.
  EXPECT_EQ(base_split.morsels, partitions);
  EXPECT_GE(base_split.steal_waits, 2);  // each worker's drain probe
  EXPECT_LE(base_split.min_worker_detail_rows, base_split.max_worker_detail_rows);
  EXPECT_GE(base_split.max_worker_detail_rows,
            (base_split.detail_rows_scanned + 1) / 2);
  EXPECT_LE(base_split.max_worker_detail_rows, base_split.detail_rows_scanned);

  MdJoinOptions threaded;
  threaded.num_threads = 2;
  MdJoinStats detail_split;
  ASSERT_TRUE(MdJoin(base, sales, aggs, CustTheta(), threaded, &detail_split).ok());
  // Detail split: R is scanned exactly once in total; every pair is tested
  // exactly once across workers.
  EXPECT_EQ(detail_split.detail_rows_scanned, sales.num_rows());
  EXPECT_EQ(detail_split.detail_rows_qualified, seq.detail_rows_qualified);
  EXPECT_EQ(detail_split.candidate_pairs, seq.candidate_pairs);
  EXPECT_EQ(detail_split.matched_pairs, seq.matched_pairs);
  // 400 detail rows fit in one default-size morsel, so exactly one worker
  // runs and scans everything.
  EXPECT_EQ(detail_split.morsels, 1);
  EXPECT_EQ(detail_split.min_worker_detail_rows, sales.num_rows());
  EXPECT_EQ(detail_split.max_worker_detail_rows, sales.num_rows());
}

TEST_F(GuardrailTest, ExecutorObservesGuard) {
  Table sales = testutil::RandomSales(61, 300);
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  Table base = *GroupByBase(sales, {"cust"});
  ASSERT_TRUE(catalog.Register("Base", &base).ok());
  PlanPtr plan = MdJoinPlan(TableRef("Base"), TableRef("Sales"),
                            {Count("n"), Sum(RCol("sale"), "total")}, CustTheta());

  {
    QueryGuard guard;
    guard.Cancel();
    MdJoinOptions options;
    options.guard = &guard;
    Result<Table> result = ExecutePlan(plan, catalog, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  {
    FailpointRegistry::Global()->Enable("executor:node_error", /*count=*/1);
    Result<Table> result = ExecutePlan(plan, catalog);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("executor:node_error"),
              std::string::npos);
  }
  {
    // A hard limit smaller than the MD-join's working state and output trips
    // the guard's memory accounting.
    QueryGuardOptions guard_options;
    guard_options.memory_hard_limit_bytes = 1024;
    QueryGuard guard(guard_options);
    MdJoinOptions options;
    options.guard = &guard;
    Result<Table> result = ExecutePlan(plan, catalog, options);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status().ToString();
  }
}

TEST_F(GuardrailTest, ExecutorChargesOnlyWhatItMaterializes) {
  // Catalog tables are read in place: a hard limit below the detail table's
  // own size but above the query's real footprint (the small MD-join output
  // and its scan state) must not trip.
  Table sales = testutil::RandomSales(62, 4000);
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  Table base = *GroupByBase(sales, {"cust"});
  ASSERT_TRUE(catalog.Register("Base", &base).ok());
  PlanPtr plan = MdJoinPlan(TableRef("Base"), TableRef("Sales"),
                            {Count("n"), Sum(RCol("sale"), "total")}, CustTheta());
  const int64_t limit = sales.ApproxBytes() / 2;
  QueryGuardOptions guard_options;
  guard_options.memory_hard_limit_bytes = limit;
  QueryGuard guard(guard_options);
  MdJoinOptions options;
  options.guard = &guard;
  ExecStats stats;
  Result<Table> result = ExecutePlan(plan, catalog, options, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(TablesEqualOrdered(
      *result, *MdJoin(base, sales, {Count("n"), Sum(RCol("sale"), "total")},
                       CustTheta())));
  EXPECT_LT(guard.bytes_high_water(), limit);
  EXPECT_EQ(guard.bytes_reserved(), 0);
  // Only the MD-join built rows; both catalog tables were borrowed.
  EXPECT_EQ(stats.rows_materialized, base.num_rows());
}

TEST_F(GuardrailTest, MaterializedFilterChargeIncludesItsMirror) {
  // A Filter over a catalog table keeps the typed mirror, so the guard's
  // charge for its output covers the mirror's payload arrays (i64, f64,
  // codes, nulls) as well as the cells. The shared dictionary is not charged.
  Table sales = testutil::RandomSales(63, 3000);
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  const ExprPtr pred = And(Eq(RCol("state"), Lit("NY")), Gt(RCol("sale"), Lit(100)));
  QueryGuard guard;
  MdJoinOptions options;
  options.guard = &guard;
  Result<Table> out = ExecutePlan(FilterPlan(TableRef("Sales"), pred), catalog, options);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_GT(out->num_rows(), 0);
  ASSERT_NE(out->accel(), nullptr);

  int64_t payload = 0;
  for (const FlatColumn& fc : out->accel()->cols) {
    payload += static_cast<int64_t>(fc.i64.capacity() * sizeof(int64_t) +
                                    fc.f64.capacity() * sizeof(double) +
                                    fc.codes.capacity() * sizeof(int32_t) +
                                    fc.nulls.capacity());
  }
  EXPECT_GT(payload, 0);
  Table cells_only(out->schema());
  cells_only.Reserve(out->num_rows());
  for (int64_t r = 0; r < out->num_rows(); ++r) cells_only.AppendRowFrom(*out, r);
  ASSERT_EQ(cells_only.accel(), nullptr);
  // The output's cells were gathered into exactly-sized columns, as were
  // cells_only's, so the two charges differ by the payload arrays alone.
  EXPECT_EQ(guard.bytes_high_water(), out->ApproxBytes());
  EXPECT_EQ(guard.bytes_high_water(), cells_only.ApproxBytes() + payload);
  EXPECT_EQ(guard.bytes_reserved(), 0);
}

TEST_F(GuardrailTest, IncrementalMaintenanceObservesGuard) {
  Table sales = testutil::RandomSales(63, 200);
  Table base = *GroupByBase(sales, {"cust"});
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};
  Result<Table> previous = MdJoin(base, sales, aggs, CustTheta());
  ASSERT_TRUE(previous.ok());
  Table delta = testutil::RandomSales(64, 50);

  QueryGuard guard;
  guard.Cancel();
  MdJoinOptions options;
  options.guard = &guard;
  Result<Table> result = MdJoinApplyDelta(*previous, delta, aggs, CustTheta(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(GuardrailTest, ReserveFailpointInjectsAllocationFailure) {
  Table sales = testutil::RandomSales(65, 200);
  Table base = *GroupByBase(sales, {"cust"});
  FailpointRegistry::Global()->Enable("query_guard:reserve", /*count=*/1);
  QueryGuard guard;
  MdJoinOptions options;
  options.guard = &guard;
  Result<Table> result = MdJoin(base, sales, {Count("n")}, CustTheta(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
  EXPECT_NE(result.status().message().find("query_guard:reserve"), std::string::npos);
  EXPECT_EQ(FailpointRegistry::Global()->fire_count("query_guard:reserve"), 1);
}

TEST_F(GuardrailTest, FailpointRegistrySpecAndCounts) {
  FailpointRegistry* registry = FailpointRegistry::Global();
  ASSERT_TRUE(registry->LoadSpec("a:x=2@1; b:y=-1,c:z=1").ok());
  // a:x skips one evaluation then fires twice.
  EXPECT_FALSE(registry->Evaluate("a:x"));
  EXPECT_TRUE(registry->Evaluate("a:x"));
  EXPECT_TRUE(registry->Evaluate("a:x"));
  EXPECT_FALSE(registry->Evaluate("a:x"));
  EXPECT_EQ(registry->fire_count("a:x"), 2);
  // b:y fires forever.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(registry->Evaluate("b:y"));
  // c:z fires once.
  EXPECT_TRUE(registry->Evaluate("c:z"));
  EXPECT_FALSE(registry->Evaluate("c:z"));
  // Unknown points never fire; malformed specs error.
  EXPECT_FALSE(registry->Evaluate("nope"));
  EXPECT_FALSE(registry->LoadSpec("missing-equals").ok());
  EXPECT_FALSE(registry->LoadSpec("p=abc").ok());
  registry->Reset();
  EXPECT_FALSE(registry->Evaluate("b:y"));
}

TEST_F(GuardrailTest, ThreadPoolCancelDrainsQueue) {
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> ran{0};

  // Occupy the single worker so the follow-up tasks stay queued.
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Cancel();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Wait();
  // Every queued-but-unstarted task was dropped.
  EXPECT_EQ(ran.load(), 0);
  // The pool remains usable after a Cancel round.
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace mdjoin
