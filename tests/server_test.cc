// Tests for the concurrent query service (src/server): admission control
// (budgets, queueing, fairness, shedding), the cuboid-lattice result cache,
// session cancellation, and the QueryGuardOptions validation contract.
//
// Labelled "tsan" in tests/CMakeLists.txt: the queueing, cancellation, and
// overload tests exercise the cross-thread paths under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "expr/conjuncts.h"
#include "obs/metrics.h"
#include "optimizer/executor.h"
#include "optimizer/rules.h"
#include "server/query_service.h"
#include "storage/block_format.h"
#include "storage/out_of_core.h"
#include "storage/paged_table.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT

ExprPtr DimsTheta(const std::vector<std::string>& dims) {
  std::vector<ExprPtr> eqs;
  for (const std::string& d : dims) eqs.push_back(Eq(BCol(d), RCol(d)));
  return CombineConjuncts(std::move(eqs));
}

/// Spins until `cond` holds (1ms poll) or the timeout expires.
template <typename Cond>
bool WaitFor(Cond cond, std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!cond()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

int64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name, "")->value();
}

/// Fixture: SmallSales registered as "sales"; failpoints reset around each
/// test so armed points never leak across cases.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Global()->Reset();
    sales_ = testutil::SmallSales();
    ASSERT_TRUE(catalog_.Register("sales", &sales_).ok());
  }
  void TearDown() override { FailpointRegistry::Global()->Reset(); }

  /// The running example's cuboid query at `mask` over (prod, month):
  /// MD-join of CuboidBase against Sales with SUM/COUNT — certified for
  /// Theorem-4.5 roll-up, so it gets a cache family.
  PlanPtr CuboidQuery(CuboidMask mask) const {
    std::vector<std::string> dims = {"prod", "month"};
    return MdJoinPlan(CuboidBasePlan(TableRef("sales"), dims, mask), TableRef("sales"),
                      {Sum(RCol("sale"), "total"), Count("n")}, DimsTheta(dims));
  }

  Table sales_;
  Catalog catalog_;
};

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

TEST_F(ServerTest, AdmissionFastPathHoldsAndReleasesBudget) {
  AdmissionController::Options opt;
  opt.total_memory_bytes = 1000;
  opt.total_threads = 4;
  AdmissionController ac(opt);
  {
    AdmissionRequest req;
    req.memory_bytes = 600;
    req.threads = 3;
    Result<AdmissionTicket> ticket = ac.Admit(req);
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    EXPECT_TRUE(ticket->valid());
    EXPECT_EQ(ticket->memory_bytes(), 600);
    EXPECT_EQ(ticket->threads(), 3);
    EXPECT_EQ(ticket->queue_wait_ms(), 0);
    EXPECT_EQ(ac.memory_in_use(), 600);
    EXPECT_EQ(ac.threads_in_use(), 3);
  }
  // RAII: destruction returned the budget.
  EXPECT_EQ(ac.memory_in_use(), 0);
  EXPECT_EQ(ac.threads_in_use(), 0);
}

TEST_F(ServerTest, AdmissionTicketMoveAndExplicitRelease) {
  AdmissionController ac({});
  AdmissionRequest req;
  req.memory_bytes = 100;
  Result<AdmissionTicket> ticket = ac.Admit(req);
  ASSERT_TRUE(ticket.ok());
  AdmissionTicket moved = std::move(*ticket);
  EXPECT_TRUE(moved.valid());
  EXPECT_FALSE(ticket->valid());
  EXPECT_EQ(ac.memory_in_use(), 100);
  moved.Release();
  EXPECT_FALSE(moved.valid());
  EXPECT_EQ(ac.memory_in_use(), 0);
  moved.Release();  // idempotent
  EXPECT_EQ(ac.memory_in_use(), 0);
}

TEST_F(ServerTest, AdmissionTicketSurvivesException) {
  AdmissionController ac({});
  try {
    AdmissionRequest req;
    req.memory_bytes = 64;
    req.threads = 2;
    Result<AdmissionTicket> ticket = ac.Admit(req);
    ASSERT_TRUE(ticket.ok());
    EXPECT_EQ(ac.threads_in_use(), 2);
    throw std::runtime_error("query crashed");
  } catch (const std::runtime_error&) {
    // Unwinding destroyed the ticket.
  }
  EXPECT_EQ(ac.memory_in_use(), 0);
  EXPECT_EQ(ac.threads_in_use(), 0);
}

TEST_F(ServerTest, AdmissionRejectsInvalidRequests) {
  AdmissionController ac({});
  AdmissionRequest req;
  req.memory_bytes = 0;
  EXPECT_TRUE(ac.Admit(req).status().IsInvalidArgument());
  req.memory_bytes = 1;
  req.threads = 0;
  EXPECT_TRUE(ac.Admit(req).status().IsInvalidArgument());
}

TEST_F(ServerTest, AdmissionShedsUnsatisfiableWithoutRetryHint) {
  AdmissionController::Options opt;
  opt.total_memory_bytes = 100;
  opt.total_threads = 2;
  AdmissionController ac(opt);
  AdmissionRequest req;
  req.memory_bytes = 101;  // can never fit
  Status s = ac.Admit(req).status();
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  // Retrying cannot help, so no hint is attached.
  EXPECT_EQ(AdmissionController::RetryAfterHintMs(s), -1);
}

TEST_F(ServerTest, AdmissionShedsWhenQueueFullWithRetryHint) {
  AdmissionController::Options opt;
  opt.total_memory_bytes = 100;
  opt.max_queue_depth = 0;  // never queue
  opt.retry_after_base_ms = 25;
  AdmissionController ac(opt);
  AdmissionRequest big;
  big.memory_bytes = 100;
  Result<AdmissionTicket> holder = ac.Admit(big);
  ASSERT_TRUE(holder.ok());

  const int64_t shed_before = CounterValue("mdjoin_server_shed_queue_full_total");
  Status s = ac.Admit(big).status();
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  EXPECT_EQ(AdmissionController::RetryAfterHintMs(s), 25);  // depth 0 → base
  EXPECT_EQ(CounterValue("mdjoin_server_shed_queue_full_total"), shed_before + 1);
}

TEST_F(ServerTest, RetryAfterHintParsesOnlyTaggedStatuses) {
  EXPECT_EQ(AdmissionController::RetryAfterHintMs(Status::ResourceExhausted("nope")), -1);
  EXPECT_EQ(AdmissionController::RetryAfterHintMs(
                Status::ResourceExhausted("x retry_after_ms=150")),
            150);
}

TEST_F(ServerTest, AdmissionQueuesUntilBudgetReleases) {
  AdmissionController::Options opt;
  opt.total_memory_bytes = 100;
  AdmissionController ac(opt);
  AdmissionRequest req;
  req.memory_bytes = 100;
  Result<AdmissionTicket> holder = ac.Admit(req);
  ASSERT_TRUE(holder.ok());

  Status queued_status = Status::OK();
  std::thread waiter([&] {
    Result<AdmissionTicket> t = ac.Admit(req);
    queued_status = t.status();
    // Ticket (if any) releases here.
  });
  ASSERT_TRUE(WaitFor([&] { return ac.queue_depth() == 1; }));
  holder->Release();
  waiter.join();
  EXPECT_TRUE(queued_status.ok()) << queued_status.ToString();
  EXPECT_EQ(ac.memory_in_use(), 0);
  EXPECT_EQ(ac.queue_depth(), 0);
}

TEST_F(ServerTest, AdmissionFairnessRoundRobinAcrossTenants) {
  // One thread token; tenant "a" floods the queue first, then "b" arrives.
  // Round-robin must interleave: a1, b1, a2 — not a1, a2, b1.
  AdmissionController::Options opt;
  opt.total_threads = 1;
  AdmissionController ac(opt);
  AdmissionRequest hold;
  Result<AdmissionTicket> holder = ac.Admit(hold);
  ASSERT_TRUE(holder.ok());

  Mutex order_mu;
  std::vector<std::string> order;
  auto client = [&](const std::string& tenant, const std::string& label) {
    AdmissionRequest req;
    req.tenant = tenant;
    Result<AdmissionTicket> t = ac.Admit(req);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    MutexLock lock(order_mu);
    order.push_back(label);
    // Ticket releases on return → next waiter admitted.
  };
  std::thread a1(client, "a", "a1");
  ASSERT_TRUE(WaitFor([&] { return ac.queue_depth() == 1; }));
  std::thread a2(client, "a", "a2");
  ASSERT_TRUE(WaitFor([&] { return ac.queue_depth() == 2; }));
  std::thread b1(client, "b", "b1");
  ASSERT_TRUE(WaitFor([&] { return ac.queue_depth() == 3; }));

  holder->Release();
  a1.join();
  a2.join();
  b1.join();
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "b1", "a2"}));
}

TEST_F(ServerTest, AdmissionDeadlineExpiredPreQueue) {
  AdmissionController ac({});
  AdmissionRequest req;
  req.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  Status s = ac.Admit(req).status();
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
}

TEST_F(ServerTest, AdmissionDeadlineWhileQueued) {
  AdmissionController::Options opt;
  opt.total_memory_bytes = 100;
  AdmissionController ac(opt);
  AdmissionRequest hold;
  hold.memory_bytes = 100;
  Result<AdmissionTicket> holder = ac.Admit(hold);
  ASSERT_TRUE(holder.ok());

  const int64_t shed_before = CounterValue("mdjoin_server_shed_deadline_total");
  AdmissionRequest req;
  req.memory_bytes = 100;
  req.deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  Status s = ac.Admit(req).status();
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  EXPECT_NE(s.message().find("queued for admission"), std::string::npos) << s.ToString();
  EXPECT_EQ(CounterValue("mdjoin_server_shed_deadline_total"), shed_before + 1);
  EXPECT_EQ(ac.queue_depth(), 0);  // the expired waiter removed itself
}

TEST_F(ServerTest, AdmissionCancelWhileQueued) {
  AdmissionController::Options opt;
  opt.total_memory_bytes = 100;
  AdmissionController ac(opt);
  AdmissionRequest hold;
  hold.memory_bytes = 100;
  Result<AdmissionTicket> holder = ac.Admit(hold);
  ASSERT_TRUE(holder.ok());

  std::atomic<bool> cancelled{false};
  Status status = Status::OK();
  std::thread waiter([&] {
    AdmissionRequest req;
    req.memory_bytes = 100;
    req.cancelled = &cancelled;
    status = ac.Admit(req).status();
  });
  ASSERT_TRUE(WaitFor([&] { return ac.queue_depth() == 1; }));
  cancelled.store(true);
  ac.WakeAll();
  waiter.join();
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  EXPECT_EQ(ac.queue_depth(), 0);
  EXPECT_EQ(ac.memory_in_use(), 100);  // only the holder's
}

TEST_F(ServerTest, AdmitFailpointForcesQueuePath) {
  FailpointRegistry::Global()->Enable("server:admit", 1);
  AdmissionController ac({});
  AdmissionRequest req;
  Result<AdmissionTicket> t = ac.Admit(req);
  // Still admitted (the queue drains an idle controller immediately), but via
  // the queue path — the failpoint fired.
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(FailpointRegistry::Global()->fire_count("server:admit"), 1);
}

TEST_F(ServerTest, ShedFailpointForcesQueueFullShed) {
  FailpointRegistry::Global()->Enable("server:admit", 1);
  FailpointRegistry::Global()->Enable("server:shed", 1);
  AdmissionController ac({});
  AdmissionRequest req;
  Status s = ac.Admit(req).status();
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  EXPECT_GE(AdmissionController::RetryAfterHintMs(s), 0);
}

TEST_F(ServerTest, TryChargeBytesSharesThePoolWithAdmission) {
  AdmissionController::Options opt;
  opt.total_memory_bytes = 100;
  AdmissionController ac(opt);
  EXPECT_TRUE(ac.TryChargeBytes(80));
  EXPECT_FALSE(ac.TryChargeBytes(21));  // would exceed the pool
  AdmissionRequest req;
  req.memory_bytes = 30;
  req.deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  // The cache charge counts against admission too.
  EXPECT_TRUE(ac.Admit(req).status().IsDeadlineExceeded());
  ac.ReleaseChargedBytes(80);
  req.deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  Result<AdmissionTicket> t = ac.Admit(req);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
}

// ---------------------------------------------------------------------------
// QueryGuardOptions::Validate (satellite: doc/behavior drift fix)
// ---------------------------------------------------------------------------

TEST_F(ServerTest, GuardOptionsValidateAcceptsDefaultsAndZeros) {
  QueryGuardOptions opt;
  EXPECT_TRUE(opt.Validate().ok());
  opt.timeout_ms = 0;  // 0 = off on every limit
  opt.memory_budget_bytes = 0;
  opt.memory_hard_limit_bytes = 0;
  opt.max_detail_rows = 0;
  opt.max_candidate_pairs = 0;
  EXPECT_TRUE(opt.Validate().ok());
}

TEST_F(ServerTest, GuardOptionsValidateRejectsNegativeAndInconsistent) {
  QueryGuardOptions opt;
  opt.timeout_ms = -1;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = {};
  opt.timeout_ms = QueryGuardOptions::kMaxTimeoutMs + 1;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = {};
  opt.memory_budget_bytes = -5;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = {};
  opt.memory_hard_limit_bytes = -1;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = {};
  opt.memory_budget_bytes = 100;
  opt.memory_hard_limit_bytes = 50;  // soft budget above the hard ceiling
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = {};
  opt.max_detail_rows = -2;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = {};
  opt.max_candidate_pairs = -2;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = {};
  opt.check_stride = 0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
}

TEST_F(ServerTest, GuardConstructedWithInvalidOptionsTripsImmediately) {
  QueryGuardOptions opt;
  opt.timeout_ms = -7;
  QueryGuard guard(opt);
  Status s = guard.Check();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST_F(ServerTest, MintedGuardOptionsAlwaysValidate) {
  AdmissionController ac({});
  AdmissionRequest req;
  req.memory_bytes = 123;
  Result<AdmissionTicket> t = ac.Admit(req);
  ASSERT_TRUE(t.ok());
  QueryGuardOptions minted = t->MintGuardOptions(500);
  EXPECT_TRUE(minted.Validate().ok());
  EXPECT_EQ(minted.memory_budget_bytes, 123);
  EXPECT_EQ(minted.memory_hard_limit_bytes, 123);
  EXPECT_EQ(minted.timeout_ms, 500);
  EXPECT_TRUE(t->MintGuardOptions(-3).Validate().ok());  // clamped to "off"
}

// ---------------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------------

TEST_F(ServerTest, PlanCacheKeyDistinguishesMasksWithinOneFamily) {
  PlanCacheKey fine = MakePlanCacheKey(CuboidQuery(0b11));
  PlanCacheKey coarse = MakePlanCacheKey(CuboidQuery(0b01));
  EXPECT_NE(fine.exact, coarse.exact);
  ASSERT_FALSE(fine.family.empty());
  EXPECT_EQ(fine.family, coarse.family);
  EXPECT_EQ(fine.mask, 0b11u);
  EXPECT_EQ(coarse.mask, 0b01u);
}

TEST_F(ServerTest, PlanCacheKeyHasNoFamilyWithoutRollupCertificate) {
  // AVG is not distributive: the roll-up certificate fails, so the plan gets
  // an exact key only.
  std::vector<std::string> dims = {"prod", "month"};
  PlanPtr plan = MdJoinPlan(CuboidBasePlan(TableRef("sales"), dims, 0b01),
                            TableRef("sales"), {Avg(RCol("sale"), "a")}, DimsTheta(dims));
  PlanCacheKey key = MakePlanCacheKey(plan);
  EXPECT_FALSE(key.exact.empty());
  EXPECT_TRUE(key.family.empty());
}

TEST_F(ServerTest, ResultCacheLruEvictionAndPoolAccounting) {
  AdmissionController pool({});
  auto shared_sales = std::make_shared<const Table>(sales_.Clone());
  const int64_t entry_bytes = shared_sales->ApproxBytes() + 2;  // + key size

  ResultCache::Options copt;
  copt.capacity_bytes = 2 * entry_bytes;  // room for exactly two entries
  ResultCache cache(&pool, copt);
  cache.Insert(PlanCacheKey{"k1", "", 0}, shared_sales);
  cache.Insert(PlanCacheKey{"k2", "", 0}, shared_sales);
  EXPECT_EQ(cache.entries(), 2);
  EXPECT_EQ(pool.memory_in_use(), 2 * entry_bytes);

  // Touch k1 so k2 becomes the LRU victim of the next insert.
  EXPECT_NE(cache.LookupExact("k1"), nullptr);
  cache.Insert(PlanCacheKey{"k3", "", 0}, shared_sales);
  EXPECT_EQ(cache.entries(), 2);
  EXPECT_NE(cache.LookupExact("k1"), nullptr);
  EXPECT_EQ(cache.LookupExact("k2"), nullptr);
  EXPECT_NE(cache.LookupExact("k3"), nullptr);

  cache.Clear();
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(pool.memory_in_use(), 0);  // every charge returned
}

TEST_F(ServerTest, ResultCacheSkipsOversizedAndPoolStarvedInserts) {
  AdmissionController::Options popt;
  popt.total_memory_bytes = 64;  // smaller than any sales table
  AdmissionController pool(popt);
  auto shared_sales = std::make_shared<const Table>(sales_.Clone());

  ResultCache::Options copt;
  copt.capacity_bytes = 16;  // oversized entry: skipped outright
  ResultCache small(&pool, copt);
  small.Insert(PlanCacheKey{"k", "", 0}, shared_sales);
  EXPECT_EQ(small.entries(), 0);

  copt.capacity_bytes = int64_t{1} << 20;  // fits the cache, not the pool
  ResultCache starved(&pool, copt);
  starved.Insert(PlanCacheKey{"k", "", 0}, shared_sales);
  EXPECT_EQ(starved.entries(), 0);
  EXPECT_EQ(pool.memory_in_use(), 0);
}

TEST_F(ServerTest, ResultCacheLookupFinerWantsStrictSuperset) {
  AdmissionController pool({});
  ResultCache cache(&pool, {});
  auto shared_sales = std::make_shared<const Table>(sales_.Clone());
  cache.Insert(PlanCacheKey{"fine", "fam", 0b110}, shared_sales);

  EXPECT_TRUE(cache.LookupFiner("fam", 0b100).has_value());   // subset: roll up
  EXPECT_TRUE(cache.LookupFiner("fam", 0b010).has_value());
  EXPECT_FALSE(cache.LookupFiner("fam", 0b110).has_value());  // equal: not finer
  EXPECT_FALSE(cache.LookupFiner("fam", 0b001).has_value());  // disjoint dim
  EXPECT_FALSE(cache.LookupFiner("other", 0b100).has_value());
  EXPECT_FALSE(cache.LookupFiner("", 0).has_value());
}

TEST_F(ServerTest, CacheEvictFailpointForcesEviction) {
  // Skip the first Insert's evaluation (nothing to evict yet); fire on the
  // second so it evicts k1.
  FailpointRegistry::Global()->Enable("server:cache_evict", /*count=*/1, /*skip=*/1);
  AdmissionController pool({});
  ResultCache cache(&pool, {});
  auto shared_sales = std::make_shared<const Table>(sales_.Clone());
  const int64_t evictions_before = CounterValue("mdjoin_server_cache_evictions_total");
  cache.Insert(PlanCacheKey{"k1", "", 0}, shared_sales);
  cache.Insert(PlanCacheKey{"k2", "", 0}, shared_sales);  // failpoint evicts k1
  EXPECT_EQ(cache.entries(), 1);
  EXPECT_EQ(cache.LookupExact("k1"), nullptr);
  EXPECT_EQ(CounterValue("mdjoin_server_cache_evictions_total"), evictions_before + 1);
}

// ---------------------------------------------------------------------------
// QueryService end to end
// ---------------------------------------------------------------------------

TEST_F(ServerTest, ServiceExecutesCachesAndCountsHits) {
  QueryService service(catalog_);
  auto session = service.OpenSession();
  EXPECT_EQ(service.sessions_open(), 1);

  const int64_t hits_before = CounterValue("mdjoin_server_cache_hit_total");
  Result<QueryResult> first = session->Execute(CuboidQuery(0b11));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->stats.cache, CacheOutcome::kMiss);
  EXPECT_EQ(first->stats.admitted_threads, 1);
  ASSERT_NE(first->table, nullptr);

  Result<QueryResult> second = session->Execute(CuboidQuery(0b11));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->stats.cache, CacheOutcome::kHit);
  EXPECT_EQ(second->stats.admitted_memory_bytes, 0);  // no admission on a hit
  EXPECT_EQ(CounterValue("mdjoin_server_cache_hit_total"), hits_before + 1);
  EXPECT_TRUE(TablesEqualOrdered(*first->table, *second->table));

  // Budget fully returned once both queries finished.
  EXPECT_EQ(service.admission().threads_in_use(), 0);
}

TEST_F(ServerTest, PagedQueryRecordsBlocksReadWithoutFeedback) {
  // The plain (CSE) engine path must carry the paged scan's block counters
  // into the query record, not only the profiled collect_feedback path.
  Table big = testutil::RandomSales(17, 300);
  const std::string path = std::filesystem::temp_directory_path().string() +
                           "/mdjoin_server_test_paged_" +
                           std::to_string(reinterpret_cast<uintptr_t>(&big));
  BlockFileOptions block_options;
  block_options.block_size_rows = 32;
  ASSERT_TRUE(WriteBlockFile(big, path, block_options).ok());
  Result<std::unique_ptr<PagedTable>> paged = PagedTable::Open(path);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_TRUE(RegisterPagedTable(&catalog_, "psales", **paged).ok());

  const ExprPtr theta = Eq(RCol("cust"), BCol("cust"));
  const std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};
  PlanPtr custs = DistinctPlan(ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}}));
  PlanPtr plan = MdJoinPlan(custs, TableRef("psales"), aggs, theta);
  // The blocks the same scan reads when run directly.
  Result<Table> base = ExecutePlan(custs, catalog_);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  MdJoinStats direct;
  ASSERT_TRUE(PagedMdJoin(*base, **paged, aggs, theta, {}, &direct).ok());
  ASSERT_GT(direct.blocks_read, 0);

  QueryServiceOptions options;
  options.cache_capacity_bytes = 0;
  ASSERT_FALSE(options.collect_feedback);
  {
    QueryService service(catalog_, options);
    auto session = service.OpenSession();
    Result<QueryResult> result = session->Execute(plan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.exec.blocks_read, direct.blocks_read);
    ASSERT_NE(service.history(), nullptr);
    std::vector<QueryRecord> records = service.history()->Snapshot();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].blocks_read, direct.blocks_read);
    EXPECT_EQ(records[0].spill_bytes, 0);
  }
  paged->reset();
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

TEST_F(ServerTest, ServiceRollupHitServesCoarserFromCachedFiner) {
  QueryService service(catalog_);
  auto session = service.OpenSession();

  Result<QueryResult> fine = session->Execute(CuboidQuery(0b11));
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  ASSERT_EQ(fine->stats.cache, CacheOutcome::kMiss);

  // Acceptance criterion: the coarser request is served via roll-up, observed
  // on the mdjoin_server_cache_rollup_hit_total counter.
  const int64_t rollup_before = CounterValue("mdjoin_server_cache_rollup_hit_total");
  Result<QueryResult> coarse = session->Execute(CuboidQuery(0b01));
  ASSERT_TRUE(coarse.ok()) << coarse.status().ToString();
  EXPECT_EQ(coarse->stats.cache, CacheOutcome::kRollupHit);
  EXPECT_EQ(CounterValue("mdjoin_server_cache_rollup_hit_total"), rollup_before + 1);
  // The roll-up scanned the cached cuboid, not the detail relation: far
  // fewer detail rows than the full query's |R| scan.
  EXPECT_LT(coarse->stats.exec.detail_rows_scanned, sales_.num_rows());

  // Identical to a fresh full execution.
  Result<Table> fresh = ExecutePlanCse(CuboidQuery(0b01), catalog_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(TablesEqualOrdered(*coarse->table, *fresh))
      << "rollup:\n" << coarse->table->ToString() << "fresh:\n" << fresh->ToString();

  // The rolled-up result was itself cached: the same request now exact-hits.
  Result<QueryResult> again = session->Execute(CuboidQuery(0b01));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.cache, CacheOutcome::kHit);
}

TEST_F(ServerTest, RollupServedResultBitIdenticalAcrossThreadCounts) {
  // Satellite: the cached-rollup path must be bit-identical to fresh
  // execution whatever the engine parallelism (run under `ctest -L tsan`).
  Result<Table> fresh = ExecutePlanCse(CuboidQuery(0b01), catalog_);
  ASSERT_TRUE(fresh.ok());
  for (int threads : {1, 2, 4}) {
    QueryServiceOptions opt;
    opt.default_threads_per_query = threads;
    opt.admission.total_threads = threads;
    QueryService service(catalog_, opt);
    auto session = service.OpenSession();
    ASSERT_TRUE(session->Execute(CuboidQuery(0b11)).ok());
    Result<QueryResult> coarse = session->Execute(CuboidQuery(0b01));
    ASSERT_TRUE(coarse.ok()) << coarse.status().ToString();
    ASSERT_EQ(coarse->stats.cache, CacheOutcome::kRollupHit) << "threads=" << threads;
    EXPECT_TRUE(TablesEqualOrdered(*coarse->table, *fresh))
        << "threads=" << threads << "\nrollup:\n" << coarse->table->ToString()
        << "fresh:\n" << fresh->ToString();
  }
}

TEST_F(ServerTest, ServiceCacheCanBeBypassedPerQuery) {
  QueryService service(catalog_);
  auto session = service.OpenSession();
  SessionQueryOptions no_cache;
  no_cache.use_cache = false;
  Result<QueryResult> r1 = session->Execute(CuboidQuery(0b11), no_cache);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->stats.cache, CacheOutcome::kDisabled);
  Result<QueryResult> r2 = session->Execute(CuboidQuery(0b11), no_cache);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->stats.cache, CacheOutcome::kDisabled);  // nothing was cached

  QueryServiceOptions off;
  off.cache_capacity_bytes = 0;  // cache disabled service-wide
  QueryService plain(catalog_, off);
  auto s2 = plain.OpenSession();
  Result<QueryResult> r3 = s2->Execute(CuboidQuery(0b11));
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->stats.cache, CacheOutcome::kDisabled);
  EXPECT_EQ(plain.cache(), nullptr);
}

TEST_F(ServerTest, ServiceDeadlineWhileQueuedShedsBeforeEngineWork) {
  // Satellite: a query admitted after its deadline must fail with
  // kDeadlineExceeded before any engine work runs. Deterministic setup: a
  // directly-held ticket pins the whole pool, and the "server:admit"
  // failpoint forces the queue path, so the session's query queues until its
  // deadline expires.
  FailpointRegistry::Global()->Enable("server:admit", -1);
  QueryServiceOptions opt;
  opt.admission.total_memory_bytes = 1 << 20;
  opt.default_memory_per_query = 1 << 20;
  QueryService service(catalog_, opt);
  AdmissionRequest hold;
  hold.memory_bytes = 1 << 20;
  Result<AdmissionTicket> holder = service.admission().Admit(hold);
  ASSERT_TRUE(holder.ok()) << holder.status().ToString();

  auto session = service.OpenSession();
  const int64_t scanned_before = CounterValue("mdjoin_detail_rows_scanned_total");
  SessionQueryOptions qopt;
  qopt.timeout_ms = 50;
  Status s = session->Execute(CuboidQuery(0b11), qopt).status();
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  EXPECT_NE(s.message().find("no engine work"), std::string::npos) << s.ToString();
  // The engine never scanned a row for the shed query.
  EXPECT_EQ(CounterValue("mdjoin_detail_rows_scanned_total"), scanned_before);
  EXPECT_GT(FailpointRegistry::Global()->fire_count("server:admit"), 0);
}

TEST_F(ServerTest, ServiceCancelAbortsQueuedQuery) {
  QueryServiceOptions opt;
  opt.admission.total_memory_bytes = 1 << 20;
  opt.default_memory_per_query = 1 << 20;
  QueryService service(catalog_, opt);
  AdmissionRequest hold;
  hold.memory_bytes = 1 << 20;
  Result<AdmissionTicket> holder = service.admission().Admit(hold);
  ASSERT_TRUE(holder.ok());

  auto session = service.OpenSession();
  Status status = Status::OK();
  std::thread client([&] {
    SessionQueryOptions qopt;
    qopt.use_cache = false;
    status = session->Execute(CuboidQuery(0b11), qopt).status();
  });
  ASSERT_TRUE(WaitFor([&] { return service.admission().queue_depth() == 1; }));
  session->Cancel();
  client.join();
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  EXPECT_EQ(service.admission().queue_depth(), 0);
}

TEST_F(ServerTest, ServiceCancelBeforeExecuteIsSticky) {
  QueryService service(catalog_);
  auto session = service.OpenSession();
  session->Cancel();
  Status s = session->Execute(CuboidQuery(0b11)).status();
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();
  // The flag was consumed: the next query runs normally.
  EXPECT_TRUE(session->Execute(CuboidQuery(0b11)).ok());
}

TEST_F(ServerTest, ServiceExecutesQueryStrings) {
  QueryService service(catalog_);
  auto session = service.OpenSession();
  Result<QueryResult> r = session->ExecuteQueryString(
      "select cust, sum(X.sale) as total from sales "
      "analyze by group(cust) such that X: X.cust = cust");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table->num_rows(), 4);  // customers 1..4
  EXPECT_FALSE(session->ExecuteQueryString("select x from nope").ok());
}

TEST_F(ServerTest, ServiceOverloadShedsButNeverWedges) {
  // Closed-loop overload: more clients than thread tokens and a short queue.
  // Every query must either succeed with correct results or shed with a
  // structured kResourceExhausted — and all clients must terminate.
  QueryServiceOptions opt;
  opt.admission.total_threads = 2;
  opt.admission.max_queue_depth = 2;
  opt.cache_capacity_bytes = 0;  // force real engine work per query
  QueryService service(catalog_, opt);

  Result<Table> expected = ExecutePlanCse(CuboidQuery(0b11), catalog_);
  ASSERT_TRUE(expected.ok());

  constexpr int kClients = 8;
  constexpr int kQueriesEach = 4;
  std::atomic<int> ok_count{0};
  std::atomic<int> shed_count{0};
  std::atomic<int> other_count{0};
  std::vector<std::thread> clients;
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < kClients; ++i) {
    sessions.push_back(service.OpenSession("tenant" + std::to_string(i % 3)));
  }
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      for (int q = 0; q < kQueriesEach; ++q) {
        Result<QueryResult> r = sessions[i]->Execute(CuboidQuery(0b11));
        if (r.ok()) {
          ok_count.fetch_add(1);
          EXPECT_TRUE(TablesEqualOrdered(*r->table, *expected));
        } else if (r.status().IsResourceExhausted()) {
          shed_count.fetch_add(1);
          EXPECT_GE(AdmissionController::RetryAfterHintMs(r.status()), 0);
        } else {
          other_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok_count + shed_count + other_count, kClients * kQueriesEach);
  EXPECT_EQ(other_count, 0);
  EXPECT_GT(ok_count, 0);
  // Budget fully recovered: nothing leaked through the shed/success mix.
  EXPECT_EQ(service.admission().threads_in_use(), 0);
  EXPECT_EQ(service.admission().queue_depth(), 0);
  sessions.clear();
  EXPECT_EQ(service.sessions_open(), 0);
}

TEST_F(ServerTest, ConcurrentSessionsShareCacheCorrectly) {
  // Many sessions race the same cuboid family: whatever mix of misses, exact
  // hits, and roll-up hits each one observes, every returned table must be
  // identical to fresh execution (run under `ctest -L tsan`).
  QueryService service(catalog_);
  Result<Table> fresh_fine = ExecutePlanCse(CuboidQuery(0b11), catalog_);
  Result<Table> fresh_coarse = ExecutePlanCse(CuboidQuery(0b01), catalog_);
  ASSERT_TRUE(fresh_fine.ok() && fresh_coarse.ok());

  constexpr int kClients = 6;
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < kClients; ++i) sessions.push_back(service.OpenSession());
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      for (int q = 0; q < 4; ++q) {
        const bool fine = (i + q) % 2 == 0;
        Result<QueryResult> r = sessions[i]->Execute(CuboidQuery(fine ? 0b11 : 0b01));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_TRUE(
            TablesEqualOrdered(*r->table, fine ? *fresh_fine : *fresh_coarse));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  sessions.clear();
}

}  // namespace
}  // namespace mdjoin
