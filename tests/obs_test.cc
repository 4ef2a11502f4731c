/// Observability-layer coverage: the metrics registry (instrument semantics,
/// exposition, kind safety), the trace buffers and Chrome JSON writer, the
/// near-zero disabled-path contract (no allocations, enforced with a global
/// operator-new hook), concurrent registry/buffer hammering (run under TSan
/// via the tsan test label), and EXPLAIN ANALYZE profile round-trips.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "core/generalized.h"
#include "cube/base_tables.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "obs/trace.h"
#include "optimizer/executor.h"
#include "optimizer/plan.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

// ---------------------------------------------------------------------------
// Global allocation hook: counts heap allocations while armed. The disabled
// tracing / metrics hot paths promise zero allocation; this makes the promise
// a test failure instead of a comment.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<int64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms too (std::stable_sort's temporary buffer uses them): a
// replacement set that left them to the runtime would pair the runtime's
// allocation with the free() below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { Tracing::Stop(); }
  void TearDown() override { Tracing::Stop(); }
};

// ---------------------------------------------------------------------------
// Metrics registry

TEST_F(ObsTest, CounterGaugeHistogramSemantics) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("obs_test_counter_total", "test counter");
  ASSERT_NE(c, nullptr);
  c->Reset();
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42);
  // Same name returns the same stable instrument.
  EXPECT_EQ(reg.GetCounter("obs_test_counter_total"), c);

  Gauge* g = reg.GetGauge("obs_test_gauge", "test gauge");
  ASSERT_NE(g, nullptr);
  g->Reset();
  g->Set(7);
  g->Add(3);
  EXPECT_EQ(g->value(), 10);
  g->UpdateMax(5);  // below current: no change
  EXPECT_EQ(g->value(), 10);
  g->UpdateMax(99);
  EXPECT_EQ(g->value(), 99);

  Histogram* h = reg.GetHistogram("obs_test_hist", {10, 100, 1000}, "test histogram");
  ASSERT_NE(h, nullptr);
  h->Reset();
  h->Observe(5);     // bucket le=10
  h->Observe(50);    // bucket le=100
  h->Observe(5000);  // overflow bucket
  EXPECT_EQ(h->total_count(), 3);
  EXPECT_EQ(h->sum(), 5055);
  EXPECT_EQ(h->bucket_count(0), 1);
  EXPECT_EQ(h->bucket_count(1), 1);
  EXPECT_EQ(h->bucket_count(2), 0);
  EXPECT_EQ(h->bucket_count(3), 1);  // overflow
}

TEST_F(ObsTest, KindMismatchReturnsNull) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  ASSERT_NE(reg.GetCounter("obs_test_kinded_total"), nullptr);
  EXPECT_EQ(reg.GetGauge("obs_test_kinded_total"), nullptr);
  EXPECT_EQ(reg.GetHistogram("obs_test_kinded_total", {1}), nullptr);
}

TEST_F(ObsTest, SnapshotAndExposition) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("obs_test_expo_total", "exposition counter");
  c->Reset();
  c->Increment(5);
  Histogram* h = reg.GetHistogram("obs_test_expo_hist", {10}, "exposition histogram");
  h->Reset();
  h->Observe(3);

  bool saw_counter = false;
  for (const MetricSample& s : reg.Snapshot()) {
    if (s.name == "obs_test_expo_total") {
      saw_counter = true;
      EXPECT_EQ(s.kind, MetricSample::Kind::kCounter);
      EXPECT_EQ(s.value, 5);
      EXPECT_EQ(s.help, "exposition counter");
    }
  }
  EXPECT_TRUE(saw_counter);

  std::string text = reg.RenderText();
  EXPECT_NE(text.find("# TYPE obs_test_expo_total counter"), std::string::npos);
  EXPECT_NE(text.find("obs_test_expo_total 5"), std::string::npos);
  EXPECT_NE(text.find("obs_test_expo_hist_bucket"), std::string::npos);

  std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"obs_test_expo_total\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_expo_hist\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracing

TEST_F(ObsTest, SpansAndInstantsRoundTrip) {
  Tracing::Start();
  ASSERT_TRUE(Tracing::enabled());
  {
    Span outer("outer", "test");
    outer.SetArg("a", 1);
    outer.SetArg("b", 2);
    outer.SetArg("dropped", 3);  // only two args travel
    Span inner("inner", "test");
    TraceInstant("ping", "test", "x", 7);
  }
  Tracing::Stop();

  std::vector<TraceEvent> events = Tracing::Snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Snapshot is sorted by start timestamp: outer, inner, ping — but inner
  // and ping may share a coarse clock tick, so assert membership instead.
  bool saw_outer = false, saw_inner = false, saw_ping = false;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "outer") {
      saw_outer = true;
      EXPECT_GE(e.dur_ns, 0);
      EXPECT_STREQ(e.arg1_name, "a");
      EXPECT_EQ(e.arg1, 1);
      EXPECT_STREQ(e.arg2_name, "b");
      EXPECT_EQ(e.arg2, 2);
    } else if (std::string(e.name) == "inner") {
      saw_inner = true;
      EXPECT_GE(e.dur_ns, 0);
    } else if (std::string(e.name) == "ping") {
      saw_ping = true;
      EXPECT_LT(e.dur_ns, 0);  // instant
      EXPECT_EQ(e.arg1, 7);
    }
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
  EXPECT_TRUE(saw_ping);

  // A restart clears the buffers.
  Tracing::Start();
  Tracing::Stop();
  EXPECT_EQ(Tracing::event_count(), 0);
}

TEST_F(ObsTest, ChromeTraceJsonShape) {
  Tracing::Start();
  Tracing::SetThreadName("obs test thread");
  {
    Span s("span_event", "test");
    s.SetArg("rows", 123);
  }
  TraceInstant("instant_event", "test");
  std::thread t([] {
    Tracing::SetThreadName("second thread");
    Span s("other_track", "test");
  });
  t.join();
  Tracing::Stop();

  std::vector<TraceEvent> events = Tracing::Snapshot();
  ASSERT_EQ(events.size(), 3u);
  std::set<int32_t> tids;
  for (const TraceEvent& e : events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), 2u);  // distinct per-thread tracks

  std::string json = ChromeTraceWriter::ToJson(events);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("obs test thread"), std::string::npos);
  EXPECT_NE(json.find("second thread"), std::string::npos);
  EXPECT_NE(json.find("span_event"), std::string::npos);
  EXPECT_NE(json.find("\"rows\": 123"), std::string::npos);
}

TEST_F(ObsTest, DisabledTracingAllocatesNothing) {
  // Start+Stop clears buffers left over from earlier tests (Stop alone keeps
  // events available to Snapshot), so event_count below measures this test.
  Tracing::Start();
  Tracing::Stop();
  ASSERT_FALSE(Tracing::enabled());
  // Warm the metric instruments so the armed window sees only hot-path work.
  Counter* c = MetricsRegistry::Global().GetCounter("obs_test_hot_total");
  Histogram* h = MetricsRegistry::Global().GetHistogram("obs_test_hot_hist", {10, 100});

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    Span span("hot", "test");
    span.SetArg("i", i);
    TraceInstant("hot_instant", "test");
    c->Increment();
    h->Observe(i);
  }
  g_count_allocs.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0)
      << "disabled spans / metric increments must not allocate";
  EXPECT_EQ(Tracing::event_count(), 0);
}

// ---------------------------------------------------------------------------
// Concurrency (meaningful under the tsan test label)

TEST_F(ObsTest, ConcurrentRegistryAccess) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("obs_test_conc_total")->Reset();
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kIters; ++i) {
        // Registration races with increments and with exposition.
        reg.GetCounter("obs_test_conc_total")->Increment();
        if (i % 512 == 0) reg.Snapshot();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("obs_test_conc_total")->value(), kThreads * kIters);
}

TEST_F(ObsTest, ConcurrentSpanBuffers) {
  Tracing::Start();
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      Tracing::SetThreadName("conc");
      for (int i = 0; i < kIters; ++i) {
        Span span("conc_span", "test");
        span.SetArg("i", i);
        if (i % 128 == 0) Tracing::Snapshot();  // reader races the writers
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Tracing::Stop();
  EXPECT_EQ(Tracing::event_count(), kThreads * kIters);
  std::set<int32_t> tids;
  for (const TraceEvent& e : Tracing::Snapshot()) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE profiles

TEST_F(ObsTest, ExplainAnalyzeRecordsCountersAndJson) {
  Table sales = testutil::RandomSales(7, 500);
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  PlanPtr base =
      DistinctPlan(ProjectPlan(TableRef("Sales"), {{Col("cust"), "cust"}}));
  PlanPtr plan = MdJoinPlan(base, TableRef("Sales"), {Count("n")},
                            Eq(RCol("cust"), BCol("cust")));

  QueryProfile profile;
  profile.rewrites.push_back(
      {"test rule", "MdJoin", true, 100.0, 80.0, "accepted: test"});
  Result<Table> result = ExplainAnalyze(plan, catalog, {}, &profile);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(profile.root, nullptr);
  EXPECT_TRUE(profile.complete);
  EXPECT_EQ(profile.terminal, "ok");
  EXPECT_GT(profile.total_ms, 0);
  EXPECT_TRUE(profile.root->is_mdjoin);
  EXPECT_EQ(profile.root->output_rows, result->num_rows());
  EXPECT_GT(profile.root->detail_rows_scanned, 0);
  EXPECT_GT(profile.root->agg_updates, 0);
  EXPECT_GE(profile.root->selectivity(), 0);
  // The pre-seeded rewrite log survives execution.
  ASSERT_EQ(profile.rewrites.size(), 1u);

  std::string text = profile.ToText();
  EXPECT_NE(text.find("MdJoin"), std::string::npos);
  EXPECT_NE(text.find("sel="), std::string::npos);
  EXPECT_NE(text.find("[applied] test rule"), std::string::npos);
  EXPECT_NE(text.find("terminal: ok"), std::string::npos);

  std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"terminal\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"complete\": true"), std::string::npos);
  EXPECT_NE(json.find("\"detail_rows_scanned\""), std::string::npos);
  EXPECT_NE(json.find("\"rewrites\": [{\"rule\": \"test rule\""), std::string::npos);
}

TEST_F(ObsTest, ExplainAnalyzeEmitsWorkerTracks) {
  Table sales = testutil::RandomSales(11, 4000);
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  PlanPtr base =
      DistinctPlan(ProjectPlan(TableRef("Sales"), {{Col("cust"), "cust"}}));
  PlanPtr plan = MdJoinPlan(base, TableRef("Sales"), {Count("n")},
                            Eq(RCol("cust"), BCol("cust")));

  MdJoinOptions options;
  options.num_threads = 2;
  options.morsel_size = 256;
  QueryProfile profile;
  Tracing::Start();
  Result<Table> result = ExplainAnalyze(plan, catalog, options, &profile);
  Tracing::Stop();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(profile.root->morsels, 1);
  EXPECT_EQ(profile.root->num_threads, 2);

  bool saw_morsel = false, saw_steal = false;
  std::set<int32_t> morsel_tids;
  for (const TraceEvent& e : Tracing::Snapshot()) {
    if (std::string(e.name) == "morsel") {
      saw_morsel = true;
      morsel_tids.insert(e.tid);
    }
    if (std::string(e.name) == "steal_wait") saw_steal = true;
  }
  EXPECT_TRUE(saw_morsel);
  EXPECT_TRUE(saw_steal);
  EXPECT_GE(morsel_tids.size(), 1u);
}

TEST_F(ObsTest, ExplainAnalyzeScanShapeIndependentOfThreads) {
  // Threads change who scans a block, never which blocks are scanned (the
  // default morsel is one block): a generalized node over a cube base
  // (several index masks) with a fused component reports the same blocks,
  // index_masks and fused_blocks at 1 and 2 threads.
  Table sales = testutil::RandomSales(13, 4000);
  Table cube = *CubeByBase(sales, {"cust", "month"});
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  ASSERT_TRUE(catalog.Register("Cube", &cube).ok());
  std::vector<MdJoinComponent> components = {
      {{Count("n"), Sum(RCol("sale"), "total")},
       And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("month"), BCol("month")))},
      {{Count("n_big")}, Gt(RCol("sale"), Lit(100.0))}};
  PlanPtr plan = GeneralizedMdJoinPlan(TableRef("Cube"), TableRef("Sales"), components);

  struct ScanShape {
    int64_t blocks, index_masks, fused_blocks, matched_pairs;
  };
  std::vector<ScanShape> roots;
  for (int threads : {1, 2}) {
    MdJoinOptions options;
    options.num_threads = threads;
    QueryProfile profile;
    Result<Table> result = ExplainAnalyze(plan, catalog, options, &profile);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_NE(profile.root, nullptr);
    EXPECT_EQ(profile.root->num_threads, threads);
    const OperatorProfile& md = *profile.root;
    roots.push_back({md.blocks, md.index_masks, md.fused_blocks, md.matched_pairs});
  }
  EXPECT_GT(roots[0].index_masks, 1);
  EXPECT_GT(roots[0].fused_blocks, 0);
  EXPECT_EQ(roots[1].blocks, roots[0].blocks);
  EXPECT_EQ(roots[1].index_masks, roots[0].index_masks);
  EXPECT_EQ(roots[1].fused_blocks, roots[0].fused_blocks);
  EXPECT_EQ(roots[1].matched_pairs, roots[0].matched_pairs);
}

}  // namespace
}  // namespace mdjoin
