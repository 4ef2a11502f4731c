// Tests for the out-of-core MD-join (storage/out_of_core): PagedMdJoin and
// the generalized paged scan must be bit-identical to the Definition-3.1
// reference across the full matrix — {1, 2, 8} threads × {spill on, spill
// off} — plus zone-map pruning effectiveness (for k components too),
// ALL/NULL equi-key spill routing, the catalog/executor paged path (Filters
// over paged detail included), and block-cache accounting under a query
// guard.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analyze/binder.h"
#include "common/query_guard.h"
#include "core/mdjoin.h"
#include "core/reference.h"
#include "cube/base_tables.h"
#include "obs/query_profile.h"
#include "optimizer/executor.h"
#include "optimizer/plan.h"
#include "storage/block_cache.h"
#include "storage/block_format.h"
#include "storage/out_of_core.h"
#include "storage/paged_table.h"
#include "storage/spill.h"
#include "table/table_builder.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using testutil::ALL;
using testutil::F;
using testutil::I;
using testutil::NUL;
using testutil::S;
using testutil::TablesBitIdentical;

/// Writes `table` to a block file under the temp dir and opens it paged.
class PagedFixture {
 public:
  PagedFixture(const Table& table, int64_t block_size_rows,
               const std::string& tag) {
    path_ = std::filesystem::temp_directory_path().string() +
            "/mdjoin_ooc_test_" + tag + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this));
    BlockFileOptions options;
    options.block_size_rows = block_size_rows;
    Status s = WriteBlockFile(table, path_, options);
    MDJ_CHECK(s.ok()) << s.ToString();
    Result<std::unique_ptr<PagedTable>> opened = PagedTable::Open(path_);
    MDJ_CHECK(opened.ok()) << opened.status().ToString();
    paged_ = std::move(*opened);
  }
  ~PagedFixture() {
    paged_.reset();
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  const PagedTable& table() const { return *paged_; }

 private:
  std::string path_;
  std::unique_ptr<PagedTable> paged_;
};

/// θ with an equi conjunct (spillable) plus a detail-side range conjunct
/// (zone-prunable): per-customer sales above a threshold.
ExprPtr SelectiveTheta(double threshold) {
  return And(Eq(RCol("cust"), BCol("cust")), Gt(RCol("sale"), Lit(threshold)));
}

// ---------------------------------------------------------------------------
// The acceptance matrix: {1,2,8} threads × {spill on,off}, against the
// reference

TEST(OutOfCoreTest, BitIdenticalAcrossModeMatrix) {
  Table sales = testutil::RandomSales(3, 500);
  Result<Table> base = GroupByBase(sales, {"cust"});
  ASSERT_TRUE(base.ok());
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total"),
                               Avg(RCol("sale"), "mean"), Min(RCol("sale"), "lo"),
                               Max(RCol("sale"), "hi")};
  const ExprPtr theta = SelectiveTheta(120);
  PagedFixture paged(sales, 64, "matrix");
  BlockCache cache(BlockCache::Options{});

  Result<Table> expect = MdJoinReference(*base, sales, aggs, theta);
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();
  Result<Table> in_memory = MdJoin(*base, sales, aggs, theta);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  EXPECT_TRUE(TablesBitIdentical(*expect, *in_memory));
  for (int threads : {1, 2, 8}) {
    for (bool spill : {false, true}) {
      MdJoinOptions md;
      md.num_threads = threads;
      md.block_cache = &cache;
      md.enable_spill = spill;
      md.spill_partitions = spill ? 3 : 0;
      MdJoinStats stats;
      Result<Table> got = PagedMdJoin(*base, paged.table(), aggs, theta, md, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(TablesBitIdentical(*expect, *got))
          << "threads=" << threads << " spill=" << spill;
      EXPECT_GT(stats.blocks_read, 0) << "paged run decoded no blocks";
      if (spill) {
        EXPECT_EQ(stats.spill_partitions, 3);
      }
    }
  }

  // k = 3 (Example 2.2's tri-state pivot) over the same file, through the
  // executor's generalized arm: the paged source under every thread count.
  // Spill serves single MD-joins only, so with it on the generalized node
  // still streams (memory pressure would degrade it to more passes).
  const std::vector<MdJoinComponent> tri_state = testutil::TriStateComponents();
  const Table tri_expect = testutil::GeneralizedReference(*base, sales, tri_state);
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Custs", &*base).ok());
  ASSERT_TRUE(RegisterPagedTable(&catalog, "Sales", paged.table()).ok());
  const PlanPtr plan =
      GeneralizedMdJoinPlan(TableRef("Custs"), TableRef("Sales"), tri_state);
  for (int threads : {1, 2, 8}) {
    for (bool spill : {false, true}) {
      MdJoinOptions md;
      md.num_threads = threads;
      md.block_cache = &cache;
      md.enable_spill = spill;
      md.spill_partitions = spill ? 3 : 0;
      ExecStats exec;
      Result<Table> got = ExecutePlan(plan, catalog, md, &exec);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(TablesBitIdentical(tri_expect, *got))
          << "tri-state threads=" << threads << " spill=" << spill;
      EXPECT_GT(exec.blocks_read, 0) << "generalized paged run decoded no blocks";
    }
  }
}

TEST(OutOfCoreTest, BitIdenticalWithoutCacheAndWithoutEquiConjunct) {
  // No cache (ephemeral faults) and a θ with no equi conjunct: the spill arm
  // must fall back and still match in-memory exactly.
  Table sales = testutil::RandomSales(5, 200);
  TableBuilder bb({{"lo", DataType::kFloat64}});
  for (double lo : {50.0, 150.0, 400.0}) bb.AppendRowOrDie({F(lo)});
  Table base = std::move(bb).Finish();
  const ExprPtr theta = Gt(RCol("sale"), BCol("lo"));
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};
  Result<Table> expect = MdJoin(base, sales, aggs, theta);
  ASSERT_TRUE(expect.ok());
  PagedFixture paged(sales, 32, "noequi");
  for (bool spill : {false, true}) {
    MdJoinOptions md;
    md.enable_spill = spill;
    Result<Table> got = PagedMdJoin(base, paged.table(), aggs, theta, md);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(TablesBitIdentical(*expect, *got)) << "spill=" << spill;
  }
}

TEST(OutOfCoreTest, EmptyBaseAndEmptyDetail) {
  Table sales = testutil::SmallSales();
  Table empty_base(Schema({{"cust", DataType::kInt64}}));
  std::vector<AggSpec> aggs = {Count("n")};
  const ExprPtr theta = Eq(RCol("cust"), BCol("cust"));
  {
    PagedFixture paged(sales, 4, "emptyb");
    Result<Table> got = PagedMdJoin(empty_base, paged.table(), aggs, theta);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->num_rows(), 0);
  }
  {
    Table empty_detail(testutil::SalesSchema());
    Result<Table> base = GroupByBase(sales, {"cust"});
    ASSERT_TRUE(base.ok());
    PagedFixture paged(empty_detail, 4, "emptyd");
    Result<Table> expect = MdJoin(*base, empty_detail, aggs, theta);
    ASSERT_TRUE(expect.ok());
    Result<Table> got = PagedMdJoin(*base, paged.table(), aggs, theta);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(TablesBitIdentical(*expect, *got));
  }
}

// ---------------------------------------------------------------------------
// Zone-map pruning

TEST(OutOfCoreTest, SelectiveThetaPrunesMajorityOfBlocks) {
  // Detail sorted by month: a θ selecting one month refutes every block
  // holding the others. With 4 months over 16 blocks, pruning must remove
  // >= 50% of blocks (the acceptance bar) — here 3/4 of them.
  Table sales = testutil::RandomSales(9, 512);
  Result<Table> sorted = SortTableBy(sales, {"month"});
  ASSERT_TRUE(sorted.ok());
  Result<Table> base = GroupByBase(*sorted, {"cust"});
  ASSERT_TRUE(base.ok());
  const ExprPtr theta =
      And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("month"), Lit(2)));
  PagedFixture paged(*sorted, 32, "prune");
  const int num_blocks = paged.table().num_blocks();
  ASSERT_EQ(num_blocks, 16);

  MdJoinStats stats;
  Result<Table> got = PagedMdJoin(*base, paged.table(), {Count("n")}, theta, {},
                                  &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_GE(stats.blocks_pruned, num_blocks / 2)
      << "selective θ pruned only " << stats.blocks_pruned << "/" << num_blocks;
  EXPECT_EQ(stats.blocks_read + stats.blocks_pruned, num_blocks);
  Result<Table> expect = MdJoin(*base, *sorted, {Count("n")}, theta);
  ASSERT_TRUE(expect.ok());
  EXPECT_TRUE(TablesBitIdentical(*expect, *got));
}

TEST(OutOfCoreTest, UnsatisfiableThetaPrunesEverything) {
  Table sales = testutil::SmallSales();
  Result<Table> base = GroupByBase(sales, {"cust"});
  ASSERT_TRUE(base.ok());
  // sale > 10 and sale < 5 is range-refuted without reading any block.
  const ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")),
                            And(Gt(RCol("sale"), Lit(10.0)),
                                Lt(RCol("sale"), Lit(5.0))));
  PagedFixture paged(sales, 4, "unsat");
  MdJoinStats stats;
  Result<Table> got = PagedMdJoin(*base, paged.table(),
                                  {Count("n"), Sum(RCol("sale"), "t")}, theta,
                                  {}, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(stats.blocks_read, 0);
  EXPECT_EQ(stats.blocks_pruned, paged.table().num_blocks());
  // Outer semantics intact: every base row present with identity aggregates.
  EXPECT_EQ(got->num_rows(), base->num_rows());
  for (int64_t r = 0; r < got->num_rows(); ++r) {
    EXPECT_EQ(got->Get(r, got->num_columns() - 2).int64(), 0);
    EXPECT_TRUE(got->Get(r, got->num_columns() - 1).is_null());
  }
}

TEST(OutOfCoreTest, PruningRespectsMultiPassBudgetDegradation) {
  // A soft budget too small for all aggregate states forces multi-pass over
  // the base; every pass re-walks the file, pruning the same refuted blocks.
  Table sales = testutil::RandomSales(13, 400);
  Result<Table> sorted = SortTableBy(sales, {"month"});
  ASSERT_TRUE(sorted.ok());
  Result<Table> base = GroupByBase(*sorted, {"cust", "prod", "month"});
  ASSERT_TRUE(base.ok());
  const ExprPtr theta = And(And(Eq(RCol("cust"), BCol("cust")),
                                Eq(RCol("prod"), BCol("prod"))),
                            Eq(RCol("month"), Lit(1)));
  Result<Table> expect = MdJoin(*base, *sorted, {Count("n")}, theta);
  ASSERT_TRUE(expect.ok());

  PagedFixture paged(*sorted, 32, "multipass");
  QueryGuardOptions goptions;
  goptions.memory_budget_bytes = 2048;  // forces several passes
  QueryGuard guard(goptions);
  MdJoinOptions md;
  md.guard = &guard;
  MdJoinStats stats;
  Result<Table> got = PagedMdJoin(*base, paged.table(), {Count("n")}, theta, md,
                                  &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(stats.passes_over_detail, 1);
  EXPECT_TRUE(TablesBitIdentical(*expect, *got));
  EXPECT_EQ(guard.bytes_reserved(), 0);
}

TEST(OutOfCoreTest, GeneralizedKeepsBlocksAnyComponentMayMatch) {
  // One component's θ is refuted by every zone map (no sale that large);
  // the other's keeps only the blocks holding month 2. The generalized
  // paged scan reads the union of the two plans — exactly the second's.
  Table sales = testutil::RandomSales(9, 512);
  Result<Table> sorted = SortTableBy(sales, {"month"});
  ASSERT_TRUE(sorted.ok());
  Result<Table> base = GroupByBase(*sorted, {"cust"});
  ASSERT_TRUE(base.ok());
  PagedFixture paged(*sorted, 32, "kprune");
  const int num_blocks = paged.table().num_blocks();
  const ExprPtr refuted = And(Eq(RCol("cust"), BCol("cust")), Gt(RCol("sale"), Lit(1e9)));
  const ExprPtr month2 = And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("month"), Lit(2)));
  const std::vector<bool> keep_refuted = PlanBlockPruning(paged.table(), refuted);
  const std::vector<bool> keep_month2 = PlanBlockPruning(paged.table(), month2);
  ASSERT_EQ(std::count(keep_refuted.begin(), keep_refuted.end(), true), 0);
  const int64_t month2_pruned = std::count(keep_month2.begin(), keep_month2.end(), false);
  ASSERT_GE(month2_pruned, num_blocks / 2);

  const std::vector<MdJoinComponent> components = {
      {{Count("n_big"), Sum(RCol("sale"), "big")}, refuted},
      {{Count("n_feb"), Avg(RCol("sale"), "avg_feb")}, month2}};
  const Table expect = testutil::GeneralizedReference(*base, *sorted, components);
  for (int threads : {1, 2}) {
    MdJoinOptions md;
    md.num_threads = threads;
    MdJoinStats stats;
    Result<Table> got =
        RunMdJoin("GeneralizedMdJoin", *base, PagedSource(paged.table(), components, md),
                  components, md, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(TablesBitIdentical(expect, *got)) << "threads=" << threads;
    EXPECT_EQ(stats.blocks_pruned, month2_pruned) << "threads=" << threads;
    EXPECT_EQ(stats.blocks_read + stats.blocks_pruned, num_blocks);
  }
}

// ---------------------------------------------------------------------------
// Spill routing: ALL and NULL equi keys

TEST(OutOfCoreTest, SpillRoutesAllAndNullKeys) {
  // Base rows: regular customers, a NULL key (matches nothing), and an ALL
  // key (matches every detail row). Detail rows: regular, NULL key (dropped),
  // ALL key (matches every base row whose other conjuncts hold).
  TableBuilder db(testutil::SalesSchema());
  auto add = [&db](Value cust, double sale) {
    db.AppendRowOrDie({cust, I(10), I(1), I(1), I(1997), S("NY"), F(sale)});
  };
  add(I(1), 100);
  add(I(2), 200);
  add(NUL(), 999);
  add(ALL(), 50);
  add(I(1), 10);
  Table detail = std::move(db).Finish();

  TableBuilder bb({{"cust", DataType::kInt64}});
  bb.AppendRowOrDie({I(1)});
  bb.AppendRowOrDie({I(2)});
  bb.AppendRowOrDie({NUL()});
  bb.AppendRowOrDie({ALL()});
  Table base = std::move(bb).Finish();

  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};
  const ExprPtr theta = Eq(RCol("cust"), BCol("cust"));
  Result<Table> expect = MdJoin(base, detail, aggs, theta);
  ASSERT_TRUE(expect.ok());

  // In-memory spill and paged spill must both reproduce it exactly.
  MdJoinOptions md;
  md.spill_partitions = 3;
  MdJoinStats stats;
  Result<Table> spilled = SpillMdJoin(base, detail, aggs, theta, md, &stats);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_TRUE(TablesBitIdentical(*expect, *spilled));
  EXPECT_GT(stats.spill_bytes_written, 0);

  PagedFixture paged(detail, 2, "allnull");
  md.enable_spill = true;
  Result<Table> paged_spilled =
      PagedMdJoin(base, paged.table(), aggs, theta, md);
  ASSERT_TRUE(paged_spilled.ok()) << paged_spilled.status().ToString();
  EXPECT_TRUE(TablesBitIdentical(*expect, *paged_spilled));

  // Spot-check the semantics this encodes: NULL-key base row matched nothing
  // (count 0); ALL-key base row matches every detail row whose key is not
  // NULL (4 of 5 here: θ-equality is Value::MatchesEq, which never holds on
  // NULL). The spill router broadcasts ALL-key base rows against the full
  // detail, and the broadcast join drops the NULL-key detail row itself.
  EXPECT_EQ(spilled->Get(2, 1).int64(), 0);
  EXPECT_TRUE(spilled->Get(2, 2).is_null());
  EXPECT_EQ(spilled->Get(3, 1).int64(), 4);
  Result<Table> reference = MdJoinReference(base, detail, aggs, theta);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(TablesBitIdentical(*reference, *spilled));
}

TEST(OutOfCoreTest, SpillUnderGuardLeavesNoReservations) {
  Table sales = testutil::RandomSales(21, 600);
  Result<Table> base = GroupByBase(sales, {"cust"});
  ASSERT_TRUE(base.ok());
  QueryGuardOptions goptions;
  goptions.memory_hard_limit_bytes = 8 << 20;
  QueryGuard guard(goptions);
  MdJoinOptions md;
  md.guard = &guard;
  md.enable_spill = true;
  md.spill_partitions = 4;
  md.num_threads = 2;
  PagedFixture paged(sales, 64, "spillguard");
  MdJoinStats stats;
  Result<Table> got = PagedMdJoin(*base, paged.table(),
                                  {Count("n"), Sum(RCol("sale"), "t")},
                                  SelectiveTheta(100), md, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(guard.bytes_reserved(), 0);
  EXPECT_EQ(stats.spill_partitions, 4);
  Result<Table> expect =
      MdJoin(*base, sales, {Count("n"), Sum(RCol("sale"), "t")},
             SelectiveTheta(100));
  ASSERT_TRUE(expect.ok());
  EXPECT_TRUE(TablesBitIdentical(*expect, *got));
}

// ---------------------------------------------------------------------------
// PagedTable plumbing

TEST(OutOfCoreTest, ReadAllMaterializesAndChargesGuard) {
  Table sales = testutil::RandomSales(17, 100);
  PagedFixture paged(sales, 16, "readall");
  QueryGuardOptions goptions;
  goptions.memory_hard_limit_bytes = 1 << 30;
  QueryGuard guard(goptions);
  Result<Table> read = paged.table().ReadAll(&guard);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->num_rows(), sales.num_rows());
  EXPECT_GT(guard.bytes_high_water(), 0);
}

TEST(OutOfCoreTest, BlockCacheBytesChargedThroughCallbacks) {
  // The block cache charges decoded residency to its external pool; the
  // total drains when the cache dies, and a paged scan through it leaves no
  // guard bytes behind.
  Table sales = testutil::RandomSales(19, 256);
  Result<Table> base = GroupByBase(sales, {"cust"});
  ASSERT_TRUE(base.ok());
  PagedFixture paged(sales, 32, "charge");
  int64_t pool = 0;
  {
    BlockCache::Options coptions;
    coptions.capacity_bytes = 1 << 20;
    coptions.charge = [&pool](int64_t bytes) {
      pool += bytes;
      return true;
    };
    coptions.release = [&pool](int64_t bytes) { pool -= bytes; };
    BlockCache cache(coptions);
    QueryGuard guard(QueryGuardOptions{});
    MdJoinOptions md;
    md.guard = &guard;
    md.block_cache = &cache;
    Result<Table> got = PagedMdJoin(*base, paged.table(), {Count("n")},
                                    Eq(RCol("cust"), BCol("cust")), md);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(pool, cache.resident_bytes());
    EXPECT_GT(pool, 0);
    EXPECT_EQ(guard.bytes_reserved(), 0);
  }
  EXPECT_EQ(pool, 0);
}

TEST(OutOfCoreTest, SecondScanThroughCacheHitsResidentBlocks) {
  Table sales = testutil::RandomSales(23, 256);
  Result<Table> base = GroupByBase(sales, {"cust"});
  ASSERT_TRUE(base.ok());
  PagedFixture paged(sales, 32, "hits");
  // Explicit capacity: the hit assertions below must hold even when the CI
  // low-memory job starves default-sized caches via MDJOIN_BLOCK_CACHE_BYTES.
  BlockCache::Options coptions;
  coptions.capacity_bytes = 64 << 20;
  BlockCache cache(coptions);
  MdJoinOptions md;
  md.block_cache = &cache;
  const ExprPtr theta = Eq(RCol("cust"), BCol("cust"));
  MdJoinStats cold, warm;
  ASSERT_TRUE(PagedMdJoin(*base, paged.table(), {Count("n")}, theta, md, &cold).ok());
  ASSERT_TRUE(PagedMdJoin(*base, paged.table(), {Count("n")}, theta, md, &warm).ok());
  EXPECT_EQ(cold.block_cache_hits, 0);
  EXPECT_EQ(cold.blocks_faulted, cold.blocks_read);
  EXPECT_EQ(warm.block_cache_hits, warm.blocks_read);
  EXPECT_EQ(warm.blocks_faulted, 0);
}

// ---------------------------------------------------------------------------
// Catalog / executor integration

TEST(OutOfCoreTest, ExecutorRunsMdJoinAgainstPagedDetail) {
  Table sales = testutil::SmallSales();
  PagedFixture paged(sales, 4, "exec");
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("SalesMem", &sales).ok());
  ASSERT_TRUE(RegisterPagedTable(&catalog, "Sales", paged.table()).ok());
  EXPECT_NE(catalog.FindPaged("Sales"), nullptr);
  EXPECT_EQ(catalog.FindPaged("SalesMem"), nullptr);

  const char* sql =
      "select cust, count(*) as n, sum(X.sale) as total from Sales "
      "analyze by group(cust) such that X: X.cust = cust";
  Result<analyze::BoundQuery> bound = analyze::BindQueryString(sql, catalog);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  Result<Table> got = ExecutePlan(bound->plan, catalog);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  const char* mem_sql =
      "select cust, count(*) as n, sum(X.sale) as total from SalesMem "
      "analyze by group(cust) such that X: X.cust = cust";
  Result<analyze::BoundQuery> mem_bound = analyze::BindQueryString(mem_sql, catalog);
  ASSERT_TRUE(mem_bound.ok());
  Result<Table> expect = ExecutePlan(mem_bound->plan, catalog);
  ASSERT_TRUE(expect.ok());
  EXPECT_TRUE(TablesBitIdentical(*expect, *got));
}

TEST(OutOfCoreTest, ExplainAnalyzeReportsBlockCounters) {
  Table sales = testutil::RandomSales(29, 200);
  Result<Table> sorted = SortTableBy(sales, {"month"});
  ASSERT_TRUE(sorted.ok());
  PagedFixture paged(*sorted, 16, "profile");
  Catalog catalog;
  ASSERT_TRUE(RegisterPagedTable(&catalog, "Sales", paged.table()).ok());
  const char* sql =
      "select cust, count(X.*) as n from Sales analyze by group(cust) "
      "such that X: X.cust = cust and X.month = 2";
  Result<analyze::BoundQuery> bound = analyze::BindQueryString(sql, catalog);
  ASSERT_TRUE(bound.ok());
  QueryProfile profile;
  Result<Table> got = ExplainAnalyze(bound->plan, catalog, {}, &profile);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // The MD-join node carries the out-of-core counters.
  const OperatorProfile* md = nullptr;
  std::function<void(const OperatorProfile&)> find = [&](const OperatorProfile& n) {
    if (n.is_mdjoin) md = &n;
    for (const auto& child : n.children) find(*child);
  };
  ASSERT_NE(profile.root, nullptr);
  find(*profile.root);
  ASSERT_NE(md, nullptr);
  EXPECT_GT(md->blocks_read, 0);
  EXPECT_GT(md->blocks_pruned, 0);
  const std::string text = profile.ToText();
  EXPECT_NE(text.find("blocks_read="), std::string::npos) << text;
}

TEST(OutOfCoreTest, FilterOverPagedDetailStreamsThroughZoneMaps) {
  // Theorem 4.2's detail pushdown leaves a Filter between the MD-join and a
  // paged TableRef. The executor folds it back into θ and streams the file,
  // so the zone maps prune instead of the whole file being materialized.
  Table sales = testutil::RandomSales(31, 512);
  Result<Table> sorted = SortTableBy(sales, {"month"});
  ASSERT_TRUE(sorted.ok());
  Result<Table> base = GroupByBase(*sorted, {"cust"});
  ASSERT_TRUE(base.ok());
  PagedFixture paged(*sorted, 32, "filter");
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Custs", &*base).ok());
  ASSERT_TRUE(catalog.Register("SalesMem", &*sorted).ok());
  ASSERT_TRUE(RegisterPagedTable(&catalog, "Sales", paged.table()).ok());
  auto make_plan = [](const char* detail) {
    return MdJoinPlan(
        TableRef("Custs"),
        FilterPlan(TableRef(detail), And(Eq(Col("year"), Lit(1997)), Ge(Col("month"), Lit(3)))),
        {Count("n"), Sum(RCol("sale"), "total")}, Eq(RCol("cust"), BCol("cust")));
  };
  Result<Table> expect = ExecutePlan(make_plan("SalesMem"), catalog);
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();

  QueryProfile profile;
  Result<Table> got = ExplainAnalyze(make_plan("Sales"), catalog, {}, &profile);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(TablesBitIdentical(*expect, *got));
  ASSERT_NE(profile.root, nullptr);
  const OperatorProfile* md = nullptr;
  std::function<void(const OperatorProfile&)> find = [&](const OperatorProfile& n) {
    if (n.is_mdjoin) md = &n;
    for (const auto& child : n.children) find(*child);
  };
  find(*profile.root);
  ASSERT_NE(md, nullptr);
  EXPECT_GT(md->blocks_pruned, 0);
  EXPECT_GT(md->blocks_read, 0);
  EXPECT_EQ(md->blocks_read + md->blocks_pruned, paged.table().num_blocks());
}

TEST(OutOfCoreTest, FilterSharedWithPagedDetailIsNotHeld) {
  // One Filter node feeds the base (materialized) and the detail (streamed,
  // never evaluated) of an MD-join. It is evaluated once, so the walk must
  // not hold its result for a second use: the guard's high water equals that
  // of the same plan built with two separate Filter nodes. The Filter keeps
  // every row, so a held copy would show above the whole-file read.
  Table sales = testutil::RandomSales(37, 256);
  PagedFixture paged(sales, 32, "shared_filter");
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("SalesMem", &sales).ok());
  ASSERT_TRUE(RegisterPagedTable(&catalog, "Sales", paged.table()).ok());
  auto filtered = [](const char* table) {
    return FilterPlan(TableRef(table), Ge(Col("month"), Lit(1)));
  };
  auto make_plan = [](const PlanPtr& for_base, const PlanPtr& for_detail) {
    return MdJoinPlan(DistinctPlan(ProjectPlan(for_base, {{Col("cust"), "cust"}})),
                      for_detail, {Count("n"), Sum(RCol("sale"), "total")},
                      Eq(RCol("cust"), BCol("cust")));
  };
  const PlanPtr one = filtered("Sales");
  int64_t high_water[2] = {0, 0};
  for (int separate = 0; separate < 2; ++separate) {
    QueryGuard guard;
    MdJoinOptions md;
    md.guard = &guard;
    ExecStats stats;
    Result<Table> got = ExecutePlan(
        make_plan(one, separate != 0 ? filtered("Sales") : one), catalog, md, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    Result<Table> expect =
        ExecutePlan(make_plan(filtered("SalesMem"), filtered("SalesMem")), catalog);
    ASSERT_TRUE(expect.ok());
    EXPECT_TRUE(TablesBitIdentical(*expect, *got));
    EXPECT_EQ(stats.cse_hits, 0);
    EXPECT_EQ(guard.bytes_reserved(), 0);
    high_water[separate] = guard.bytes_high_water();
  }
  EXPECT_EQ(high_water[0], high_water[1]);
}

TEST(OutOfCoreTest, CatalogRejectsDuplicateNamesAcrossKinds) {
  Table sales = testutil::SmallSales();
  PagedFixture paged(sales, 4, "dupe");
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("T", &sales).ok());
  EXPECT_FALSE(RegisterPagedTable(&catalog, "T", paged.table()).ok());
  ASSERT_TRUE(RegisterPagedTable(&catalog, "P", paged.table()).ok());
  EXPECT_FALSE(catalog.Register("P", &sales).ok());
  Result<int64_t> rows = catalog.LookupNumRows("P");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, sales.num_rows());
}

}  // namespace
}  // namespace mdjoin
