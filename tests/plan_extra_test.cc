/// Plan-IR plumbing not covered by the rule tests: the Sort node, schema
/// inference corner cases, CloneWithChildren, the executor walk (CSE, shared
/// profile leaves, borrowed tables, partition slices), cost estimates per
/// node kind, and explain-label rendering.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/query_guard.h"
#include "expr/conjuncts.h"
#include "optimizer/cost.h"
#include "optimizer/executor.h"
#include "optimizer/plan.h"
#include "ra/filter.h"
#include "ra/join.h"
#include "ra/project.h"
#include "stats/feedback.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT

class PlanExtraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sales_ = testutil::SmallSales();
    ASSERT_TRUE(catalog_.Register("sales", &sales_).ok());
  }

  Table sales_;
  Catalog catalog_;
};

TEST_F(PlanExtraTest, SortNodeOrdersRows) {
  PlanPtr plan = SortPlan(TableRef("sales"), {"sale"}, {false});
  Result<Table> out = ExecutePlan(plan, catalog_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (int64_t r = 1; r < out->num_rows(); ++r) {
    EXPECT_GE(out->Get(r - 1, 6).AsDouble(), out->Get(r, 6).AsDouble());
  }
}

TEST_F(PlanExtraTest, SortNodeMultiKeyAndSchema) {
  PlanPtr plan = SortPlan(TableRef("sales"), {"cust", "month"});
  Result<Schema> schema = InferSchema(plan, catalog_);
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(schema->Equals(sales_.schema()));
  // Unknown sort column is caught by inference.
  PlanPtr bad = SortPlan(TableRef("sales"), {"bogus"});
  EXPECT_FALSE(InferSchema(bad, catalog_).ok());
  EXPECT_NE(plan->Label().find("cust"), std::string::npos);
}

TEST_F(PlanExtraTest, CloneWithChildrenPreservesPayload) {
  PlanPtr md = MdJoinPlan(TableRef("sales"), TableRef("sales"),
                          {Count("n")}, Eq(RCol("cust"), BCol("cust")));
  PlanPtr cloned = CloneWithChildren(md, {TableRef("sales"), TableRef("sales")});
  EXPECT_EQ(ExplainPlan(md), ExplainPlan(cloned));
  PlanPtr sort = SortPlan(TableRef("sales"), {"cust"}, {false});
  PlanPtr sort_clone = CloneWithChildren(sort, {TableRef("sales")});
  EXPECT_EQ(sort->Label(), sort_clone->Label());
}

/// The distinct-customers subquery, built by calling the operators directly.
Table DistinctCusts(const Table& sales) {
  return Distinct(*Project(sales, {{Col("cust"), "cust"}}));
}

TEST_F(PlanExtraTest, CseReusesIdenticalSubtrees) {
  // The same expensive subquery (distinct customers) used on both sides of
  // a join: CSE must evaluate it once.
  PlanPtr dist = DistinctPlan(ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}}));
  PlanPtr join = HashJoinPlan(dist, dist, {"cust"}, {"cust"});
  ExecStats stats;
  Result<Table> out = ExecutePlan(join, catalog_, {}, &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  Table custs = DistinctCusts(sales_);
  Table expected = *HashJoin(custs, custs, {"cust"}, {"cust"});
  EXPECT_TRUE(TablesEqualOrdered(*out, expected));
  EXPECT_EQ(stats.cse_hits, 1);
  // HashJoin, Distinct, Project, TableRef; the second Distinct is shared.
  EXPECT_EQ(stats.nodes_executed, 4);
}

TEST_F(PlanExtraTest, CseDistinguishesDifferentPayloads) {
  PlanPtr f1 = FilterPlan(TableRef("sales"), Eq(Col("state"), Lit("NY")));
  PlanPtr f2 = FilterPlan(TableRef("sales"), Eq(Col("state"), Lit("NJ")));
  PlanPtr join = HashJoinPlan(f1, f2, {"cust"}, {"cust"});
  ExecStats stats;
  Result<Table> out = ExecutePlan(join, catalog_, {}, &stats);
  ASSERT_TRUE(out.ok());
  Table expected = *HashJoin(*Filter(sales_, Eq(Col("state"), Lit("NY"))),
                             *Filter(sales_, Eq(Col("state"), Lit("NJ"))), {"cust"},
                             {"cust"});
  EXPECT_TRUE(TablesEqualOrdered(*out, expected));
  // The filters differ; the shared TableRef(sales) leaf is borrowed from the
  // catalog, never memoized.
  EXPECT_EQ(stats.cse_hits, 0);
}

TEST_F(PlanExtraTest, CseKeysOnTheNodeNotItsRendering) {
  // Two different projections with the same output name over one child: the
  // labels render alike, but the nodes differ and so must their results.
  PlanPtr plan = UnionPlan({ProjectPlan(TableRef("sales"), {{Col("cust"), "k"}}),
                            ProjectPlan(TableRef("sales"), {{Col("prod"), "k"}})});
  ExecStats stats;
  Result<Table> out = ExecutePlan(plan, catalog_, {}, &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  Table custs = *Project(sales_, {{Col("cust"), "k"}});
  Table prods = *Project(sales_, {{Col("prod"), "k"}});
  Result<Table> expected = ConcatAll(std::vector<const Table*>{&custs, &prods});
  EXPECT_TRUE(TablesEqualOrdered(*out, *expected));
  EXPECT_EQ(stats.cse_hits, 0);
}

TEST_F(PlanExtraTest, CseChargesHeldResultsAndReleasesNestedOnes) {
  // dist occurs twice. Its Project child is evaluated once, at dist's first
  // occurrence, so it is never held. dist's own result is held, and charged
  // to the guard, from its first occurrence while `prods` is built until its
  // second occurrence takes it.
  PlanPtr dist = DistinctPlan(ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}}));
  PlanPtr prods_plan = ProjectPlan(TableRef("sales"), {{Col("prod"), "cust"}});
  PlanPtr inner_plan = HashJoinPlan(prods_plan, dist, {"cust"}, {"cust"});
  PlanPtr plan = HashJoinPlan(dist, inner_plan, {"cust"}, {"cust"});
  QueryGuard guard;
  MdJoinOptions options;
  options.guard = &guard;
  ExecStats stats;
  Result<Table> out = ExecutePlan(plan, catalog_, options, &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(stats.cse_hits, 1);

  const Table custs_all = *Project(sales_, {{Col("cust"), "cust"}});
  const Table custs = Distinct(custs_all);
  const Table prods = *Project(sales_, {{Col("prod"), "cust"}});
  const Table inner = *HashJoin(prods, custs, {"cust"}, {"cust"});
  const Table expected = *HashJoin(custs, inner, {"cust"}, {"cust"});
  EXPECT_TRUE(TablesEqualOrdered(*out, expected));
  EXPECT_EQ(guard.bytes_high_water(),
            std::max({custs_all.ApproxBytes(), custs.ApproxBytes() + prods.ApproxBytes(),
                      inner.ApproxBytes(), expected.ApproxBytes()}));
  EXPECT_EQ(guard.bytes_reserved(), 0);
}

TEST_F(PlanExtraTest, ExplainAnalyzeMarksSharedSubtree) {
  PlanPtr dist = DistinctPlan(ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}}));
  PlanPtr plan = MdJoinPlan(HashJoinPlan(dist, dist, {"cust"}, {"cust"}),
                            TableRef("sales"), {Count("n")},
                            Eq(RCol("cust"), BCol("cust")));
  FeedbackStore feedback;
  MdJoinOptions options;
  options.feedback = &feedback;
  QueryProfile profile;
  ExecStats stats;
  Result<Table> out = ExplainAnalyze(plan, catalog_, options, &profile, &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  Table custs = DistinctCusts(sales_);
  Table expected = *MdJoin(*HashJoin(custs, custs, {"cust"}, {"cust"}), sales_,
                           {Count("n")}, Eq(RCol("cust"), BCol("cust")));
  EXPECT_TRUE(TablesEqualOrdered(*out, expected));
  EXPECT_EQ(stats.cse_hits, 1);
  // MdJoin → HashJoin → {Distinct (evaluated), Distinct (shared leaf)}.
  const OperatorProfile& join = *profile.root->children[0];
  ASSERT_EQ(join.children.size(), 2u);
  EXPECT_FALSE(join.children[0]->shared);
  EXPECT_EQ(join.children[0]->children.size(), 1u);
  EXPECT_TRUE(join.children[1]->shared);
  EXPECT_TRUE(join.children[1]->children.empty());
  EXPECT_EQ(join.children[1]->output_rows, custs.num_rows());
  EXPECT_NE(profile.ToText().find(" shared"), std::string::npos);
  EXPECT_NE(profile.ToJson().find("\"shared\": true"), std::string::npos);
  // The shared occurrence harvests no second observation.
  std::optional<FeedbackEntry> entry = feedback.Lookup(PlanFingerprint(dist));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->observations, 1);
}

TEST_F(PlanExtraTest, ExecutePlanAndExplainAnalyzeFillEqualStats) {
  PlanPtr dist = DistinctPlan(ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}}));
  PlanPtr plan = UnionPlan(
      {MdJoinPlan(dist, FilterPlan(TableRef("sales"), Gt(Col("sale"), Lit(10))),
                  {Count("n")}, Eq(RCol("cust"), BCol("cust"))),
       MdJoinPlan(dist, TableRef("sales"), {Count("n")},
                  Eq(RCol("cust"), BCol("cust")))});
  ExecStats plain, analyzed;
  Result<Table> a = ExecutePlan(plan, catalog_, {}, &plain);
  QueryProfile profile;
  Result<Table> b = ExplainAnalyze(plan, catalog_, {}, &profile, &analyzed);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(TablesEqualOrdered(*a, *b));
  EXPECT_EQ(plain.nodes_executed, analyzed.nodes_executed);
  EXPECT_EQ(plain.detail_rows_scanned, analyzed.detail_rows_scanned);
  EXPECT_EQ(plain.candidate_pairs, analyzed.candidate_pairs);
  EXPECT_EQ(plain.matched_pairs, analyzed.matched_pairs);
  EXPECT_EQ(plain.mdjoin_operators, analyzed.mdjoin_operators);
  EXPECT_EQ(plain.rows_materialized, analyzed.rows_materialized);
  EXPECT_EQ(plain.cse_hits, analyzed.cse_hits);
  EXPECT_EQ(plain.blocks_read, analyzed.blocks_read);
  EXPECT_EQ(plain.spill_bytes, analyzed.spill_bytes);
  EXPECT_EQ(plain.mdjoin_operators, 2);
  EXPECT_EQ(plain.cse_hits, 1);
  const Table filtered = *Filter(sales_, Gt(Col("sale"), Lit(10)));
  EXPECT_EQ(plain.detail_rows_scanned, filtered.num_rows() + sales_.num_rows());
}

TEST_F(PlanExtraTest, TableRefReturnsTheCatalogTable) {
  ExecStats stats;
  Result<Table> out = ExecutePlan(TableRef("sales"), catalog_, {}, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(TablesEqualOrdered(*out, sales_));
  EXPECT_EQ(stats.nodes_executed, 1);
  EXPECT_EQ(stats.rows_materialized, 0);  // read in place, copied once for the caller
}

TEST_F(PlanExtraTest, PartitionSlicesConcatenateToTheChild) {
  for (int n : {1, 3, 7}) {
    std::vector<Table> slices;
    for (int i = 0; i < n; ++i) {
      Result<Table> slice = ExecutePlan(PartitionPlan(TableRef("sales"), i, n), catalog_);
      ASSERT_TRUE(slice.ok()) << slice.status().ToString();
      EXPECT_TRUE(TablesEqualOrdered(*slice, PartitionIntoN(sales_, n)[i]))
          << "slice " << i << " of " << n;
      slices.push_back(std::move(*slice));
    }
    Result<Table> rejoined = ConcatAll(slices);
    ASSERT_TRUE(rejoined.ok());
    EXPECT_TRUE(TablesEqualOrdered(*rejoined, sales_)) << "n=" << n;
  }
}

TEST_F(PlanExtraTest, CostCoversEveryNodeKind) {
  PlanPtr base = DistinctPlan(ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}}));
  std::vector<PlanPtr> plans = {
      TableRef("sales"),
      FilterPlan(TableRef("sales"), Eq(Col("state"), Lit("NY"))),
      ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}}),
      DistinctPlan(TableRef("sales")),
      UnionPlan({TableRef("sales"), TableRef("sales")}),
      PartitionPlan(TableRef("sales"), 0, 4),
      HashJoinPlan(base, base, {"cust"}, {"cust"}),
      GroupByPlan(TableRef("sales"), {"cust"}, {Count("n")}),
      MdJoinPlan(base, TableRef("sales"), {Count("n")}, Eq(RCol("cust"), BCol("cust"))),
      GeneralizedMdJoinPlan(base, TableRef("sales"),
                            {{{Count("n")}, Eq(RCol("cust"), BCol("cust"))}}),
      GroupingSetsPlan(TableRef("sales"), {"prod", "month"},
                       testutil::CubeMasks({"prod", "month"})),
      GroupingSetsPlan(TableRef("sales"), {"prod", "month"}, {0b01}),
      SortPlan(TableRef("sales"), {"cust"}),
  };
  for (const PlanPtr& plan : plans) {
    Result<PlanCost> cost = EstimateCost(plan, catalog_);
    ASSERT_TRUE(cost.ok()) << plan->Label() << ": " << cost.status().ToString();
    EXPECT_GE(cost->output_rows, 0) << plan->Label();
    EXPECT_GE(cost->work, 0) << plan->Label();
  }
}

TEST_F(PlanExtraTest, ProfiledExecutionMatchesPlainAndRecordsTree) {
  PlanPtr base = DistinctPlan(ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}}));
  PlanPtr plan = MdJoinPlan(base, TableRef("sales"), {Count("n")},
                            Eq(RCol("cust"), BCol("cust")));
  QueryProfile profile;
  Result<Table> profiled = ExplainAnalyze(plan, catalog_, {}, &profile);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  Result<Table> plain = ExecutePlan(plan, catalog_);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(TablesEqualOrdered(*profiled, *plain));
  // The profile tree mirrors the plan tree.
  ASSERT_NE(profile.root, nullptr);
  const OperatorProfile& root = *profile.root;
  EXPECT_NE(root.label.find("MdJoin"), std::string::npos);
  EXPECT_EQ(root.output_rows, plain->num_rows());
  ASSERT_EQ(root.children.size(), 2u);  // base subtree + detail TableRef
  EXPECT_GE(root.elapsed_ms, 0);
  EXPECT_GE(root.self_ms, 0);
  double child_ms = root.children[0]->elapsed_ms + root.children[1]->elapsed_ms;
  EXPECT_NEAR(root.self_ms, root.elapsed_ms - child_ms, 1e-9);
  // The MD-join node carries its scan counters.
  EXPECT_TRUE(root.is_mdjoin);
  EXPECT_GT(root.detail_rows_scanned, 0);
  EXPECT_GT(root.matched_pairs, 0);
  EXPECT_TRUE(profile.complete);
  EXPECT_EQ(profile.terminal, "ok");
  // Rendering contains every operator.
  std::string text = profile.ToText();
  EXPECT_NE(text.find("MdJoin"), std::string::npos);
  EXPECT_NE(text.find("Distinct"), std::string::npos);
  EXPECT_NE(text.find("rows="), std::string::npos);
  EXPECT_NE(text.find("terminal: ok"), std::string::npos);
}

TEST_F(PlanExtraTest, ExplainLabelsCarryPayload) {
  EXPECT_EQ(TableRef("t")->Label(), "TableRef(t)");
  EXPECT_EQ(PartitionPlan(TableRef("t"), 2, 5)->Label(), "Partition(2/5)");
  EXPECT_NE(HashJoinPlan(TableRef("a"), TableRef("b"), {"k"}, {"k"},
                         JoinType::kLeftOuter)
                ->Label()
                .find("left outer"),
            std::string::npos);
  // The dims, then every grouping set in order, repeats and () included.
  EXPECT_EQ(
      GroupingSetsPlan(TableRef("t"), {"a", "b"}, {0b01, 0b11, 0b00, 0b01})->Label(),
      "GroupingSets(a, b; (a), (a, b), (), (a))");
  EXPECT_NE(GroupByPlan(TableRef("t"), {"k"}, {Count("n")})->Label().find("count"),
            std::string::npos);
}

TEST_F(PlanExtraTest, GroupingSetsRejectsMalformedShape) {
  // More dims than a mask has bits, a repeated dim, a mask beyond the dims:
  // schema inference, costing and execution all refuse, and the label
  // still renders.
  std::vector<std::string> wide;
  for (int i = 0; i <= 32; ++i) wide.push_back("d" + std::to_string(i));
  const std::vector<PlanPtr> bad = {
      GroupingSetsPlan(TableRef("sales"), wide, {0}),
      GroupingSetsPlan(TableRef("sales"), {"cust", "cust"}, {0b01}),
      GroupingSetsPlan(TableRef("sales"), {"cust"}, {0b10}),
  };
  for (const PlanPtr& plan : bad) {
    EXPECT_FALSE(InferSchema(plan, catalog_).ok()) << plan->Label();
    EXPECT_FALSE(EstimateCost(plan, catalog_).ok()) << plan->Label();
    EXPECT_FALSE(ExecutePlan(plan, catalog_).ok()) << plan->Label();
  }
}

TEST_F(PlanExtraTest, InferSchemaUnionMismatch) {
  PlanPtr a = ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}});
  PlanPtr b = ProjectPlan(TableRef("sales"), {{Col("state"), "state"}});
  EXPECT_TRUE(InferSchema(UnionPlan({a, b}), catalog_).status().IsTypeError());
  EXPECT_FALSE(InferSchema(UnionPlan({}), catalog_).ok());
}

TEST_F(PlanExtraTest, InferSchemaHashJoinSuffixing) {
  // Right side's non-key duplicate column gets "_r".
  PlanPtr join = HashJoinPlan(TableRef("sales"), TableRef("sales"), {"cust"}, {"cust"});
  Result<Schema> schema = InferSchema(join, catalog_);
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(schema->FindField("sale").has_value());
  EXPECT_TRUE(schema->FindField("sale_r").has_value());
  // Executor agrees with inference.
  Result<Table> out = ExecutePlan(join, catalog_);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->schema().Equals(*schema));
}

TEST_F(PlanExtraTest, InferredSchemasMatchExecutionEverywhere) {
  PlanPtr base = DistinctPlan(ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}}));
  std::vector<PlanPtr> plans = {
      FilterPlan(TableRef("sales"), Gt(Col("sale"), Lit(100))),
      MdJoinPlan(base, TableRef("sales"), {Count("n"), Avg(RCol("sale"), "a")},
                 Eq(RCol("cust"), BCol("cust"))),
      GeneralizedMdJoinPlan(
          base, TableRef("sales"),
          {{{Count("n1")}, Eq(RCol("cust"), BCol("cust"))},
           {{Sum(RCol("sale"), "s2")},
            And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("state"), Lit("NY")))}}),
      GroupingSetsPlan(TableRef("sales"), {"prod", "month"},
                       testutil::CubeMasks({"prod", "month"})),
      GroupingSetsPlan(TableRef("sales"), {"prod", "month"}, {0b10}),
      GroupByPlan(TableRef("sales"), {"state"}, {Min(Col("sale"), "lo")}),
      SortPlan(TableRef("sales"), {"sale"}, {false}),
      PartitionPlan(TableRef("sales"), 1, 3),
  };
  for (const PlanPtr& plan : plans) {
    Result<Schema> inferred = InferSchema(plan, catalog_);
    Result<Table> executed = ExecutePlan(plan, catalog_);
    ASSERT_TRUE(inferred.ok() && executed.ok()) << plan->Label();
    EXPECT_TRUE(executed->schema().Equals(*inferred)) << plan->Label()
        << "\ninferred: " << inferred->ToString()
        << "\nexecuted: " << executed->schema().ToString();
  }
}

}  // namespace
}  // namespace mdjoin
