#include <gtest/gtest.h>

#include "core/mdjoin.h"
#include "cube/base_tables.h"
#include "cube/pipesort.h"
#include "cube/subcube_selection.h"
#include "expr/conjuncts.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT

class SubcubeSelectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sales_ = testutil::RandomSales(77, 400);
    lattice_ = std::make_unique<CubeLattice>(
        *CubeLattice::Make({"prod", "month", "state"}));
    cardinality_ = *CuboidCardinalities(sales_, *lattice_);
  }

  Table sales_;
  std::unique_ptr<CubeLattice> lattice_;
  std::map<CuboidMask, int64_t> cardinality_;
};

TEST_F(SubcubeSelectionTest, AlwaysSeedsWithFullCuboid) {
  Result<SubcubeSelection> sel = SelectSubcubesGreedy(*lattice_, cardinality_, 1);
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel->materialized.size(), 1u);
  EXPECT_EQ(sel->materialized[0], lattice_->full_cuboid());
  EXPECT_FALSE(SelectSubcubesGreedy(*lattice_, cardinality_, 0).ok());
}

TEST_F(SubcubeSelectionTest, GreedyAddsBeneficialViews) {
  Result<SubcubeSelection> sel = SelectSubcubesGreedy(*lattice_, cardinality_, 4);
  ASSERT_TRUE(sel.ok());
  EXPECT_GT(sel->materialized.size(), 1u);
  EXPECT_LE(sel->materialized.size(), 4u);
  EXPECT_GT(sel->total_benefit, 0);
  // Adding views never repeats and never includes the full cuboid twice.
  std::set<CuboidMask> unique(sel->materialized.begin(), sel->materialized.end());
  EXPECT_EQ(unique.size(), sel->materialized.size());
  // Selected views must be strictly smaller than the full cuboid (otherwise
  // they carry no benefit).
  for (size_t i = 1; i < sel->materialized.size(); ++i) {
    EXPECT_LT(cardinality_[sel->materialized[i]], cardinality_[lattice_->full_cuboid()]);
  }
}

TEST_F(SubcubeSelectionTest, SelectionStopsWhenNothingHelps) {
  // With a budget of 2^d there is room for everything, but zero-benefit
  // cuboids must not be added: the loop stops early if benefits hit zero.
  Result<SubcubeSelection> sel = SelectSubcubesGreedy(*lattice_, cardinality_, 8);
  ASSERT_TRUE(sel.ok());
  EXPECT_LE(sel->materialized.size(), 8u);
}

TEST_F(SubcubeSelectionTest, CheapestAncestorPicksSmallest) {
  SubcubeSelection sel;
  sel.materialized = {lattice_->full_cuboid(), 0b011, 0b001};
  // Target (prod) = 0b001 is materialized: itself.
  EXPECT_EQ(*CheapestMaterializedAncestor(sel, cardinality_, 0b001), 0b001u);
  // Target () = 0b000 rolls from the smallest ancestor, (prod).
  EXPECT_EQ(*CheapestMaterializedAncestor(sel, cardinality_, 0b000), 0b001u);
  // Target (state) = 0b100 only has the full cuboid as ancestor.
  EXPECT_EQ(*CheapestMaterializedAncestor(sel, cardinality_, 0b100),
            lattice_->full_cuboid());
  // An empty selection cannot answer anything.
  SubcubeSelection empty;
  EXPECT_FALSE(CheapestMaterializedAncestor(empty, cardinality_, 0b001).ok());
}

TEST_F(SubcubeSelectionTest, MaterializedCuboidsMatchDirectComputation) {
  std::vector<AggSpec> aggs = {Sum(RCol("sale"), "total"), Count("n")};
  Result<SubcubeSelection> sel = SelectSubcubesGreedy(*lattice_, cardinality_, 4);
  ASSERT_TRUE(sel.ok());
  Result<std::map<CuboidMask, Table>> mat =
      MaterializeSubcubes(*sel, *lattice_, cardinality_, sales_, aggs);
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();
  ASSERT_EQ(mat->size(), sel->materialized.size());
  // Every materialized cuboid equals the direct MD-join at that granularity.
  std::vector<ExprPtr> eqs;
  for (const std::string& d : lattice_->dims()) eqs.push_back(Eq(BCol(d), RCol(d)));
  ExprPtr theta = CombineConjuncts(std::move(eqs));
  for (const auto& [mask, table] : *mat) {
    Result<Table> base = GroupingSetsBase(sales_, lattice_->dims(), {mask});
    Result<Table> direct = MdJoin(*base, sales_, aggs, theta);
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(TablesEqualUnordered(table, *direct))
        << lattice_->CuboidName(mask);
  }
}

TEST_F(SubcubeSelectionTest, AnswersAnyGranularityCorrectly) {
  std::vector<AggSpec> aggs = {Sum(RCol("sale"), "total"), Count("n")};
  Result<SubcubeSelection> sel = SelectSubcubesGreedy(*lattice_, cardinality_, 3);
  ASSERT_TRUE(sel.ok());
  Result<std::map<CuboidMask, Table>> mat =
      MaterializeSubcubes(*sel, *lattice_, cardinality_, sales_, aggs);
  ASSERT_TRUE(mat.ok());
  std::vector<ExprPtr> eqs;
  for (const std::string& d : lattice_->dims()) eqs.push_back(Eq(BCol(d), RCol(d)));
  ExprPtr theta = CombineConjuncts(std::move(eqs));
  // Every granularity — materialized or not — answers correctly.
  for (CuboidMask target : lattice_->AllCuboids()) {
    Result<Table> answer = AnswerFromSubcubes(*sel, *lattice_, cardinality_, *mat,
                                              aggs, target);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    Result<Table> base = GroupingSetsBase(sales_, lattice_->dims(), {target});
    Result<Table> direct = MdJoin(*base, sales_, aggs, theta);
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(TablesEqualUnordered(*answer, *direct))
        << lattice_->CuboidName(target);
  }
}

TEST_F(SubcubeSelectionTest, RejectsNonDistributiveAggregates) {
  Result<SubcubeSelection> sel = SelectSubcubesGreedy(*lattice_, cardinality_, 2);
  ASSERT_TRUE(sel.ok());
  EXPECT_FALSE(MaterializeSubcubes(*sel, *lattice_, cardinality_, sales_,
                                   {Avg(RCol("sale"), "a")})
                   .ok());
}

TEST_F(SubcubeSelectionTest, RejectsSelectionWithoutFullCuboid) {
  SubcubeSelection sel;
  sel.materialized = {0b001};
  EXPECT_FALSE(MaterializeSubcubes(sel, *lattice_, cardinality_, sales_,
                                   {Count("n")})
                   .ok());
}

TEST_F(SubcubeSelectionTest, ToStringListsCuboids) {
  SubcubeSelection sel;
  sel.materialized = {lattice_->full_cuboid(), 0b001};
  std::string text = sel.ToString(*lattice_);
  EXPECT_NE(text.find("(prod, month, state)"), std::string::npos);
  EXPECT_NE(text.find("(prod, ALL, ALL)"), std::string::npos);
}

}  // namespace
}  // namespace mdjoin
