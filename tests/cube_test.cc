#include <gtest/gtest.h>


#include "core/mdjoin.h"
#include "core/reference.h"
#include "cube/base_tables.h"
#include "cube/lattice.h"
#include "cube/partitioned_cube.h"
#include "cube/pipesort.h"
#include "expr/conjuncts.h"
#include "ra/group_by.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using testutil::I;
using testutil::ReferenceGroupingSets;

ExprPtr DimsTheta(const std::vector<std::string>& dims) {
  std::vector<ExprPtr> eqs;
  for (const std::string& d : dims) eqs.push_back(Eq(BCol(d), RCol(d)));
  return CombineConjuncts(std::move(eqs));
}

TEST(LatticeTest, Structure) {
  Result<CubeLattice> lat = CubeLattice::Make({"prod", "month", "state"});
  ASSERT_TRUE(lat.ok());
  EXPECT_EQ(lat->num_dims(), 3);
  EXPECT_EQ(lat->full_cuboid(), 0b111u);
  EXPECT_EQ(lat->AllCuboids().size(), 8u);
  EXPECT_EQ(lat->CuboidsAtLevel(1).size(), 3u);
  EXPECT_EQ(lat->CuboidsAtLevel(2).size(), 3u);
  EXPECT_EQ(CubeLattice::Level(0b101), 2);
}

TEST(LatticeTest, ParentChild) {
  EXPECT_TRUE(CubeLattice::IsParent(0b111, 0b110));
  EXPECT_TRUE(CubeLattice::IsParent(0b110, 0b010));
  EXPECT_FALSE(CubeLattice::IsParent(0b111, 0b001));  // two levels apart
  EXPECT_FALSE(CubeLattice::IsParent(0b110, 0b001));  // not a subset
  Result<CubeLattice> lat = CubeLattice::Make({"a", "b", "c"});
  std::vector<CuboidMask> parents = lat->ParentsOf(0b001);
  EXPECT_EQ(parents.size(), 2u);
}

TEST(LatticeTest, NamesAndAttrs) {
  Result<CubeLattice> lat = CubeLattice::Make({"prod", "month", "state"});
  EXPECT_EQ(lat->CuboidName(0b101), "(prod, ALL, state)");
  EXPECT_EQ(lat->CuboidAttrs(0b101), (std::vector<std::string>{"prod", "state"}));
  EXPECT_EQ(lat->CuboidAttrs(0), std::vector<std::string>{});
}

TEST(LatticeTest, Validation) {
  EXPECT_FALSE(CubeLattice::Make({}).ok());
  EXPECT_FALSE(CubeLattice::Make({"a", "a"}).ok());
}

TEST(BaseTablesTest, GroupByBaseIsDistinct) {
  Table sales = testutil::SmallSales();
  Result<Table> base = GroupByBase(sales, {"cust"});
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->num_rows(), 4);
  EXPECT_EQ(base->num_columns(), 1);
}

TEST(BaseTablesTest, CubeByBaseHasAllCuboids) {
  Table sales = testutil::SmallSales();
  Result<Table> base = CubeByBase(sales, {"prod", "month"});
  ASSERT_TRUE(base.ok());
  // |cube| = |prod×month combos| + |prods| + |months| + 1.
  Result<Table> pm = DistinctOn(sales, {"prod", "month"});
  Result<Table> p = DistinctOn(sales, {"prod"});
  Result<Table> m = DistinctOn(sales, {"month"});
  EXPECT_EQ(base->num_rows(), pm->num_rows() + p->num_rows() + m->num_rows() + 1);
  // Exactly one (ALL, ALL) row.
  int all_all = 0;
  for (int64_t r = 0; r < base->num_rows(); ++r) {
    if (base->Get(r, 0).is_all() && base->Get(r, 1).is_all()) ++all_all;
  }
  EXPECT_EQ(all_all, 1);
}

TEST(BaseTablesTest, RollupMasksHavePrefixes) {
  Table sales = testutil::SmallSales();
  Result<Table> base = GroupingSetsBase(sales, {"prod", "month"}, {0b11, 0b01, 0b00});
  ASSERT_TRUE(base.ok());
  Result<Table> pm = DistinctOn(sales, {"prod", "month"});
  Result<Table> p = DistinctOn(sales, {"prod"});
  // (prod, month), (prod, ALL), (ALL, ALL) — but NOT (ALL, month).
  EXPECT_EQ(base->num_rows(), pm->num_rows() + p->num_rows() + 1);
  for (int64_t r = 0; r < base->num_rows(); ++r) {
    EXPECT_FALSE(base->Get(r, 0).is_all() && !base->Get(r, 1).is_all());
  }
}

TEST(BaseTablesTest, GroupingSetsSelectsCuboids) {
  Table sales = testutil::SmallSales();
  Result<Table> base =
      GroupingSetsBase(sales, {"prod", "month", "state"}, {0b001, 0b010, 0b100});
  ASSERT_TRUE(base.ok());
  Result<Table> p = DistinctOn(sales, {"prod"});
  Result<Table> m = DistinctOn(sales, {"month"});
  Result<Table> s = DistinctOn(sales, {"state"});
  EXPECT_EQ(base->num_rows(), p->num_rows() + m->num_rows() + s->num_rows());
  // Unknown dimension, mask bits beyond the dims, duplicate dims: rejected.
  EXPECT_FALSE(GroupingSetsBase(sales, {"nope"}, {0b1}).ok());
  EXPECT_FALSE(GroupingSetsBase(sales, {"prod"}, {0b10}).ok());
  EXPECT_FALSE(GroupingSetsBase(sales, {"prod", "prod"}, {0b01}).ok());
}

TEST(BaseTablesTest, SingleCuboidGranularity) {
  Table sales = testutil::SmallSales();
  // prod concrete, month ALL.
  Result<Table> cuboid = GroupingSetsBase(sales, {"prod", "month"}, {0b01});
  ASSERT_TRUE(cuboid.ok());
  EXPECT_EQ(cuboid->num_rows(), 2);  // prods 10, 20
  for (int64_t r = 0; r < cuboid->num_rows(); ++r) {
    EXPECT_FALSE(cuboid->Get(r, 0).is_all());
    EXPECT_TRUE(cuboid->Get(r, 1).is_all());
  }
}

/// Every generator's masks through the one builder must be bit-identical,
/// row order included, to the RowKey-set reference that scans R once per
/// mask. The data mixes NULL, NaN, ±0 and an Int64 and a Float64 of equal
/// value in one column, so a derived cuboid that kept a different
/// representative row than the direct scan would show.
TEST(BaseTablesTest, BuildersEqualPerCuboidScans) {
  const std::vector<std::string> dims = {"a", "b", "c"};
  const Table edge = testutil::EdgeTable();
  Table sales = testutil::RandomSales(31, 500);
  const std::vector<std::string> sales_dims = {"prod", "month", "state"};
  // Grouping sets by dimension position: the grand total, the full set and a
  // repeated set included.
  const std::vector<CuboidMask> grouping = {0b101, 0b000, 0b010, 0b111, 0b100, 0b101};

  for (const auto& [t, d] : {std::pair<const Table*, std::vector<std::string>>{&edge, dims},
                             {&sales, sales_dims}}) {
    const CubeLattice lattice = *CubeLattice::Make(d);
    const std::vector<CuboidMask> full = {lattice.full_cuboid()};
    const std::vector<CuboidMask> rollup = {0b111, 0b011, 0b001, 0b000};
    const std::vector<CuboidMask> unpivot = {0b001, 0b010, 0b100};
    for (const std::vector<CuboidMask>& masks :
         {full, lattice.CubeOrder(), rollup, unpivot, grouping}) {
      EXPECT_TRUE(testutil::TablesBitIdentical(*GroupingSetsBase(*t, d, masks),
                                               ReferenceGroupingSets(*t, d, masks)));
    }
    EXPECT_TRUE(testutil::TablesBitIdentical(
        *CubeByBase(*t, d), ReferenceGroupingSets(*t, d, lattice.CubeOrder())));
    EXPECT_TRUE(testutil::TablesBitIdentical(
        *GroupByBase(*t, d), ReferenceGroupingSets(*t, d, full)));
  }
}

TEST(CubeMdJoinTest, Example21CubeViaMdJoin) {
  // Example 2.1: the full CUBE BY computed as one MD-join, validated against
  // per-cuboid GROUP BYs.
  Table sales = testutil::SmallSales();
  std::vector<std::string> dims = {"prod", "month"};
  Result<Table> base = CubeByBase(sales, dims);
  Result<Table> cube = MdJoin(*base, sales, {Sum(RCol("sale"), "total")}, DimsTheta(dims));
  ASSERT_TRUE(cube.ok());

  // Validate the (prod, ALL) cuboid against GROUP BY prod.
  Result<Table> by_prod = GroupBy(sales, {"prod"}, {Sum(Col("sale"), "total")});
  for (int64_t r = 0; r < cube->num_rows(); ++r) {
    if (!cube->Get(r, 0).is_all() && cube->Get(r, 1).is_all()) {
      bool matched = false;
      for (int64_t g = 0; g < by_prod->num_rows(); ++g) {
        if (by_prod->Get(g, 0).Equals(cube->Get(r, 0))) {
          matched = true;
          EXPECT_DOUBLE_EQ(cube->Get(r, 2).AsDouble(), by_prod->Get(g, 1).AsDouble());
        }
      }
      EXPECT_TRUE(matched);
    }
  }
}

TEST(PipesortTest, CardinalitiesAreDistinctCounts) {
  Table sales = testutil::SmallSales();
  Result<CubeLattice> lat = CubeLattice::Make({"prod", "month"});
  Result<std::map<CuboidMask, int64_t>> card = CuboidCardinalities(sales, *lat);
  ASSERT_TRUE(card.ok());
  EXPECT_EQ((*card)[0b00], 1);
  EXPECT_EQ((*card)[0b01], 2);  // prods
  EXPECT_EQ((*card)[0b10], 3);  // months
  EXPECT_EQ((*card)[0b11], DistinctOn(sales, {"prod", "month"})->num_rows());
}

TEST(PipesortTest, TwoDimPlanMatchesFigure2) {
  // Figure 2: cube over (A, B) yields the pipelined path AB -> A -> ALL and a
  // re-sort edge producing B.
  Table sales = testutil::SmallSales();
  Result<CubeLattice> lat = CubeLattice::Make({"month", "prod"});  // month: 3, prod: 2
  Result<std::map<CuboidMask, int64_t>> card = CuboidCardinalities(sales, *lat);
  Result<PipesortPlan> plan = BuildPipesortPlan(*lat, *card);
  ASSERT_TRUE(plan.ok());
  // One pipelined main path of length 3 (full -> single-dim -> grand total)
  // and one resorted path of length 1.
  ASSERT_EQ(plan->paths.size(), 2u);
  EXPECT_EQ(plan->paths[0].size(), 3u);
  EXPECT_EQ(plan->paths[0][0], lat->full_cuboid());
  EXPECT_EQ(plan->paths[1].size(), 1u);
  EXPECT_EQ(plan->num_sorts(), 2);  // initial sort + one re-sort
  // Every cuboid appears exactly once across paths.
  std::set<CuboidMask> seen;
  for (const auto& path : plan->paths) {
    for (CuboidMask m : path) EXPECT_TRUE(seen.insert(m).second);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(PipesortTest, ExecutionEqualsMdJoinCube) {
  Table sales = testutil::RandomSales(21, 200);
  std::vector<std::string> dims = {"prod", "month", "state"};
  Result<CubeLattice> lat = CubeLattice::Make(dims);
  Result<std::map<CuboidMask, int64_t>> card = CuboidCardinalities(sales, *lat);
  Result<PipesortPlan> plan = BuildPipesortPlan(*lat, *card);
  ASSERT_TRUE(plan.ok());
  std::vector<AggSpec> aggs = {Sum(RCol("sale"), "total"), Count("n")};
  CubeExecStats stats;
  Result<Table> pipesort_cube = ExecutePipesortPlan(*plan, sales, aggs, &stats);
  ASSERT_TRUE(pipesort_cube.ok()) << pipesort_cube.status().ToString();

  Result<Table> base = CubeByBase(sales, dims);
  Result<Table> md_cube = MdJoin(*base, sales, aggs, DimsTheta(dims));
  ASSERT_TRUE(md_cube.ok());
  EXPECT_TRUE(TablesEqualUnordered(*pipesort_cube, *md_cube));
  EXPECT_LT(stats.sorts, 8);  // fewer sorts than cuboids: reuse happened
}

TEST(PipesortTest, RollupBeatsDetailOnlyOnWork) {
  Table sales = testutil::RandomSales(22, 400);
  std::vector<std::string> dims = {"prod", "month", "state"};
  Result<CubeLattice> lat = CubeLattice::Make(dims);
  Result<std::map<CuboidMask, int64_t>> card = CuboidCardinalities(sales, *lat);
  Result<PipesortPlan> plan = BuildPipesortPlan(*lat, *card);
  CubeExecStats pipe_stats, naive_stats;
  std::vector<AggSpec> aggs = {Sum(RCol("sale"), "total")};
  Result<Table> a = ExecutePipesortPlan(*plan, sales, aggs, &pipe_stats);
  Result<Table> b = ComputeCubeFromDetailOnly(*lat, sales, aggs, &naive_stats);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(TablesEqualUnordered(*a, *b));
  // The naive strategy rescans the detail relation for all 8 cuboids.
  EXPECT_EQ(naive_stats.rows_scanned, 8 * sales.num_rows());
  EXPECT_LT(pipe_stats.rows_scanned, naive_stats.rows_scanned);
  EXPECT_LT(pipe_stats.sorts, naive_stats.sorts);
}

TEST(PipesortTest, RejectsNonDistributive) {
  Table sales = testutil::SmallSales();
  Result<CubeLattice> lat = CubeLattice::Make({"prod", "month"});
  Result<std::map<CuboidMask, int64_t>> card = CuboidCardinalities(sales, *lat);
  Result<PipesortPlan> plan = BuildPipesortPlan(*lat, *card);
  EXPECT_FALSE(ExecutePipesortPlan(*plan, sales, {Avg(RCol("sale"), "a")}).ok());
}

TEST(PartitionedCubeTest, EqualsDirectCube) {
  Table sales = testutil::RandomSales(23, 300);
  std::vector<std::string> dims = {"prod", "month"};
  PartitionedCubeStats stats;
  Result<Table> part =
      PartitionedCube(sales, dims, {Sum(RCol("sale"), "total")}, "month", &stats);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  Result<Table> base = CubeByBase(sales, dims);
  Result<Table> direct = MdJoin(*base, sales, {Sum(RCol("sale"), "total")},
                                DimsTheta(dims));
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(TablesEqualUnordered(*part, *direct));
  EXPECT_GT(stats.partitions, 1);
  EXPECT_EQ(stats.full_detail_scans, 1);  // only the Di=ALL slice
}

TEST(PartitionedCubeTest, RejectsUnknownPartitionDim) {
  Table sales = testutil::SmallSales();
  EXPECT_FALSE(PartitionedCube(sales, {"prod"}, {Count("n")}, "month").ok());
}

}  // namespace
}  // namespace mdjoin
