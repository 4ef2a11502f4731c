/// Parameterized property tests: every algebraic identity of §4 is checked
/// on randomized inputs against the Definition 3.1 reference evaluator. Each
/// suite sweeps seeds (and where relevant a structural parameter) via
/// INSTANTIATE_TEST_SUITE_P.

#include <gtest/gtest.h>

#include "core/generalized.h"
#include "core/mdjoin.h"
#include "core/reference.h"
#include "cube/base_tables.h"
#include "expr/conjuncts.h"
#include "ra/filter.h"
#include "ra/join.h"
#include "ra/project.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT

/// A θ-condition drawn from a small grammar covering every conjunct class:
/// equi (plain and computed key), detail-only, base-only, residual non-equi.
ExprPtr RandomTheta(Random* rng) {
  std::vector<ExprPtr> conjuncts;
  conjuncts.push_back(Eq(RCol("cust"), BCol("cust")));  // always indexable
  if (rng->Bernoulli(0.5)) {
    conjuncts.push_back(Eq(RCol("month"), BCol("month")));
  } else if (rng->Bernoulli(0.4)) {
    // Computed key: previous month.
    conjuncts.push_back(Eq(RCol("month"), Sub(BCol("month"), Lit(1))));
  }
  if (rng->Bernoulli(0.5)) {
    conjuncts.push_back(Eq(RCol("state"), Lit("NY")));  // detail-only
  }
  if (rng->Bernoulli(0.3)) {
    conjuncts.push_back(Le(BCol("cust"), Lit(rng->UniformInt(1, 6))));  // base-only
  }
  if (rng->Bernoulli(0.4)) {
    conjuncts.push_back(Gt(RCol("sale"), Lit(static_cast<double>(
                                             rng->UniformInt(50, 300)))));
  }
  if (rng->Bernoulli(0.3)) {
    // Residual: mixed non-equi.
    conjuncts.push_back(Gt(RCol("sale"), Mul(BCol("cust"), Lit(20))));
  }
  return CombineConjuncts(std::move(conjuncts));
}

std::vector<AggSpec> StandardAggs() {
  return {Count("n"), Sum(RCol("sale"), "total"), Min(RCol("sale"), "lo"),
          Max(RCol("sale"), "hi"), Avg(RCol("sale"), "mean")};
}

class TheoremProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    seed_ = GetParam();
    rng_ = std::make_unique<Random>(seed_);
    sales_ = testutil::RandomSales(seed_, 150);
    base_ = *GroupByBase(sales_, {"cust", "month"});
  }

  uint64_t seed_;
  std::unique_ptr<Random> rng_;
  Table sales_;
  Table base_;
};

TEST_P(TheoremProperty, OptimizedEvaluatorMatchesDefinition) {
  // Algorithm 3.1 with index + pushdown == Definition 3.1, for random θ.
  for (int round = 0; round < 4; ++round) {
    ExprPtr theta = RandomTheta(rng_.get());
    Result<Table> fast = MdJoin(base_, sales_, StandardAggs(), theta);
    Result<Table> ref = MdJoinReference(base_, sales_, StandardAggs(), theta);
    ASSERT_TRUE(fast.ok() && ref.ok()) << theta->ToString();
    EXPECT_TRUE(TablesEqualOrdered(*fast, *ref)) << theta->ToString();
  }
}

TEST_P(TheoremProperty, Theorem41_UnionOfPartitions) {
  ExprPtr theta = RandomTheta(rng_.get());
  Result<Table> whole = MdJoin(base_, sales_, StandardAggs(), theta);
  ASSERT_TRUE(whole.ok());
  for (int m : {2, 3, 5}) {
    std::vector<Table> parts = PartitionIntoN(base_, m);
    std::vector<Table> results;
    for (const Table& part : parts) {
      Result<Table> piece = MdJoin(part, sales_, StandardAggs(), theta);
      ASSERT_TRUE(piece.ok());
      results.push_back(std::move(*piece));
    }
    Result<Table> reunited = ConcatAll(results);
    ASSERT_TRUE(reunited.ok());
    EXPECT_TRUE(TablesEqualUnordered(*whole, *reunited))
        << "m=" << m << " θ=" << theta->ToString();
  }
}

TEST_P(TheoremProperty, Theorem42_SelectionPushdown) {
  // MD(B, R, θ1 ∧ θ2) == MD(B, σ_{θ2}(R), θ1) for R-only θ2.
  ExprPtr theta1 = Eq(RCol("cust"), BCol("cust"));
  ExprPtr theta2_detail = And(Eq(RCol("state"), Lit("NY")),
                              Gt(RCol("sale"), Lit(100)));
  Result<Table> combined =
      MdJoinReference(base_, sales_, StandardAggs(), And(theta1, theta2_detail));
  // σ expects single-table (detail-frame) references; θ2 already is.
  Result<Table> filtered = Filter(sales_, theta2_detail);
  Result<Table> pushed = MdJoinReference(base_, *filtered, StandardAggs(), theta1);
  ASSERT_TRUE(combined.ok() && pushed.ok());
  EXPECT_TRUE(TablesEqualOrdered(*combined, *pushed));
}

TEST_P(TheoremProperty, Observation41_RangeTransfer) {
  // A range selection on B transfers through the equi conjunct to R.
  int64_t hi = rng_->UniformInt(2, 5);
  ExprPtr base_sel = Le(Col("cust"), Lit(hi));
  Result<Table> restricted_base = Filter(base_, base_sel);
  ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")),
                      Eq(RCol("month"), BCol("month")));
  Result<Table> unpushed = MdJoin(*restricted_base, sales_, StandardAggs(), theta);
  // σ'(R): same range, on R's cust.
  Result<Table> restricted_detail = Filter(sales_, Le(Col("cust"), Lit(hi)));
  Result<Table> pushed =
      MdJoin(*restricted_base, *restricted_detail, StandardAggs(), theta);
  ASSERT_TRUE(unpushed.ok() && pushed.ok());
  EXPECT_TRUE(TablesEqualOrdered(*unpushed, *pushed));
}

TEST_P(TheoremProperty, Theorem43_Commutativity) {
  // MD(MD(B,R1,l1,θ1),R2,l2,θ2) == MD(MD(B,R2,l2,θ2),R1,l1,θ1) when both θs
  // touch only B attributes.
  Table r1 = testutil::RandomSales(seed_ + 1000, 120);
  Table r2 = testutil::RandomSales(seed_ + 2000, 120);
  ExprPtr theta1 = And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("state"), Lit("NY")));
  ExprPtr theta2 = And(Eq(RCol("cust"), BCol("cust")), Gt(RCol("sale"), Lit(200)));
  std::vector<AggSpec> l1 = {Sum(RCol("sale"), "s1"), Count("n1")};
  std::vector<AggSpec> l2 = {Avg(RCol("sale"), "a2")};

  Result<Table> ab = MdJoin(*MdJoin(base_, r1, l1, theta1), r2, l2, theta2);
  Result<Table> ba = MdJoin(*MdJoin(base_, r2, l2, theta2), r1, l1, theta1);
  ASSERT_TRUE(ab.ok() && ba.ok());
  std::vector<std::string> cols = {"cust", "month", "s1", "n1", "a2"};
  Result<Table> ab_proj = ProjectColumns(*ab, cols);
  Result<Table> ba_proj = ProjectColumns(*ba, cols);
  EXPECT_TRUE(TablesEqualOrdered(*ab_proj, *ba_proj));
}

TEST_P(TheoremProperty, Theorem43_GeneralizedEqualsSeries) {
  // Random collection of independent components: fused == sequential.
  std::vector<MdJoinComponent> comps;
  const char* states[] = {"NY", "NJ", "CT", "CA"};
  int k = static_cast<int>(rng_->UniformInt(2, 4));
  for (int i = 0; i < k; ++i) {
    std::string suffix = std::to_string(i);
    comps.push_back(
        {{Sum(RCol("sale"), "s" + suffix), Count("c" + suffix)},
         And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("state"), Lit(states[i])))});
  }
  Result<Table> fused = GeneralizedMdJoin(base_, sales_, comps);
  ASSERT_TRUE(fused.ok());
  Table step = base_.Clone();
  for (const MdJoinComponent& comp : comps) {
    Result<Table> next = MdJoin(step, sales_, comp.aggs, comp.theta);
    ASSERT_TRUE(next.ok());
    step = std::move(*next);
  }
  EXPECT_TRUE(TablesEqualOrdered(*fused, step));
}

TEST_P(TheoremProperty, Theorem44_EquiJoinSplit) {
  // MD(MD(B,R1,l1,θ1),R2,l2,θ2) == MD(B,R1,l1,θ1) ⋈ MD(B,R2,l2,θ2). B's rows
  // are distinct by construction (GroupByBase).
  Table r2 = testutil::RandomSales(seed_ + 3000, 120);
  ExprPtr theta1 = And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("month"), BCol("month")));
  ExprPtr theta2 = And(Eq(RCol("cust"), BCol("cust")), Gt(RCol("sale"), Lit(150)));
  std::vector<AggSpec> l1 = {Sum(RCol("sale"), "s1")};
  std::vector<AggSpec> l2 = {Count("n2")};
  Result<Table> sequential = MdJoin(*MdJoin(base_, sales_, l1, theta1), r2, l2, theta2);
  Result<Table> left = MdJoin(base_, sales_, l1, theta1);
  Result<Table> right = MdJoin(base_, r2, l2, theta2);
  ASSERT_TRUE(sequential.ok() && left.ok() && right.ok());
  Result<Table> joined =
      HashJoin(*left, *right, {"cust", "month"}, {"cust", "month"});
  ASSERT_TRUE(joined.ok());
  EXPECT_TRUE(TablesEqualUnordered(*sequential, *joined));
}

TEST_P(TheoremProperty, Theorem45_RollupFromFinerCuboid) {
  // Coarser cuboid from finer cuboid, distributive aggregates, at every
  // coarse/finer mask pair of a 3-dim lattice.
  std::vector<std::string> dims = {"prod", "month", "state"};
  Result<CubeLattice> lattice = CubeLattice::Make(dims);
  ExprPtr theta = CombineConjuncts(
      {Eq(BCol("prod"), RCol("prod")), Eq(BCol("month"), RCol("month")),
       Eq(BCol("state"), RCol("state"))});
  std::vector<AggSpec> l = {Sum(RCol("sale"), "total"), Count("n"),
                            Min(RCol("sale"), "lo"), Max(RCol("sale"), "hi")};
  std::vector<AggSpec> l_prime;
  for (const AggSpec& spec : l) l_prime.push_back(*RollupSpec(spec));

  for (CuboidMask coarse : lattice->AllCuboids()) {
    for (CuboidMask finer : lattice->AllCuboids()) {
      if ((coarse & finer) != coarse || coarse == finer) continue;
      Result<Table> coarse_base = GroupingSetsBase(sales_, lattice->dims(), {coarse});
      Result<Table> finer_base = GroupingSetsBase(sales_, lattice->dims(), {finer});
      Result<Table> direct = MdJoin(*coarse_base, sales_, l, theta);
      Result<Table> finer_cuboid = MdJoin(*finer_base, sales_, l, theta);
      Result<Table> rolled = MdJoin(*coarse_base, *finer_cuboid, l_prime, theta);
      ASSERT_TRUE(direct.ok() && rolled.ok());
      EXPECT_TRUE(TablesEqualOrdered(*direct, *rolled))
          << "coarse=" << lattice->CuboidName(coarse)
          << " finer=" << lattice->CuboidName(finer);
    }
  }
}

TEST_P(TheoremProperty, MemoryBudgetEqualsSinglePass) {
  ExprPtr theta = RandomTheta(rng_.get());
  Result<Table> single = MdJoin(base_, sales_, StandardAggs(), theta);
  ASSERT_TRUE(single.ok());
  for (int64_t budget : {1, 3, 7}) {
    MdJoinOptions options;
    options.base_rows_per_pass = budget;
    Result<Table> multi = MdJoin(base_, sales_, StandardAggs(), theta, options);
    ASSERT_TRUE(multi.ok());
    EXPECT_TRUE(TablesEqualOrdered(*single, *multi)) << "budget=" << budget;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoremProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed_" + std::to_string(info.param);
                         });

/// Cube-specific properties parameterized on (seed, #dims).
class CubeProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(CubeProperty, CubeMdJoinMatchesReferenceAtAllGranularities) {
  auto [seed, ndims] = GetParam();
  Table sales = testutil::RandomSales(seed, 120);
  std::vector<std::string> all_dims = {"prod", "month", "state"};
  std::vector<std::string> dims(all_dims.begin(), all_dims.begin() + ndims);
  Result<Table> base = CubeByBase(sales, dims);
  std::vector<ExprPtr> eqs;
  for (const std::string& d : dims) eqs.push_back(Eq(BCol(d), RCol(d)));
  ExprPtr theta = CombineConjuncts(std::move(eqs));
  std::vector<AggSpec> aggs = {Sum(RCol("sale"), "total"), Count("n")};
  Result<Table> fast = MdJoin(*base, sales, aggs, theta);
  Result<Table> ref = MdJoinReference(*base, sales, aggs, theta);
  ASSERT_TRUE(fast.ok() && ref.ok());
  EXPECT_TRUE(TablesEqualOrdered(*fast, *ref));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndDims, CubeProperty,
    ::testing::Combine(::testing::Values(7, 11, 19), ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, int>>& info) {
      return "seed_" + std::to_string(std::get<0>(info.param)) + "_dims_" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace mdjoin
