#include <gtest/gtest.h>

#include <functional>
#include <limits>

#include "common/random.h"
#include "expr/compile.h"
#include "ra/filter.h"
#include "ra/group_by.h"
#include "ra/join.h"
#include "ra/project.h"
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

TEST(FilterTest, SelectsMatchingRows) {
  Table sales = testutil::SmallSales();
  Result<Table> ny = Filter(sales, Eq(Col("state"), Lit("NY")));
  ASSERT_TRUE(ny.ok());
  EXPECT_EQ(ny->num_rows(), 4);
  for (int64_t r = 0; r < ny->num_rows(); ++r) {
    EXPECT_EQ(ny->Get(r, 5).string(), "NY");
  }
}

TEST(FilterTest, CompoundPredicate) {
  Table sales = testutil::SmallSales();
  Result<Table> t = Filter(sales, And(Eq(Col("year"), Lit(1997)), Gt(Col("sale"), Lit(100))));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 3);  // 200/NY, 400/NJ, 150/CA
}

TEST(FilterTest, UnknownColumnFails) {
  Table sales = testutil::SmallSales();
  EXPECT_FALSE(Filter(sales, Eq(Col("nope"), Lit(1))).ok());
}

TEST(ProjectTest, ComputedColumns) {
  Table sales = testutil::SmallSales();
  Result<Table> p = Project(sales, {{Col("cust"), "cust"},
                                    {Mul(Col("sale"), Lit(2)), "double_sale"}});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_columns(), 2);
  EXPECT_EQ(p->schema().field(1).name, "double_sale");
  EXPECT_DOUBLE_EQ(p->Get(0, 1).AsDouble(), 200.0);
}

TEST(ProjectTest, ColumnsOnly) {
  Table sales = testutil::SmallSales();
  Result<Table> p = ProjectColumns(sales, {"state", "sale"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_columns(), 2);
  EXPECT_EQ(p->num_rows(), sales.num_rows());
  EXPECT_EQ(p->Get(0, 0).string(), "NY");
}

// ---------------------------------------------------------------------------
// Filter and Project differential tests: the block-kernel Filter and the
// column-copy Project against row-at-a-time InterpretExpr references, on
// tables with and without a typed mirror, across block boundaries.

/// i (int64 with NULL), f (float64 with NULL, NaN, ±0) and s (string with
/// NULL) flatten; m mixes types with ALL and stays on the Value path; n is
/// a NULL-free int64.
Table FilterInput(uint64_t seed, int64_t rows, bool mirror) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> ints = {NUL(), I(-3), I(0), I(3), I(9), I(int64_t{1} << 53)};
  const std::vector<Value> floats = {NUL(), F(-0.0), F(0.0), F(nan), F(1.5), F(-7.25)};
  const std::vector<Value> strings = {NUL(), S(""), S("a"), S("b"), S("NY")};
  const std::vector<Value> mixed = {NUL(), ALL(), I(3), F(1.5), F(nan), S("b")};
  Table t(Schema({{"i", DataType::kInt64},
                  {"f", DataType::kFloat64},
                  {"s", DataType::kString},
                  {"m", DataType::kFloat64},
                  {"n", DataType::kInt64}}));
  Random rng(seed);
  auto pick = [&rng](const std::vector<Value>& pool) { return pool[rng.Uniform(pool.size())]; };
  for (int64_t r = 0; r < rows; ++r) {
    t.AppendRowUnchecked({pick(ints), pick(floats), pick(strings), pick(mixed),
                          I(rng.UniformInt(0, 20))});
  }
  if (mirror) t.RebuildAccel();
  return t;
}

/// A random predicate: a conjunction of comparisons and IN lists (the
/// shapes the kernels run on typed payloads) and generic conjuncts.
ExprPtr RandomPredicate(Random* rng) {
  const std::vector<Value> lits = {I(3), I(0), I(int64_t{1} << 53), F(1.5), F(-0.0),
                                   F(std::numeric_limits<double>::quiet_NaN()),
                                   S("b"), S("zz"), S(""), NUL(), ALL()};
  const std::vector<std::string> cols = {"i", "f", "s", "m", "n"};
  auto lit = [&] { return lits[rng->Uniform(lits.size())]; };
  auto col = [&] { return Col(cols[rng->Uniform(cols.size())]); };
  auto compare = [&]() -> ExprPtr {
    static const BinaryOp kOps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                                    BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
    const BinaryOp op = kOps[rng->Uniform(6)];
    return rng->Bernoulli(0.8) ? Expr::Binary(op, col(), Lit(lit()))
                               : Expr::Binary(op, Lit(lit()), col());
  };
  std::function<ExprPtr(int)> atom = [&](int depth) -> ExprPtr {
    switch (rng->Uniform(depth > 0 ? 7 : 4)) {
      case 0:
      case 1:
        return compare();
      case 2: {
        std::vector<Value> candidates(1 + rng->Uniform(3));
        for (Value& c : candidates) c = lit();
        return In(col(), std::move(candidates));
      }
      case 3:
        return rng->Bernoulli(0.5) ? IsNull(col()) : Gt(Add(Col("n"), Lit(1)), Lit(8));
      case 4:
        return Or(atom(depth - 1), atom(depth - 1));
      case 5:
        return Not(atom(depth - 1));
      default:
        return rng->Bernoulli(0.5) ? True() : False();
    }
  };
  ExprPtr pred = atom(2);
  for (uint64_t k = 0, n = rng->Uniform(3); k < n; ++k) pred = And(pred, atom(2));
  return pred;
}

TEST(FilterDifferentialTest, MatchesRowAtATimeInterpreter) {
  int compared = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Random rng(seed * 7919);
    for (int64_t rows : {0, 1, 1023, 1024, 1025, 2500}) {
      for (bool mirror : {true, false}) {
        const Table t = FilterInput(seed, rows, mirror);
        const ExprPtr pred = RandomPredicate(&rng);
        SCOPED_TRACE(pred->ToString() + " rows " + std::to_string(rows) +
                     (mirror ? " mirror" : " cells"));
        Result<Table> got = Filter(t, pred);
        if (!got.ok()) {
          // Filter refuses exactly the predicates the compiler refuses.
          EXPECT_FALSE(CompileExpr(pred, t.schema()).ok()) << got.status().ToString();
          continue;
        }
        Table expected(t.schema());
        for (int64_t r = 0; r < t.num_rows(); ++r) {
          RowCtx ctx;
          ctx.detail = &t;
          ctx.detail_row = r;
          Result<Value> keep = InterpretExpr(*pred, ctx);
          ASSERT_TRUE(keep.ok()) << keep.status().ToString();
          if (keep->IsTruthy()) expected.AppendRowFrom(t, r);
        }
        EXPECT_TRUE(testutil::TablesBitIdentical(*got, expected));
        EXPECT_EQ(got->accel() != nullptr, mirror);
        EXPECT_TRUE(testutil::MirrorAgreesWithCells(*got));
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 400);
}

/// Project evaluated one row at a time through the reference interpreter.
Table ReferenceProject(const Table& t, const std::vector<ProjectItem>& items) {
  std::vector<Field> fields;
  fields.reserve(items.size());
  for (const ProjectItem& item : items) {
    fields.push_back(Field{item.name, CompileExpr(item.expr, t.schema())->result_type()});
  }
  Table out{Schema(std::move(fields))};
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    RowCtx ctx;
    ctx.detail = &t;
    ctx.detail_row = r;
    std::vector<Value> row;
    row.reserve(items.size());
    for (const ProjectItem& item : items) row.push_back(*InterpretExpr(*item.expr, ctx));
    out.AppendRowUnchecked(std::move(row));
  }
  return out;
}

TEST(ProjectDifferentialTest, BareColumnsCopyCellsAndMirror) {
  for (bool mirror : {true, false}) {
    const Table t = FilterInput(5, 1500, mirror);
    const std::vector<ProjectItem> bare = {
        {Col("s"), "x"}, {Col("i"), "i"}, {Col("m"), "m"}, {Col("s"), "y"}, {Col("f"), "f"}};
    Result<Table> got = Project(t, bare);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(testutil::TablesBitIdentical(*got, ReferenceProject(t, bare)));
    EXPECT_TRUE(testutil::MirrorAgreesWithCells(*got));
    ASSERT_EQ(got->accel() != nullptr, mirror);
    if (mirror) {
      EXPECT_EQ(got->accel()->cols[0].rep, FlatColumn::Rep::kDict);
      EXPECT_EQ(got->accel()->cols[0].dict, t.accel()->cols[2].dict);
    }

    const std::vector<ProjectItem> computed = {
        {Col("i"), "i"}, {Mul(Col("n"), Lit(2)), "twice"}, {IsNull(Col("f")), "f_null"}};
    got = Project(t, computed);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(testutil::TablesBitIdentical(*got, ReferenceProject(t, computed)));

    Result<Table> cols = ProjectColumns(t, {"f", "s"});
    ASSERT_TRUE(cols.ok());
    EXPECT_TRUE(testutil::TablesBitIdentical(
        *cols, ReferenceProject(t, {{Col("f"), "f"}, {Col("s"), "s"}})));
    EXPECT_TRUE(testutil::MirrorAgreesWithCells(*cols));
  }
}

TEST(GroupByTest, SumPerCustomer) {
  Table sales = testutil::SmallSales();
  Result<Table> g = GroupBy(sales, {"cust"}, {Sum(Col("sale"), "total"), Count("n")});
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_rows(), 4);
  // cust 1: 100+200+50+70 = 420, 4 rows.
  EXPECT_EQ(g->Get(0, 0).int64(), 1);
  EXPECT_DOUBLE_EQ(g->Get(0, 1).AsDouble(), 420.0);
  EXPECT_EQ(g->Get(0, 2).int64(), 4);
}

TEST(GroupByTest, MultiKeyGrouping) {
  Table sales = testutil::SmallSales();
  Result<Table> g = GroupBy(sales, {"prod", "month"}, {Count("n")});
  ASSERT_TRUE(g.ok());
  // Distinct (prod, month) combos in SmallSales: (10,1)x3? rows:
  // (10,1),(10,1),(20,2),(20,3),(10,1),(20,2),(20,2),(10,3),(20,3),(10,1)... count combos.
  Result<Table> distinct = DistinctOn(sales, {"prod", "month"});
  EXPECT_EQ(g->num_rows(), distinct->num_rows());
}

TEST(GroupByTest, OnlyOccurringGroupsAppear) {
  // The key contrast with the MD-join: a GROUP BY output has no row for a
  // group with no tuples.
  Table sales = testutil::SmallSales();
  Result<Table> ny = Filter(sales, Eq(Col("state"), Lit("NY")));
  Result<Table> g = GroupBy(*ny, {"cust"}, {Count("n")});
  ASSERT_TRUE(g.ok());
  EXPECT_LT(g->num_rows(), 4);  // customer 4 never bought in NY
}

TEST(SortedGroupByTest, MatchesHashGroupByOnSortedInput) {
  Table sales = testutil::RandomSales(61, 200);
  Result<Table> sorted = SortTableBy(sales, {"cust", "month"});
  ASSERT_TRUE(sorted.ok());
  std::vector<AggSpec> aggs = {Count("n"), Sum(Col("sale"), "total"),
                               Min(Col("sale"), "lo")};
  Result<Table> streaming = SortedGroupBy(*sorted, {"cust", "month"}, aggs);
  Result<Table> hashed = GroupBy(*sorted, {"cust", "month"}, aggs);
  ASSERT_TRUE(streaming.ok() && hashed.ok());
  // Hash GroupBy emits in first-occurrence order of the sorted input, which
  // is sorted order — the two agree exactly.
  EXPECT_TRUE(TablesEqualOrdered(*streaming, *hashed));
}

TEST(SortedGroupByTest, RejectsUngroupedInput) {
  TableBuilder b({{"k", DataType::kInt64}, {"v", DataType::kFloat64}});
  for (int64_t k : {1, 1, 2, 1}) {  // key 1 re-appears after closing
    b.AppendRowOrDie({I(k), testutil::F(1)});
  }
  Result<Table> r = SortedGroupBy(std::move(b).Finish(), {"k"}, {Count("n")});
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(SortedGroupByTest, EmptyInputYieldsNoGroups) {
  Table empty{testutil::SalesSchema()};
  Result<Table> r = SortedGroupBy(empty, {"cust"}, {Count("n")});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 0);
}

TEST(GroupByTest, AggregateAllAlwaysOneRow) {
  Table sales = testutil::SmallSales();
  Result<Table> g = AggregateAll(sales, {Sum(Col("sale"), "total"), Count("n")});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_rows(), 1);
  EXPECT_EQ(g->Get(0, 1).int64(), sales.num_rows());
}

TEST(HashJoinTest, InnerJoin) {
  TableBuilder left({{"k", DataType::kInt64}, {"lv", DataType::kString}});
  left.AppendRowOrDie({I(1), S("a")});
  left.AppendRowOrDie({I(2), S("b")});
  left.AppendRowOrDie({I(3), S("c")});
  TableBuilder right({{"k", DataType::kInt64}, {"rv", DataType::kString}});
  right.AppendRowOrDie({I(1), S("x")});
  right.AppendRowOrDie({I(1), S("y")});
  right.AppendRowOrDie({I(3), S("z")});
  Result<Table> j = HashJoin(std::move(left).Finish(), std::move(right).Finish(), {"k"},
                             {"k"}, JoinType::kInner);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 3);  // 1-x, 1-y, 3-z
  EXPECT_EQ(j->num_columns(), 3);  // k, lv, rv (key deduplicated)
}

TEST(HashJoinTest, LeftOuterPadsWithNull) {
  TableBuilder left({{"k", DataType::kInt64}});
  left.AppendRowOrDie({I(1)});
  left.AppendRowOrDie({I(2)});
  TableBuilder right({{"k", DataType::kInt64}, {"rv", DataType::kString}});
  right.AppendRowOrDie({I(1), S("x")});
  Result<Table> j = HashJoin(std::move(left).Finish(), std::move(right).Finish(), {"k"},
                             {"k"}, JoinType::kLeftOuter);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 2);
  EXPECT_TRUE(j->Get(1, 1).is_null());
}

TEST(HashJoinTest, DuplicateRightNamesSuffixed) {
  TableBuilder left({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  left.AppendRowOrDie({I(1), I(10)});
  TableBuilder right({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  right.AppendRowOrDie({I(1), I(20)});
  Result<Table> j = HashJoin(std::move(left).Finish(), std::move(right).Finish(), {"k"},
                             {"k"});
  ASSERT_TRUE(j.ok());
  EXPECT_TRUE(j->schema().FindField("v_r").has_value());
}

TEST(NestedLoopJoinTest, ThetaJoin) {
  TableBuilder left({{"x", DataType::kInt64}});
  left.AppendRowOrDie({I(1)});
  left.AppendRowOrDie({I(5)});
  TableBuilder right({{"y", DataType::kInt64}});
  right.AppendRowOrDie({I(3)});
  right.AppendRowOrDie({I(7)});
  // left.x < right.y (left via kBase, right via kDetail).
  Result<Table> j = NestedLoopJoin(std::move(left).Finish(), std::move(right).Finish(),
                                   Lt(BCol("x"), RCol("y")));
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 3);  // (1,3), (1,7), (5,7)
}

TEST(NestedLoopJoinTest, LeftOuter) {
  TableBuilder left({{"x", DataType::kInt64}});
  left.AppendRowOrDie({I(10)});
  TableBuilder right({{"y", DataType::kInt64}});
  right.AppendRowOrDie({I(3)});
  Result<Table> j = NestedLoopJoin(std::move(left).Finish(), std::move(right).Finish(),
                                   Lt(BCol("x"), RCol("y")), JoinType::kLeftOuter);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 1);
  EXPECT_TRUE(j->Get(0, 1).is_null());
}

TEST(CrossProductTest, Sizes) {
  TableBuilder a({{"x", DataType::kInt64}});
  a.AppendRowOrDie({I(1)});
  a.AppendRowOrDie({I(2)});
  TableBuilder b({{"y", DataType::kInt64}});
  b.AppendRowOrDie({I(3)});
  b.AppendRowOrDie({I(4)});
  b.AppendRowOrDie({I(5)});
  Result<Table> cp = CrossProduct(std::move(a).Finish(), std::move(b).Finish());
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(cp->num_rows(), 6);
}

}  // namespace
}  // namespace mdjoin
