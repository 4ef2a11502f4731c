/// Differential fuzz over the raw-speed machinery, each layer checked against
/// the slower oracle it replaced:
///
///   - simd::Cmp* / reductions at every available level vs a scalar reference
///     implementing the documented semantics (including NaN-true kLe/kGe)
///   - PredicateKernels::FilterBlock (flat plans, dictionary translation,
///     dense bitmask path) vs the reference AST interpreter
///     (core/reference.h InterpretExpr)
///   - the bytecode interpreter vs the reference AST interpreter on random
///     expression trees (NULL/ALL/NaN-laden rows) and on a fixed corpus of
///     NULL / ALL / NaN / ±0 / CASE-without-ELSE / short-circuit / mixed-IN
///     edge cases
///   - typed AggStateColumn updates vs the Value-at-a-time Update
///   - whole MD-joins across the {simd, use_flat_columns, block_size} option
///     matrix, bit-identical to the Definition-3.1 reference (core/reference.h)
///     and with work counters equal across the matrix
///
/// Everything is seeded — failures reproduce.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "agg/aggregate.h"
#include "agg/flat_state.h"
#include "common/random.h"
#include "common/simd.h"
#include "core/mdjoin.h"
#include "core/reference.h"
#include "expr/compile.h"
#include "expr/conjuncts.h"
#include "expr/kernels.h"
#include "table/table_builder.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using testutil::F;
using testutil::I;
using testutil::NUL;
using testutil::S;

std::vector<simd::Level> AvailableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  for (simd::Level l : {simd::Level::kNeon, simd::Level::kAvx2}) {
    if (simd::LevelAvailable(l)) levels.push_back(l);
  }
  return levels;
}

bool MaskBit(const uint64_t* mask, int i) {
  return (mask[i >> 6] >> (i & 63)) & 1;
}

/// Reference verdict for one element under the simd::CmpOp semantics
/// documented in common/simd.h (float kLe/kGe are NaN-true).
template <typename T>
bool RefCmp(simd::CmpOp op, T x, T lit) {
  switch (op) {
    case simd::CmpOp::kEq: return x == lit;
    case simd::CmpOp::kNe: return x != lit;
    case simd::CmpOp::kLt: return x < lit;
    case simd::CmpOp::kLe: return !(x > lit);
    case simd::CmpOp::kGt: return x > lit;
    case simd::CmpOp::kGe: return !(x < lit);
  }
  return false;
}

constexpr simd::CmpOp kAllCmpOps[] = {simd::CmpOp::kEq, simd::CmpOp::kNe,
                                      simd::CmpOp::kLt, simd::CmpOp::kLe,
                                      simd::CmpOp::kGt, simd::CmpOp::kGe};

class SimdFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimdFuzz, CompareKernelsAgreeWithScalarReference) {
  Random rng(GetParam());
  const double kSpecials[] = {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              0.0, -0.0};
  for (int round = 0; round < 40; ++round) {
    const int n = static_cast<int>(rng.UniformInt(1, 300));
    std::vector<int64_t> xi(static_cast<size_t>(n));
    std::vector<double> xf(static_cast<size_t>(n));
    std::vector<int32_t> xc(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      xi[static_cast<size_t>(i)] = rng.UniformInt(-8, 8);
      xf[static_cast<size_t>(i)] = rng.Bernoulli(0.1)
                                       ? kSpecials[rng.Uniform(5)]
                                       : static_cast<double>(rng.UniformInt(-40, 40)) / 4;
      xc[static_cast<size_t>(i)] = static_cast<int32_t>(rng.UniformInt(-4, 4));
    }
    const int64_t li = rng.UniformInt(-8, 8);
    const double lf =
        rng.Bernoulli(0.2) ? kSpecials[rng.Uniform(5)]
                           : static_cast<double>(rng.UniformInt(-40, 40)) / 4;
    const int32_t lc = static_cast<int32_t>(rng.UniformInt(-4, 4));

    std::vector<uint64_t> mask(static_cast<size_t>(simd::MaskWords(n)));
    for (simd::Level level : AvailableLevels()) {
      for (simd::CmpOp op : kAllCmpOps) {
        simd::CmpI64(level, op, xi.data(), n, li, mask.data());
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(MaskBit(mask.data(), i), RefCmp(op, xi[static_cast<size_t>(i)], li))
              << "i64 level=" << simd::LevelName(level) << " op=" << static_cast<int>(op)
              << " i=" << i;
        }
        simd::CmpF64(level, op, xf.data(), n, lf, mask.data());
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(MaskBit(mask.data(), i), RefCmp(op, xf[static_cast<size_t>(i)], lf))
              << "f64 level=" << simd::LevelName(level) << " op=" << static_cast<int>(op)
              << " i=" << i << " x=" << xf[static_cast<size_t>(i)] << " lit=" << lf;
        }
        simd::CmpI32(level, op, xc.data(), n, lc, mask.data());
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(MaskBit(mask.data(), i), RefCmp(op, xc[static_cast<size_t>(i)], lc))
              << "i32 level=" << simd::LevelName(level) << " op=" << static_cast<int>(op)
              << " i=" << i;
        }
      }
    }
  }
}

TEST_P(SimdFuzz, MaskHelpersAndReductionsAgree) {
  Random rng(GetParam() + 17);
  for (int round = 0; round < 40; ++round) {
    const int n = static_cast<int>(rng.UniformInt(1, 300));
    std::vector<int64_t> xi(static_cast<size_t>(n));
    std::vector<uint8_t> nulls(static_cast<size_t>(n));
    std::vector<uint64_t> mask(static_cast<size_t>(simd::MaskWords(n)));
    for (int i = 0; i < n; ++i) {
      xi[static_cast<size_t>(i)] = rng.UniformInt(-1000, 1000);
      nulls[static_cast<size_t>(i)] = rng.Bernoulli(0.3) ? 1 : 0;
    }

    // MaskFromNotNull / MaskAndNotNull / MaskCompress vs hand evaluation.
    simd::MaskSetAll(mask.data(), n);
    simd::MaskAndNotNull(nulls.data(), n, mask.data());
    std::vector<uint32_t> sel(static_cast<size_t>(n));
    const int count = simd::MaskCompress(mask.data(), n, sel.data());
    int expect_count = 0;
    for (int i = 0; i < n; ++i) {
      if (nulls[static_cast<size_t>(i)] == 0) {
        ASSERT_LT(expect_count, count);
        EXPECT_EQ(sel[static_cast<size_t>(expect_count)], static_cast<uint32_t>(i));
        ++expect_count;
      }
    }
    EXPECT_EQ(count, expect_count);
    EXPECT_EQ(simd::MaskCount(mask.data(), n), expect_count);
    EXPECT_EQ(simd::MaskAllSet(mask.data(), n), expect_count == n);

    for (simd::Level level : AvailableLevels()) {
      int64_t sum = 0, mn = xi[0], mx = xi[0], nn = 0;
      for (int i = 0; i < n; ++i) {
        const int64_t x = xi[static_cast<size_t>(i)];
        sum += x;
        mn = std::min(mn, x);
        mx = std::max(mx, x);
        nn += nulls[static_cast<size_t>(i)] == 0;
      }
      EXPECT_EQ(simd::SumI64(level, xi.data(), n), sum);
      EXPECT_EQ(simd::MinI64(level, xi.data(), n), mn);
      EXPECT_EQ(simd::MaxI64(level, xi.data(), n), mx);
      EXPECT_EQ(simd::CountNotNull(level, nulls.data(), n), nn);
    }
  }
}

/// Random detail table for the predicate/bytecode differentials: int64,
/// float64 (with NaN), and low-cardinality string columns, NULLs everywhere,
/// and (optionally) a sprinkle of ALL to force kNone columns.
Table RandomDetail(Random* rng, int64_t rows, bool with_all) {
  Schema schema({{"i", DataType::kInt64},
                 {"f", DataType::kFloat64},
                 {"s", DataType::kString},
                 {"j", DataType::kInt64}});
  const char* strings[] = {"NY", "NJ", "CT", "CA", "zz"};
  TableBuilder b(schema);
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (int c = 0; c < 4; ++c) {
      const double dice = rng->NextDouble();
      if (dice < 0.10) {
        row.push_back(Value::Null());
      } else if (with_all && dice < 0.14) {
        row.push_back(Value::All());
      } else {
        switch (schema.field(c).type) {
          case DataType::kInt64:
            row.push_back(I(rng->UniformInt(-6, 6)));
            break;
          case DataType::kFloat64:
            row.push_back(rng->Bernoulli(0.06)
                              ? F(std::numeric_limits<double>::quiet_NaN())
                              : F(static_cast<double>(rng->UniformInt(-24, 24)) / 4));
            break;
          case DataType::kString:
            row.push_back(S(strings[rng->Uniform(5)]));
            break;
        }
      }
    }
    b.AppendRowOrDie(std::move(row));
  }
  return std::move(b).Finish();
}

/// One random detail-only conjunct of a shape the kernels plan for (plus the
/// occasional generic fallback).
ExprPtr RandomConjunct(Random* rng) {
  const char* cols[] = {"i", "f", "s", "j"};
  ExprPtr col = RCol(cols[rng->Uniform(4)]);
  auto random_lit = [&]() -> ExprPtr {
    switch (rng->Uniform(6)) {
      case 0: return Lit(rng->UniformInt(-6, 6));
      case 1: return Lit(static_cast<double>(rng->UniformInt(-24, 24)) / 4);
      case 2: return Lit("NJ");
      case 3: return Lit("missing");  // absent from every dictionary
      case 4: return Lit(Value::Null());
      default: return Lit(std::numeric_limits<double>::quiet_NaN());
    }
  };
  switch (rng->Uniform(9)) {
    case 0: return Eq(std::move(col), random_lit());
    case 1: return Ne(std::move(col), random_lit());
    case 2: return Lt(std::move(col), random_lit());
    case 3: return Le(std::move(col), random_lit());
    case 4: return Gt(std::move(col), random_lit());
    case 5: return Ge(std::move(col), random_lit());
    case 6: {
      // Mixed-type IN list with boundary floats: 2^53 is exactly the first
      // double where int translation would go wrong, so the planner must
      // abandon the flat plan, not mistranslate it.
      std::vector<Value> cands = {I(rng->UniformInt(-6, 6)), S("NY"),
                                  F(2.0), F(2.5), Value::Null(),
                                  F(9007199254740992.0)};
      return In(std::move(col), std::move(cands));
    }
    case 7: {
      std::vector<Value> cands = {I(0), I(3), F(-1.0)};
      return In(std::move(col), std::move(cands));
    }
    default:
      // Generic fallback: arithmetic the flat planner cannot touch.
      return Lt(Add(RCol("i"), RCol("j")), Lit(rng->UniformInt(-4, 4)));
  }
}

TEST_P(SimdFuzz, FilterBlockMatchesReferenceInterpreter) {
  Random rng(GetParam() + 31);
  for (int with_all = 0; with_all < 2; ++with_all) {
    Table detail = RandomDetail(&rng, 700, with_all == 1);
    ASSERT_NE(detail.accel(), nullptr);
    for (int round = 0; round < 12; ++round) {
      std::vector<ExprPtr> conjuncts;
      const int nc = static_cast<int>(rng.UniformInt(1, 4));
      for (int i = 0; i < nc; ++i) conjuncts.push_back(RandomConjunct(&rng));

      const ExprPtr theta = CombineConjuncts(conjuncts);
      std::vector<char> expect(static_cast<size_t>(detail.num_rows()));
      RowCtx ctx;
      ctx.detail = &detail;
      for (int64_t t = 0; t < detail.num_rows(); ++t) {
        ctx.detail_row = t;
        Result<Value> v = InterpretExpr(*theta, ctx);
        ASSERT_TRUE(v.ok()) << v.status().ToString();
        expect[static_cast<size_t>(t)] = v->IsTruthy();
      }

      for (simd::Level level : AvailableLevels()) {
        for (int flat = 0; flat < 2; ++flat) {
          Result<PredicateKernels> kernels = PredicateKernels::Compile(
              conjuncts, detail.schema(), flat == 1 ? detail.accel() : nullptr, level);
          ASSERT_TRUE(kernels.ok()) << kernels.status().ToString();
          const int block = static_cast<int>(rng.UniformInt(50, 200));
          std::vector<uint32_t> sel(static_cast<size_t>(block));
          std::vector<uint64_t> mask(2 * static_cast<size_t>(simd::MaskWords(block)));
          KernelStats stats;
          for (int64_t start = 0; start < detail.num_rows(); start += block) {
            const int n =
                static_cast<int>(std::min<int64_t>(block, detail.num_rows() - start));
            BlockFilter filt = kernels->FilterBlock(detail, start, n, sel.data(),
                                                    mask.data(), &stats);
            std::vector<char> got(static_cast<size_t>(n), 0);
            for (int i = 0; i < filt.count; ++i) {
              const int lane = filt.dense ? i : static_cast<int>(sel[static_cast<size_t>(i)]);
              got[static_cast<size_t>(lane)] = 1;
            }
            for (int i = 0; i < n; ++i) {
              ASSERT_EQ(static_cast<bool>(got[static_cast<size_t>(i)]),
                        static_cast<bool>(expect[static_cast<size_t>(start + i)]))
                  << "level=" << simd::LevelName(level) << " flat=" << flat
                  << " row=" << start + i << " theta="
                  << CombineConjuncts(conjuncts)->ToString();
            }
          }
        }
      }
    }
  }
}

/// Value equality strict enough for bit-identity checks: NaN == NaN, and
/// int64/float64 never conflated.
bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_all() || b.is_all()) return a.is_all() && b.is_all();
  if (a.is_int64() != b.is_int64() || a.is_float64() != b.is_float64()) return false;
  if (a.is_int64()) return a.int64() == b.int64();
  if (a.is_float64()) {
    const double x = a.float64(), y = b.float64();
    return (x == y && std::signbit(x) == std::signbit(y)) ||
           (std::isnan(x) && std::isnan(y));
  }
  return a.Equals(b);
}

/// Random expression over both sides covering every bytecode op, including
/// short-circuit AND/OR and multi-arm CASE. `numeric` restricts the result
/// type to numeric — required for CASE then/else arms, where the compiler
/// rejects mixing string and numeric results (everything else in the grammar
/// is dynamically typed and legal over any operand mix).
ExprPtr RandomBytecodeExpr(Random* rng, int depth, bool numeric = false) {
  if (depth <= 0 || rng->Bernoulli(0.3)) {
    switch (rng->Uniform(numeric ? 5 : 8)) {
      case 0: return BCol("b_int");
      case 1: return RCol("i");
      case 2: return RCol("f");
      case 3: return Lit(rng->UniformInt(-5, 5));
      case 4: return Lit(static_cast<double>(rng->UniformInt(-20, 20)) / 4);
      case 5: return BCol("b_str");
      case 6: return RCol("s");
      default: return Lit("NY");
    }
  }
  switch (rng->Uniform(14)) {
    case 0: return Add(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 1: return Sub(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 2: return Mul(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 3: return Div(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 4: return Mod(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 5: return Eq(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 6: return Lt(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 7: return Ge(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 8: return And(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 9: return Or(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 10: return Not(RandomBytecodeExpr(rng, depth - 1));
    case 11: return IsNull(RandomBytecodeExpr(rng, depth - 1));
    case 12:
      return In(RandomBytecodeExpr(rng, depth - 1),
                {Value::Int64(rng->UniformInt(-3, 3)), Value::String("NY"),
                 Value::Null()});
    default: {
      // The then/else arms share one type family; string-family CASEs use
      // string leaves directly (deeper string-typed trees don't exist in
      // this grammar — every operator yields a numeric).
      const bool string_family = !numeric && rng->Bernoulli(0.3);
      auto arm = [&]() -> ExprPtr {
        if (!string_family) return RandomBytecodeExpr(rng, depth - 1, /*numeric=*/true);
        switch (rng->Uniform(3)) {
          case 0: return BCol("b_str");
          case 1: return RCol("s");
          default: return Lit("NY");
        }
      };
      return CaseWhen({{RandomBytecodeExpr(rng, depth - 1), arm()},
                       {RandomBytecodeExpr(rng, depth - 1), arm()}},
                      rng->Bernoulli(0.5) ? arm() : nullptr);
    }
  }
}

/// Checks the compiled program against the reference interpreter on every
/// (base, detail) row pair, bit for bit.
void ExpectBytecodeMatchesReference(const ExprPtr& expr, const Table& base,
                                    const Table& detail) {
  Result<CompiledExpr> compiled = CompileExpr(expr, &base.schema(), &detail.schema());
  ASSERT_TRUE(compiled.ok()) << expr->ToString() << ": " << compiled.status().ToString();
  RowCtx ctx;
  ctx.base = &base;
  ctx.detail = &detail;
  for (int64_t b = 0; b < base.num_rows(); ++b) {
    for (int64_t d = 0; d < detail.num_rows(); ++d) {
      ctx.base_row = b;
      ctx.detail_row = d;
      Result<Value> ref = InterpretExpr(*expr, ctx);
      ASSERT_TRUE(ref.ok()) << expr->ToString() << ": " << ref.status().ToString();
      const Value bc = compiled->Eval(ctx);
      ASSERT_TRUE(SameValue(*ref, bc))
          << expr->ToString() << " reference=" << ref->ToString()
          << " bytecode=" << bc.ToString() << " b=" << b << " d=" << d;
    }
  }
}

TEST_P(SimdFuzz, BytecodeMatchesReferenceInterpreter) {
  Random rng(GetParam() + 47);
  Schema base_schema({{"b_int", DataType::kInt64}, {"b_str", DataType::kString}});
  TableBuilder bb(base_schema);
  const char* bstr[] = {"NY", "zz"};
  for (int r = 0; r < 10; ++r) {
    const double dice = rng.NextDouble();
    bb.AppendRowOrDie({dice < 0.15 ? NUL() : (dice < 0.3 ? testutil::ALL()
                                                         : I(rng.UniformInt(-4, 4))),
                       rng.Bernoulli(0.2) ? NUL() : S(bstr[rng.Uniform(2)])});
  }
  Table base = std::move(bb).Finish();
  Table detail = RandomDetail(&rng, 10, /*with_all=*/true);

  for (int round = 0; round < 80; ++round) {
    ExpectBytecodeMatchesReference(RandomBytecodeExpr(&rng, 4), base, detail);
  }
}

TEST(BytecodeEdgeCases, MatchReferenceInterpreter) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema base_schema({{"b_int", DataType::kInt64}, {"b_str", DataType::kString}});
  TableBuilder bb(base_schema);
  bb.AppendRowOrDie({I(0), S("NY")});
  bb.AppendRowOrDie({NUL(), NUL()});
  bb.AppendRowOrDie({testutil::ALL(), testutil::ALL()});
  bb.AppendRowOrDie({I(3), S("zz")});
  Table base = std::move(bb).Finish();
  Schema detail_schema({{"i", DataType::kInt64},
                        {"f", DataType::kFloat64},
                        {"s", DataType::kString}});
  TableBuilder db(detail_schema);
  db.AppendRowOrDie({I(0), F(0.0), S("NY")});
  db.AppendRowOrDie({I(-1), F(-0.0), S("")});
  db.AppendRowOrDie({I(3), F(nan), S("zz")});
  db.AppendRowOrDie({NUL(), NUL(), NUL()});
  db.AppendRowOrDie({testutil::ALL(), testutil::ALL(), testutil::ALL()});
  db.AppendRowOrDie({I(7), F(1.5), S("NY")});
  db.AppendRowOrDie({I(2), F(-2.5), S("CA")});
  Table detail = std::move(db).Finish();

  const std::vector<ExprPtr> corpus = {
      // ±0: negation and arithmetic must keep the sign bit; = and <> ignore it.
      Neg(RCol("f")), Neg(Lit(0.0)), Neg(Lit(-0.0)), Mul(RCol("f"), Lit(-1.0)),
      Add(RCol("f"), Lit(-0.0)), Sub(Lit(0.0), RCol("f")), Div(Lit(1.0), RCol("f")),
      Eq(RCol("f"), Lit(-0.0)), Ne(RCol("f"), Lit(0.0)), Lt(RCol("f"), Lit(-0.0)),
      // NaN: ordered comparisons, non-strict NaN-true, arithmetic propagation.
      Lt(RCol("f"), Lit(nan)), Le(RCol("f"), Lit(nan)), Ge(Lit(nan), RCol("f")),
      Eq(RCol("f"), Lit(nan)), Add(RCol("f"), Lit(nan)), Not(RCol("f")),
      Mod(RCol("f"), Lit(0.0)), Mod(RCol("i"), Lit(0)), Div(RCol("i"), Lit(0)),
      // NULL and ALL: θ-equality wildcard, <> and ordered comparisons false,
      // arithmetic NULL, NOT NULL false.
      Eq(BCol("b_int"), RCol("i")), Ne(BCol("b_int"), RCol("i")),
      Lt(BCol("b_int"), RCol("i")), Eq(BCol("b_str"), RCol("s")),
      Ge(RCol("s"), BCol("b_str")), Add(BCol("b_int"), RCol("i")),
      Not(RCol("i")), Not(Lit(Value::Null())), Neg(Lit(Value::All())),
      IsNull(RCol("s")), IsNull(Add(RCol("i"), Lit(Value::All()))),
      Eq(Lit(Value::All()), Lit(Value::Null())), Ne(Lit(Value::All()), RCol("s")),
      // CASE without ELSE: the fall-through yields NULL.
      CaseWhen({{Gt(RCol("f"), Lit(0.0)), RCol("f")}}),
      CaseWhen({{IsNull(RCol("i")), Lit("null")}, {Eq(RCol("s"), BCol("b_str")), RCol("s")}}),
      CaseWhen({{RCol("f"), RCol("i")}, {Lit(Value::All()), Lit(9)}}),
      Add(CaseWhen({{Lt(RCol("i"), Lit(1)), Lit(1)}}), Lit(1)),
      // Short-circuit AND / OR, with NULL, ALL and NaN operands on either side.
      And(Lit(Value::Null()), Div(RCol("i"), Lit(0))),
      And(Lit(0), IsNull(RCol("i"))), Or(Lit(1), Lit(Value::Null())),
      Or(Lit(Value::All()), RCol("f")), And(RCol("f"), Lit(Value::All())),
      Or(Eq(BCol("b_int"), RCol("i")), Lt(RCol("f"), Lit(nan))),
      And(Or(RCol("s"), Lit(0)), Not(Eq(RCol("i"), BCol("b_int")))),
      // Mixed IN lists: int / float / string / NULL / ALL candidates.
      In(RCol("f"), {I(0), F(-0.0), S("NY"), NUL(), testutil::ALL()}),
      In(RCol("i"), {F(3.0), S("3"), F(nan)}),
      In(RCol("s"), {S("NY"), I(0), F(0.0), NUL()}),
      In(BCol("b_int"), {I(0), S("zz")}),
      In(BCol("b_str"), {}),
      In(Lit(Value::Null()), {NUL(), I(0)}),
      In(Neg(RCol("f")), {F(0.0), F(2.5)}),
  };
  for (const ExprPtr& expr : corpus) {
    ExpectBytecodeMatchesReference(expr, base, detail);
  }
}

TEST_P(SimdFuzz, TypedAggUpdatesMatchValueUpdates) {
  Random rng(GetParam() + 71);
  const char* fns[] = {"count", "sum", "min", "max", "avg"};
  for (const char* name : fns) {
    Result<const AggregateFunction*> fn = AggregateRegistry::Global()->Lookup(name);
    ASSERT_TRUE(fn.ok()) << name;
    const int64_t groups = 24;
    AggStateColumn typed = AggStateColumn::Make(*fn, groups);
    AggStateColumn oracle = AggStateColumn::Make(*fn, groups);
    for (int round = 0; round < 300; ++round) {
      std::vector<int64_t> gs(static_cast<size_t>(rng.UniformInt(1, 6)));
      for (int64_t& g : gs) g = rng.UniformInt(0, groups - 1);
      const int n = static_cast<int>(gs.size());
      switch (rng.Uniform(3)) {
        case 0: {
          const int64_t x = rng.UniformInt(-100, 100);
          typed.UpdateManyI64(gs.data(), n, x);
          for (int64_t g : gs) oracle.Update(g, I(x));
          break;
        }
        case 1: {
          const double x = rng.Bernoulli(0.1)
                               ? std::numeric_limits<double>::quiet_NaN()
                               : static_cast<double>(rng.UniformInt(-400, 400)) / 4;
          typed.UpdateManyF64(gs.data(), n, x);
          for (int64_t g : gs) oracle.Update(g, F(x));
          break;
        }
        default: {
          if (typed.kind() == FlatAggKind::kCount) {
            const int64_t add = rng.UniformInt(1, 5);
            typed.AddCountMany(gs.data(), n, add);
            for (int64_t g : gs) {
              for (int64_t k = 0; k < add; ++k) oracle.UpdateCountStar(g);
            }
          } else {
            // NULL argument cell: the Value path must skip it everywhere.
            typed.UpdateMany(gs.data(), n, NUL());
            for (int64_t g : gs) oracle.Update(g, NUL());
          }
          break;
        }
      }
    }
    for (int64_t g = 0; g < groups; ++g) {
      const Value a = typed.Finalize(g), b = oracle.Finalize(g);
      EXPECT_TRUE(SameValue(a, b))
          << name << " group " << g << ": typed=" << a.ToString()
          << " oracle=" << b.ToString();
    }
  }
}

TEST_P(SimdFuzz, MdJoinIdenticalAcrossBackends) {
  Random rng(GetParam() + 93);
  Table detail = testutil::RandomSales(GetParam(), 2500);
  // Cube-style base: (prod, month) at every granularity, exercising the
  // multi-bucket index and its code-key memo.
  TableBuilder bb({{"prod", DataType::kInt64}, {"month", DataType::kInt64}});
  for (int64_t p : {10, 20, 30, 40}) {
    for (int64_t m : {1, 2, 3, 4}) bb.AppendRowOrDie({I(p), I(m)});
    bb.AppendRowOrDie({I(p), testutil::ALL()});
  }
  for (int64_t m : {1, 2, 3, 4}) bb.AppendRowOrDie({testutil::ALL(), I(m)});
  bb.AppendRowOrDie({testutil::ALL(), testutil::ALL()});
  Table base = std::move(bb).Finish();

  const std::vector<AggSpec> aggs = {Count("cnt"),
                                     Sum(RCol("sale"), "total"),
                                     Min(RCol("sale"), "lo"),
                                     Max(RCol("sale"), "hi"),
                                     Avg(RCol("sale"), "mean"),
                                     Count(RCol("state"), "states")};
  // Indexed θ with a dictionary-translated string predicate and residual-free
  // detail pushdown; second θ has no equi part so the fused path fires.
  const ExprPtr thetas[] = {
      And(Eq(BCol("prod"), RCol("prod")), Eq(BCol("month"), RCol("month")),
          Ne(RCol("state"), Lit("CA")), Gt(RCol("sale"), Lit(100))),
      And(Lt(RCol("sale"), Lit(250.0)),
          In(RCol("state"), {S("NY"), S("NJ"), S("CT")}))};

  for (const ExprPtr& theta : thetas) {
    Result<Table> oracle = MdJoinReference(base, detail, aggs, theta);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    int64_t count_star = 0;
    for (int64_t r = 0; r < oracle->num_rows(); ++r) {
      count_star += oracle->Get(r, base.num_columns()).int64();
    }

    MdJoinStats first;
    bool have_first = false;
    for (simd::Level level : AvailableLevels()) {
      for (int flat = 0; flat < 2; ++flat) {
        for (int block_size : {1024, 37}) {
          MdJoinOptions options;
          options.simd = level == simd::Level::kScalar ? simd::Backend::kScalar
                         : level == simd::Level::kAvx2 ? simd::Backend::kAvx2
                                                       : simd::Backend::kNeon;
          options.use_flat_columns = flat == 1;
          options.block_size = block_size;
          MdJoinStats stats;
          Result<Table> got = MdJoin(base, detail, aggs, theta, options, &stats);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          const std::string arm = std::string("level=") + simd::LevelName(level) +
                                  " flat=" + std::to_string(flat) +
                                  " block=" + std::to_string(block_size);
          EXPECT_TRUE(testutil::TablesBitIdentical(*oracle, *got)) << arm;
          // Counters derived from the oracle: every matched pair is one
          // count(*) increment, and one pass reads R once.
          EXPECT_EQ(stats.matched_pairs, count_star) << arm;
          EXPECT_EQ(stats.detail_rows_scanned, detail.num_rows()) << arm;
          if (!have_first) {
            first = stats;
            have_first = true;
            continue;
          }
          EXPECT_EQ(stats.detail_rows_qualified, first.detail_rows_qualified) << arm;
          EXPECT_EQ(stats.candidate_pairs, first.candidate_pairs) << arm;
          EXPECT_EQ(stats.index_masks, first.index_masks) << arm;
        }
      }
    }
  }
}

TEST(SimdBackendTest, PinningUnavailableBackendFails) {
  Table detail = testutil::SmallSales();
  TableBuilder bb({{"cust", DataType::kInt64}});
  bb.AppendRowOrDie({I(1)});
  Table base = std::move(bb).Finish();
  const ExprPtr theta = Eq(BCol("cust"), RCol("cust"));
  const std::vector<AggSpec> aggs = {Count("cnt")};
  const std::pair<simd::Backend, simd::Level> pins[] = {
      {simd::Backend::kAvx2, simd::Level::kAvx2},
      {simd::Backend::kNeon, simd::Level::kNeon}};
  for (const auto& [backend, level] : pins) {
    MdJoinOptions options;
    options.simd = backend;
    Result<Table> result = MdJoin(base, detail, aggs, theta, options);
    EXPECT_EQ(result.ok(), simd::LevelAvailable(level))
        << simd::BackendName(backend)
        << (result.ok() ? "" : ": " + result.status().ToString());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdFuzz, ::testing::Values(11, 22, 33),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace mdjoin
