#include "expr/kernels.h"

#include <algorithm>
#include <cmath>

#include "expr/eval_ops.h"

namespace mdjoin {

namespace {

/// Reference semantics for one comparison: expr/eval_ops.h's EvalCompare,
/// which the bytecode interpreter runs too. The typed loops below are fast
/// paths that must agree with this on every input; they defer here for
/// mixed-type cells.
inline bool KeepCompareSlow(BinaryOp op, const Value& v, const Value& lit) {
  return expr_internal::EvalCompare(op, v, lit).IsTruthy();
}

template <BinaryOp Op>
inline bool CmpInt(int64_t x, int64_t y) {
  if constexpr (Op == BinaryOp::kEq) return x == y;
  if constexpr (Op == BinaryOp::kNe) return x != y;
  if constexpr (Op == BinaryOp::kLt) return x < y;
  if constexpr (Op == BinaryOp::kLe) return x <= y;
  if constexpr (Op == BinaryOp::kGt) return x > y;
  if constexpr (Op == BinaryOp::kGe) return x >= y;
  return false;
}

/// kLe/kGe are !(x > y) / !(x < y) — true when either side is NaN — because
/// EvalCompare maps ordered comparisons through Value::Compare, which orders
/// NaN "equal" to every number (c == 0, so c <= 0 and c >= 0 both hold).
/// Plain IEEE <= / >= would silently disagree with the row engine on NaN.
template <BinaryOp Op>
inline bool CmpDouble(double x, double y) {
  if constexpr (Op == BinaryOp::kEq) return x == y;
  if constexpr (Op == BinaryOp::kNe) return x != y;
  if constexpr (Op == BinaryOp::kLt) return x < y;
  if constexpr (Op == BinaryOp::kLe) return !(x > y);
  if constexpr (Op == BinaryOp::kGt) return x > y;
  if constexpr (Op == BinaryOp::kGe) return !(x < y);
  return false;
}

/// Runtime-op scalar compares for the sparse flat loops (same semantics as
/// the templates above and as simd::CmpOp).
inline bool ScalarCmpI64(simd::CmpOp op, int64_t x, int64_t y) {
  switch (op) {
    case simd::CmpOp::kEq:
      return x == y;
    case simd::CmpOp::kNe:
      return x != y;
    case simd::CmpOp::kLt:
      return x < y;
    case simd::CmpOp::kLe:
      return x <= y;
    case simd::CmpOp::kGt:
      return x > y;
    case simd::CmpOp::kGe:
      return x >= y;
  }
  return false;
}

inline bool ScalarCmpF64(simd::CmpOp op, double x, double y) {
  switch (op) {
    case simd::CmpOp::kEq:
      return x == y;
    case simd::CmpOp::kNe:
      return x != y;
    case simd::CmpOp::kLt:
      return x < y;
    case simd::CmpOp::kLe:
      return !(x > y);
    case simd::CmpOp::kGt:
      return x > y;
    case simd::CmpOp::kGe:
      return !(x < y);
  }
  return false;
}

/// One selection-vector pass of `col[sel[i]] Op lit` with an int64 literal:
/// int64 cells take the inline compare, anything else (NULL, ALL, float,
/// string) the slow path.
template <BinaryOp Op>
int FilterIntLit(const Value* col, int64_t lit, const Value& lit_v, uint32_t* sel,
                 int count) {
  int out = 0;
  for (int i = 0; i < count; ++i) {
    const uint32_t idx = sel[i];
    const Value& v = col[idx];
    const bool keep =
        v.is_int64() ? CmpInt<Op>(v.int64(), lit) : KeepCompareSlow(Op, v, lit_v);
    sel[out] = idx;
    out += static_cast<int>(keep);
  }
  return out;
}

template <BinaryOp Op>
int FilterDoubleLit(const Value* col, double lit, const Value& lit_v, uint32_t* sel,
                    int count) {
  int out = 0;
  for (int i = 0; i < count; ++i) {
    const uint32_t idx = sel[i];
    const Value& v = col[idx];
    const bool keep = v.is_numeric() ? CmpDouble<Op>(v.AsDouble(), lit)
                                     : KeepCompareSlow(Op, v, lit_v);
    sel[out] = idx;
    out += static_cast<int>(keep);
  }
  return out;
}

template <BinaryOp Op>
int FilterStringLit(const Value* col, const std::string& lit, const Value& lit_v,
                    uint32_t* sel, int count) {
  int out = 0;
  for (int i = 0; i < count; ++i) {
    const uint32_t idx = sel[i];
    const Value& v = col[idx];
    bool keep;
    if (v.is_string()) {
      const int c = v.string().compare(lit);
      keep = CmpInt<Op>(c, 0);
    } else {
      keep = KeepCompareSlow(Op, v, lit_v);
    }
    sel[out] = idx;
    out += static_cast<int>(keep);
  }
  return out;
}

template <BinaryOp Op>
int FilterCompare(const Value* col, const Value& lit, uint32_t* sel, int count) {
  if (lit.is_int64()) return FilterIntLit<Op>(col, lit.int64(), lit, sel, count);
  if (lit.is_float64()) return FilterDoubleLit<Op>(col, lit.float64(), lit, sel, count);
  if (lit.is_string()) return FilterStringLit<Op>(col, lit.string(), lit, sel, count);
  // NULL/ALL literal: no typed fast path, defer every cell.
  int out = 0;
  for (int i = 0; i < count; ++i) {
    const uint32_t idx = sel[i];
    sel[out] = idx;
    out += static_cast<int>(KeepCompareSlow(Op, col[idx], lit));
  }
  return out;
}

int DispatchCompare(BinaryOp op, const Value* col, const Value& lit, uint32_t* sel,
                    int count) {
  switch (op) {
    case BinaryOp::kEq:
      return FilterCompare<BinaryOp::kEq>(col, lit, sel, count);
    case BinaryOp::kNe:
      return FilterCompare<BinaryOp::kNe>(col, lit, sel, count);
    case BinaryOp::kLt:
      return FilterCompare<BinaryOp::kLt>(col, lit, sel, count);
    case BinaryOp::kLe:
      return FilterCompare<BinaryOp::kLe>(col, lit, sel, count);
    case BinaryOp::kGt:
      return FilterCompare<BinaryOp::kGt>(col, lit, sel, count);
    case BinaryOp::kGe:
      return FilterCompare<BinaryOp::kGe>(col, lit, sel, count);
    default:
      return count;  // unreachable: Compile only admits comparison ops
  }
}

/// IN-list membership with MatchesEq semantics (ALL wildcard), as the
/// bytecode kIn instruction evaluates it.
inline bool MatchesAny(const Value& v, const std::vector<Value>& cands) {
  for (const Value& c : cands) {
    if (v.MatchesEq(c)) return true;
  }
  return false;
}

BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // =, <> are symmetric
  }
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

bool IsDetailColumn(const ExprPtr& e) {
  return e->kind() == ExprKind::kColumnRef && e->side() == Side::kDetail;
}

simd::CmpOp ToCmpOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return simd::CmpOp::kEq;
    case BinaryOp::kNe:
      return simd::CmpOp::kNe;
    case BinaryOp::kLt:
      return simd::CmpOp::kLt;
    case BinaryOp::kLe:
      return simd::CmpOp::kLe;
    case BinaryOp::kGt:
      return simd::CmpOp::kGt;
    default:
      return simd::CmpOp::kGe;
  }
}

/// Largest double below 2^53: int64 ↔ double conversion is exact and
/// injective within (-2^53, 2^53), which is what makes translating a float
/// equality candidate into an int64 set sound. (2^53 itself is excluded:
/// double(2^53 + 1) rounds to 2^53.0, so one double matches two int64s.)
constexpr double kExactIntBound = 9007199254740992.0;  // 2^53

inline bool MaskBit(const uint64_t* mask, int i) {
  return (mask[i >> 6] >> (i & 63)) & 1;
}

void MaskZero(uint64_t* mask, int n) {
  std::fill(mask, mask + simd::MaskWords(n), 0);
}

void MaskOr(uint64_t* mask, const uint64_t* other, int n) {
  const int words = simd::MaskWords(n);
  for (int w = 0; w < words; ++w) mask[w] |= other[w];
}

/// Dense `double(x[i]) <cmp> lit` over an int64 payload. No SIMD body: the
/// int→double convert + compare shape is rare (float literal against an
/// integer column) and the scalar loop already runs at payload speed.
void DenseCmpI64AsF64(simd::CmpOp op, const int64_t* x, int n, double lit,
                      uint64_t* mask) {
  MaskZero(mask, n);
  for (int i = 0; i < n; ++i) {
    if (ScalarCmpF64(op, static_cast<double>(x[i]), lit)) {
      mask[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
}

template <typename T>
inline bool InSet(const std::vector<T>& set, T x) {
  for (const T& c : set) {
    if (x == c) return true;
  }
  return false;
}

}  // namespace

/// Decides the typed-payload plan for one kCompare / kInList predicate.
/// Every translation here must be semantically exact against KeepCompareSlow
/// / MatchesAny — when a shape cannot be translated exactly (e.g. a float
/// equality candidate at |c| >= 2^53), the plan stays kNone and the Value
/// loops run instead.
void PredicateKernels::PlanFlat(Pred* p) const {
  if (accel_ == nullptr || p->col < 0 ||
      p->col >= static_cast<int>(accel_->cols.size())) {
    return;
  }
  const FlatColumn& fc = accel_->cols[p->col];
  if (!fc.flat()) return;

  if (p->kind == PredKind::kCompare) {
    const Value& lit = p->literal;
    if (lit.is_null()) {
      p->flat = FlatOp::kNever;  // every op is false against NULL
      return;
    }
    if (lit.is_all()) {
      // = matches every non-null cell; <> and ordered ops are always false.
      p->flat = (p->op == BinaryOp::kEq) ? FlatOp::kAllNotNull : FlatOp::kNever;
      return;
    }
    // A literal whose type cannot compare against this column's cells:
    // = never holds, <> holds for every non-null cell, ordered never holds.
    auto type_mismatch = [p] {
      p->flat = (p->op == BinaryOp::kNe) ? FlatOp::kAllNotNull : FlatOp::kNever;
    };
    switch (fc.rep) {
      case FlatColumn::Rep::kInt64:
        if (lit.is_int64()) {
          p->flat = FlatOp::kCmpI64;
          p->cmp = ToCmpOp(p->op);
          p->i64_lit = lit.int64();
        } else if (lit.is_float64()) {
          // EvalCompare compares mixed numerics as doubles, including the
          // (lossy above 2^53) int→double conversion; replicate it per row
          // rather than translating the literal.
          p->flat = FlatOp::kCmpI64F64;
          p->cmp = ToCmpOp(p->op);
          p->f64_lit = lit.float64();
        } else {
          type_mismatch();
        }
        break;
      case FlatColumn::Rep::kFloat64:
        if (lit.is_numeric()) {
          p->flat = FlatOp::kCmpF64;
          p->cmp = ToCmpOp(p->op);
          p->f64_lit = lit.AsDouble();
        } else {
          type_mismatch();
        }
        break;
      case FlatColumn::Rep::kDict: {
        if (!lit.is_string()) {
          type_mismatch();
          break;
        }
        // Translate through the sorted dictionary (see table/dictionary.h
        // for the identities). `lb + present` never overflows: lb <= size().
        const Dictionary& d = *fc.dict;
        const int32_t lb = d.LowerBound(lit.string());
        const int32_t present =
            (lb < d.size() && d.Decode(lb) == lit.string()) ? 1 : 0;
        p->flat = FlatOp::kCmpCode;
        switch (p->op) {
          case BinaryOp::kEq:
            if (present) {
              p->cmp = simd::CmpOp::kEq;
              p->code_lit = lb;
            } else {
              p->flat = FlatOp::kNever;
            }
            break;
          case BinaryOp::kNe:
            if (present) {
              p->cmp = simd::CmpOp::kNe;
              p->code_lit = lb;
            } else {
              p->flat = FlatOp::kAllNotNull;
            }
            break;
          case BinaryOp::kLt:
            p->cmp = simd::CmpOp::kLt;
            p->code_lit = lb;
            break;
          case BinaryOp::kLe:
            p->cmp = simd::CmpOp::kLt;
            p->code_lit = lb + present;
            break;
          case BinaryOp::kGt:
            p->cmp = simd::CmpOp::kGe;
            p->code_lit = lb + present;
            break;
          default:  // kGe
            p->cmp = simd::CmpOp::kGe;
            p->code_lit = lb;
            break;
        }
        break;
      }
      case FlatColumn::Rep::kNone:
        break;
    }
    return;
  }

  if (p->kind != PredKind::kInList) return;
  // An ALL candidate matches every non-null cell regardless of the rest.
  for (const Value& c : p->candidates) {
    if (c.is_all()) {
      p->flat = FlatOp::kAllNotNull;
      return;
    }
  }
  switch (fc.rep) {
    case FlatColumn::Rep::kInt64:
      for (const Value& c : p->candidates) {
        if (c.is_int64()) {
          p->in_i64.push_back(c.int64());
        } else if (c.is_float64()) {
          const double d = c.float64();
          if (std::isnan(d) || d != std::floor(d)) continue;  // never matches
          if (!(std::abs(d) < kExactIntBound)) {
            // double(x) == d can hold for several x up there; no exact int
            // translation exists, so keep the Value loop for this conjunct.
            p->in_i64.clear();
            return;
          }
          p->in_i64.push_back(static_cast<int64_t>(d));
        }
        // NULL and string candidates can never match an int cell: drop.
      }
      p->flat = p->in_i64.empty() ? FlatOp::kNever : FlatOp::kInI64;
      break;
    case FlatColumn::Rep::kFloat64:
      for (const Value& c : p->candidates) {
        if (c.is_numeric()) p->in_f64.push_back(c.AsDouble());
      }
      p->flat = p->in_f64.empty() ? FlatOp::kNever : FlatOp::kInF64;
      break;
    case FlatColumn::Rep::kDict:
      for (const Value& c : p->candidates) {
        if (!c.is_string()) continue;
        const int32_t code = fc.dict->CodeOf(c.string());
        if (code >= 0) p->in_codes.push_back(code);
      }
      p->flat = p->in_codes.empty() ? FlatOp::kNever : FlatOp::kInCode;
      break;
    case FlatColumn::Rep::kNone:
      break;
  }
}

Result<PredicateKernels> PredicateKernels::Compile(
    const std::vector<ExprPtr>& conjuncts, const Schema& detail_schema,
    std::shared_ptr<const TableAccel> accel, simd::Level level) {
  PredicateKernels k;
  k.level_ = level;
  k.accel_ = std::move(accel);
  for (const ExprPtr& e : conjuncts) {
    Pred p;
    if (e->kind() == ExprKind::kBinary && IsComparison(e->binary_op())) {
      const ExprPtr& l = e->left();
      const ExprPtr& r = e->right();
      if (IsDetailColumn(l) && r->kind() == ExprKind::kLiteral) {
        MDJ_ASSIGN_OR_RETURN(p.col, detail_schema.GetFieldIndex(l->column_name()));
        p.kind = PredKind::kCompare;
        p.op = e->binary_op();
        p.literal = r->literal();
      } else if (IsDetailColumn(r) && l->kind() == ExprKind::kLiteral) {
        MDJ_ASSIGN_OR_RETURN(p.col, detail_schema.GetFieldIndex(r->column_name()));
        p.kind = PredKind::kCompare;
        p.op = FlipComparison(e->binary_op());
        p.literal = l->literal();
      }
    } else if (e->kind() == ExprKind::kIn && IsDetailColumn(e->operand())) {
      MDJ_ASSIGN_OR_RETURN(p.col,
                           detail_schema.GetFieldIndex(e->operand()->column_name()));
      p.kind = PredKind::kInList;
      p.candidates = e->candidates();
    }
    if (p.kind == PredKind::kGeneric) {
      MDJ_ASSIGN_OR_RETURN(p.generic,
                           CompileExpr(e, /*base_schema=*/nullptr, &detail_schema));
    } else {
      ++k.num_columnar_;
      k.PlanFlat(&p);
      if (p.flat != FlatOp::kNone) ++k.num_flat_;
    }
    k.preds_.push_back(std::move(p));
  }
  // Cheapest plans first — flat (typed payload / constant), then columnar
  // Value loops, then the generic fallback — so each tier shrinks the live
  // set before a costlier tier runs. Order among conjuncts cannot change
  // results (pure predicates, AND).
  std::stable_sort(k.preds_.begin(), k.preds_.end(), [](const Pred& a, const Pred& b) {
    auto tier = [](const Pred& p) {
      if (p.flat != FlatOp::kNone) return 0;
      return p.kind != PredKind::kGeneric ? 1 : 2;
    };
    return tier(a) < tier(b);
  });
  return k;
}

BlockFilter PredicateKernels::FilterBlock(const Table& detail, int64_t block_start,
                                          int n, uint32_t* sel,
                                          uint64_t* mask_scratch,
                                          KernelStats* stats) const {
  MDJ_DCHECK(accel_ == nullptr || accel_->num_rows == detail.num_rows());
  int count = n;
  bool dense = true;
  uint64_t* mask = mask_scratch;
  uint64_t* tmp = mask_scratch + simd::MaskWords(n);

  for (const Pred& p : preds_) {
    if (count == 0) break;

    const FlatColumn* fc =
        (p.flat != FlatOp::kNone && p.flat != FlatOp::kNever && p.col >= 0)
            ? &accel_->cols[p.col]
            : nullptr;
    const uint8_t* nulls =
        (fc != nullptr && fc->has_nulls) ? fc->null_bytes() + block_start : nullptr;

    if (dense) {
      switch (p.flat) {
        case FlatOp::kNever:
          count = 0;
          dense = false;
          continue;
        case FlatOp::kAllNotNull:
          if (nulls == nullptr) continue;  // stays dense for free
          simd::MaskFromNotNull(nulls, n, mask);
          break;
        case FlatOp::kCmpI64:
          simd::CmpI64(level_, p.cmp, fc->i64.data() + block_start, n, p.i64_lit,
                       mask);
          break;
        case FlatOp::kCmpF64:
          simd::CmpF64(level_, p.cmp, fc->f64.data() + block_start, n, p.f64_lit,
                       mask);
          break;
        case FlatOp::kCmpI64F64:
          DenseCmpI64AsF64(p.cmp, fc->i64.data() + block_start, n, p.f64_lit, mask);
          break;
        case FlatOp::kCmpCode:
          simd::CmpI32(level_, p.cmp, fc->codes.data() + block_start, n, p.code_lit,
                       mask);
          break;
        case FlatOp::kInI64:
          MaskZero(mask, n);
          for (int64_t c : p.in_i64) {
            simd::CmpI64(level_, simd::CmpOp::kEq, fc->i64.data() + block_start, n,
                         c, tmp);
            MaskOr(mask, tmp, n);
          }
          break;
        case FlatOp::kInF64:
          MaskZero(mask, n);
          for (double c : p.in_f64) {
            simd::CmpF64(level_, simd::CmpOp::kEq, fc->f64.data() + block_start, n,
                         c, tmp);
            MaskOr(mask, tmp, n);
          }
          break;
        case FlatOp::kInCode:
          MaskZero(mask, n);
          for (int32_t c : p.in_codes) {
            simd::CmpI32(level_, simd::CmpOp::kEq, fc->codes.data() + block_start, n,
                         c, tmp);
            MaskOr(mask, tmp, n);
          }
          break;
        case FlatOp::kNone:
          // No flat plan: materialize the identity selection and fall through
          // to the sparse tiers for this and all remaining predicates.
          for (int i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
          dense = false;
          break;
      }
      if (dense) {
        // Null payload slots hold arbitrary sentinels, so the compare mask
        // may have set their bits; no predicate keeps a NULL cell.
        if (nulls != nullptr && p.flat != FlatOp::kAllNotNull) {
          simd::MaskAndNotNull(nulls, n, mask);
        }
        ++stats->kernel_invocations;
        if (simd::MaskAllSet(mask, n)) continue;  // block stays dense
        count = simd::MaskCompress(mask, n, sel);
        dense = false;
        continue;
      }
    }

    // Sparse tiers: the selection vector drives every access.
    switch (p.flat) {
      case FlatOp::kNever:
        count = 0;
        continue;
      case FlatOp::kAllNotNull: {
        if (nulls == nullptr) continue;
        int out = 0;
        for (int i = 0; i < count; ++i) {
          const uint32_t idx = sel[i];
          sel[out] = idx;
          out += static_cast<int>(nulls[idx] == 0);
        }
        count = out;
        ++stats->kernel_invocations;
        continue;
      }
      case FlatOp::kCmpI64:
      case FlatOp::kCmpI64F64:
      case FlatOp::kInI64: {
        const int64_t* x = fc->i64.data() + block_start;
        int out = 0;
        for (int i = 0; i < count; ++i) {
          const uint32_t idx = sel[i];
          bool keep = nulls == nullptr || nulls[idx] == 0;
          if (keep) {
            if (p.flat == FlatOp::kCmpI64) {
              keep = ScalarCmpI64(p.cmp, x[idx], p.i64_lit);
            } else if (p.flat == FlatOp::kCmpI64F64) {
              keep = ScalarCmpF64(p.cmp, static_cast<double>(x[idx]), p.f64_lit);
            } else {
              keep = InSet(p.in_i64, x[idx]);
            }
          }
          sel[out] = idx;
          out += static_cast<int>(keep);
        }
        count = out;
        ++stats->kernel_invocations;
        continue;
      }
      case FlatOp::kCmpF64:
      case FlatOp::kInF64: {
        const double* x = fc->f64.data() + block_start;
        int out = 0;
        for (int i = 0; i < count; ++i) {
          const uint32_t idx = sel[i];
          bool keep = nulls == nullptr || nulls[idx] == 0;
          if (keep) {
            keep = p.flat == FlatOp::kCmpF64 ? ScalarCmpF64(p.cmp, x[idx], p.f64_lit)
                                             : InSet(p.in_f64, x[idx]);
          }
          sel[out] = idx;
          out += static_cast<int>(keep);
        }
        count = out;
        ++stats->kernel_invocations;
        continue;
      }
      case FlatOp::kCmpCode:
      case FlatOp::kInCode: {
        const int32_t* x = fc->codes.data() + block_start;
        int out = 0;
        for (int i = 0; i < count; ++i) {
          const uint32_t idx = sel[i];
          bool keep = nulls == nullptr || nulls[idx] == 0;
          if (keep) {
            keep = p.flat == FlatOp::kCmpCode
                       ? ScalarCmpI64(p.cmp, x[idx], p.code_lit)
                       : InSet(p.in_codes, x[idx]);
          }
          sel[out] = idx;
          out += static_cast<int>(keep);
        }
        count = out;
        ++stats->kernel_invocations;
        continue;
      }
      case FlatOp::kNone:
        break;
    }

    switch (p.kind) {
      case PredKind::kCompare: {
        const Value* col = detail.column(p.col).data() + block_start;
        count = DispatchCompare(p.op, col, p.literal, sel, count);
        ++stats->kernel_invocations;
        break;
      }
      case PredKind::kInList: {
        const Value* col = detail.column(p.col).data() + block_start;
        int out = 0;
        for (int i = 0; i < count; ++i) {
          const uint32_t idx = sel[i];
          sel[out] = idx;
          out += static_cast<int>(MatchesAny(col[idx], p.candidates));
        }
        count = out;
        ++stats->kernel_invocations;
        break;
      }
      case PredKind::kGeneric: {
        RowCtx ctx;
        ctx.detail = &detail;
        int out = 0;
        for (int i = 0; i < count; ++i) {
          const uint32_t idx = sel[i];
          ctx.detail_row = block_start + idx;
          sel[out] = idx;
          out += static_cast<int>(p.generic.EvalBool(ctx));
        }
        stats->fallback_rows += count;
        count = out;
        break;
      }
    }
  }

  if (dense) ++stats->dense_blocks;
  return BlockFilter{count, dense};
}

}  // namespace mdjoin
