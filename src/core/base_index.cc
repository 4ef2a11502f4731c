#include "core/base_index.h"

#include <bit>

#include "common/logging.h"

namespace mdjoin {

Result<BaseIndex> BaseIndex::Build(const Table& base, const std::vector<int64_t>& rows,
                                   const std::vector<EquiPair>& equi,
                                   const Schema& detail_schema) {
  BaseIndex index;
  std::vector<CompiledExpr> base_keys;
  base_keys.reserve(equi.size());
  index.detail_keys_.reserve(equi.size());
  for (const EquiPair& pair : equi) {
    MDJ_ASSIGN_OR_RETURN(CompiledExpr bk,
                         CompileExpr(pair.base_expr, &base.schema(), nullptr));
    MDJ_ASSIGN_OR_RETURN(CompiledExpr dk,
                         CompileExpr(pair.detail_expr, nullptr, &detail_schema));
    base_keys.push_back(std::move(bk));
    index.detail_keys_.push_back(std::move(dk));
    // Plain-column keys (the overwhelmingly common case) are read straight
    // from the column during probes, bypassing the compiled program.
    int col = -1;
    if (pair.detail_expr->kind() == ExprKind::kColumnRef &&
        pair.detail_expr->side() == Side::kDetail) {
      if (std::optional<int> idx =
              detail_schema.FindField(pair.detail_expr->column_name())) {
        col = *idx;
      }
    }
    index.detail_cols_.push_back(col);
  }
  MDJ_CHECK(equi.size() <= 64) << "too many equi conjuncts for ALL-mask";

  std::unordered_map<uint64_t, size_t> bucket_of;
  RowCtx ctx;
  ctx.base = &base;
  for (int64_t row : rows) {
    ctx.base_row = row;
    uint64_t mask = 0;
    RowKey key;
    key.reserve(base_keys.size());
    bool has_null = false;
    for (size_t i = 0; i < base_keys.size(); ++i) {
      Value v = base_keys[i].Eval(ctx);
      if (v.is_null()) {
        has_null = true;
        break;
      }
      if (v.is_all()) {
        mask |= (uint64_t{1} << i);
      } else {
        key.push_back(std::move(v));
      }
    }
    if (has_null) continue;  // NULL key never θ-matches anything
    auto [it, inserted] = bucket_of.try_emplace(mask, index.buckets_.size());
    if (inserted) {
      MaskBucket bucket;
      bucket.all_mask = mask;
      for (size_t i = 0; i < base_keys.size(); ++i) {
        if (!(mask & (uint64_t{1} << i))) {
          bucket.probe_positions.push_back(static_cast<int>(i));
        }
      }
      index.buckets_.push_back(std::move(bucket));
    }
    index.buckets_[it->second].map[std::move(key)].push_back(row);
  }
  return index;
}

namespace {

// Probe-memo tuning: cache at most this many distinct keys, and give up on
// memoization entirely when the warmup window shows the hit rate of a
// high-cardinality key stream (the memo then costs one extra hash per probe).
constexpr size_t kProbeMemoCap = 1 << 14;
constexpr int64_t kProbeMemoWarmup = 1 << 13;

}  // namespace

BaseIndex::ProbeResult BaseIndex::ProbeSpan(const Table& detail, int64_t detail_row,
                                            ProbeScratch* scratch,
                                            std::vector<int64_t>* gather) const {
  const size_t nkeys = detail_keys_.size();
  const bool multi = buckets_.size() > 1;

  // Code-key memo: when every key position is a plain column with a typed
  // mirror, the full detail key encodes into machine words — int64 bits,
  // float64 bits, or a dictionary code, plus a null-tag word — and a memo
  // probe is a word hash. No Value is read, no string is hashed, nothing
  // allocates. (Encoding is injective per position because a flat column has
  // one storage type; two bit-distinct NaNs memoize separately, each to the
  // correct — empty — candidate list, since Equals(NaN, NaN) is false.)
  bool code_memoize = false;
  if (multi && scratch->memo_enabled) {
    if (scratch->codeable < 0) {
      scratch->accel = detail.accel();
      scratch->codeable = scratch->allow_code_keys && scratch->accel != nullptr;
      if (scratch->codeable == 1) {
        for (int col : detail_cols_) {
          if (col < 0 || !scratch->accel->cols[static_cast<size_t>(col)].flat()) {
            scratch->codeable = 0;
            break;
          }
        }
      }
    }
    if (scratch->codeable == 1) {
      scratch->code_key.resize(nkeys + 1);
      uint64_t null_tag = 0;
      for (size_t i = 0; i < nkeys; ++i) {
        const FlatColumn& fc =
            scratch->accel->cols[static_cast<size_t>(detail_cols_[i])];
        const size_t r = static_cast<size_t>(detail_row);
        if (fc.has_nulls && fc.nulls[r]) {
          null_tag |= uint64_t{1} << i;
          scratch->code_key[i] = 0;
        } else if (fc.rep == FlatColumn::Rep::kInt64) {
          scratch->code_key[i] = static_cast<uint64_t>(fc.i64[r]);
        } else if (fc.rep == FlatColumn::Rep::kFloat64) {
          scratch->code_key[i] = std::bit_cast<uint64_t>(fc.f64[r]);
        } else {
          scratch->code_key[i] = static_cast<uint64_t>(
              static_cast<uint32_t>(fc.codes[r]));
        }
      }
      // A NULL key cell fails its equi conjunct against every base value,
      // ALL included: nothing to look up.
      if (null_tag != 0) return ProbeResult{};
      scratch->code_key[nkeys] = null_tag;
      if (++scratch->memo_lookups == kProbeMemoWarmup &&
          scratch->memo_hits * 4 < kProbeMemoWarmup) {
        scratch->memo_enabled = false;
        scratch->code_memo.clear();
      } else {
        auto it = scratch->code_memo.find(
            CodeKeyView{scratch->code_key.data(), scratch->code_key.size()});
        if (it != scratch->code_memo.end()) {
          ++scratch->memo_hits;
          return ProbeResult{it->second.data(),
                             static_cast<int64_t>(it->second.size())};
        }
        code_memoize = scratch->code_memo.size() < kProbeMemoCap;
      }
    }
  }

  // Materialize the detail-side key once per tuple — as pointers. Plain
  // columns alias the cell in place; computed keys evaluate into reused
  // scratch slots.
  scratch->key.clear();
  bool any_computed = false;
  for (size_t i = 0; i < nkeys; ++i) {
    const Value* v;
    if (detail_cols_[i] >= 0) {
      v = &detail.column(detail_cols_[i])[detail_row];
    } else {
      if (!any_computed) {
        scratch->computed.resize(nkeys);
        any_computed = true;
      }
      RowCtx ctx;
      ctx.detail = &detail;
      ctx.detail_row = detail_row;
      scratch->computed[i] = detail_keys_[i].Eval(ctx);
      v = &scratch->computed[i];
    }
    // NULL fails its equi conjunct against every base value, ALL included,
    // so the whole probe is empty (not just the buckets keyed on it).
    if (v->is_null()) return ProbeResult{};
    scratch->key.push_back(v);
  }

  // Multi-bucket (cube) indexes pay 2^d map lookups per tuple; when the
  // detail key stream repeats — the cube benchmarks have a few hundred
  // distinct (dims) combinations over millions of rows — one memo lookup on
  // the full key replaces all of them. Single-bucket probes are already one
  // lookup, so the memo would be pure overhead there. Value-keyed memo only
  // when the code keying above was unavailable.
  bool value_memoize = false;
  if (multi && scratch->memo_enabled && scratch->codeable != 1) {
    if (++scratch->memo_lookups == kProbeMemoWarmup &&
        scratch->memo_hits * 4 < kProbeMemoWarmup) {
      // High-cardinality keys: the memo misses its way to the cap. Stop.
      scratch->memo_enabled = false;
      scratch->memo.clear();
    } else {
      auto it = scratch->memo.find(RowKeyView{scratch->key.data(), nkeys});
      if (it != scratch->memo.end()) {
        ++scratch->memo_hits;
        return ProbeResult{it->second.data(),
                           static_cast<int64_t>(it->second.size())};
      }
      value_memoize = scratch->memo.size() < kProbeMemoCap;
    }
  }

  gather->clear();
  const std::vector<int64_t>* single = nullptr;  // span-able single source
  for (const MaskBucket& bucket : buckets_) {
    // Gather the probe key for this bucket's non-ALL positions.
    scratch->probe.clear();
    bool wildcard = false;
    for (int pos : bucket.probe_positions) {
      const Value* v = scratch->key[static_cast<size_t>(pos)];
      if (v->is_all()) {
        wildcard = true;  // detail-side ALL matches every base value
        break;
      }
      scratch->probe.push_back(v);
    }
    if (wildcard) {
      // Rare path (detail relation containing ALL): the probe key cannot
      // discriminate, walk the whole bucket.
      if (single != nullptr) {
        gather->insert(gather->end(), single->begin(), single->end());
        single = nullptr;
      }
      for (const auto& [key, row_list] : bucket.map) {
        bool match = true;
        size_t ki = 0;
        for (int pos : bucket.probe_positions) {
          if (!key[ki++].MatchesEq(*scratch->key[static_cast<size_t>(pos)])) {
            match = false;
            break;
          }
        }
        if (match) gather->insert(gather->end(), row_list.begin(), row_list.end());
      }
      continue;
    }
    auto it = bucket.map.find(RowKeyView{scratch->probe.data(), scratch->probe.size()});
    if (it == bucket.map.end()) continue;
    // First hit spans the bucket's list in place; a second hit (cube index)
    // downgrades to gathering. Single-bucket indexes therefore never copy.
    if (single == nullptr && gather->empty()) {
      single = &it->second;
    } else {
      if (single != nullptr) {
        gather->insert(gather->end(), single->begin(), single->end());
        single = nullptr;
      }
      gather->insert(gather->end(), it->second.begin(), it->second.end());
    }
  }

  ProbeResult result =
      single != nullptr
          ? ProbeResult{single->data(), static_cast<int64_t>(single->size())}
          : ProbeResult{gather->data(), static_cast<int64_t>(gather->size())};

  // Memo inserts store an owned copy and return a span of the stored vector
  // (node-based map: mapped vectors stay put across rehash).
  if (code_memoize) {
    auto [it, inserted] = scratch->code_memo.emplace(
        scratch->code_key, std::vector<int64_t>(result.rows, result.rows + result.count));
    return ProbeResult{it->second.data(), static_cast<int64_t>(it->second.size())};
  }
  if (value_memoize) {
    RowKey owned;
    owned.reserve(nkeys);
    for (size_t i = 0; i < nkeys; ++i) owned.push_back(*scratch->key[i]);
    auto [it, inserted] = scratch->memo.emplace(
        std::move(owned), std::vector<int64_t>(result.rows, result.rows + result.count));
    return ProbeResult{it->second.data(), static_cast<int64_t>(it->second.size())};
  }
  return result;
}

void BaseIndex::Probe(const Table& detail, int64_t detail_row, ProbeScratch* scratch,
                      std::vector<int64_t>* out) const {
  // ProbeSpan needs a gather buffer that outlives the span; out may already
  // hold rows the caller wants kept, so gather separately then append.
  thread_local std::vector<int64_t> gather;
  ProbeResult r = ProbeSpan(detail, detail_row, scratch, &gather);
  out->insert(out->end(), r.rows, r.rows + r.count);
}

}  // namespace mdjoin
