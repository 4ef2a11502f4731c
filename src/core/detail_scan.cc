#include "core/detail_scan.h"

#include <algorithm>
#include <unordered_set>

#include "expr/compile.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mdjoin {

namespace {

Result<CompiledTheta> CompileTheta(const ThetaParts& parts, const Schema& base_schema,
                                   const Table& detail, const MdJoinOptions& options) {
  CompiledTheta ct;
  // Resolve the SIMD backend up front so a pinned-but-unavailable backend is
  // a query compile error, never a silent fallback mid-scan.
  MDJ_ASSIGN_OR_RETURN(ct.level, simd::ResolveBackend(options.simd));
  ct.use_flat = options.use_flat_columns;
  if (ct.use_flat) ct.accel = detail.accel();
  const Schema& detail_schema = detail.schema();
  if (!parts.base_only.empty()) {
    MDJ_ASSIGN_OR_RETURN(ct.base_pred,
                         CompileExpr(CombineConjuncts(parts.base_only), &base_schema,
                                     /*detail_schema=*/nullptr));
  }

  // Detail-side selection (Theorem 4.2). When pushdown is disabled the
  // conjuncts join the residual so results are identical.
  std::vector<ExprPtr> residual_conjuncts = parts.residual;
  if (options.push_detail_selection) {
    if (!parts.detail_only.empty()) {
      MDJ_ASSIGN_OR_RETURN(ct.kernels,
                           PredicateKernels::Compile(parts.detail_only, detail_schema,
                                                     ct.accel, ct.level));
      ct.has_kernels = true;
    }
  } else {
    residual_conjuncts.insert(residual_conjuncts.end(), parts.detail_only.begin(),
                              parts.detail_only.end());
  }

  // Without the index the equi conjuncts must be re-checked per pair.
  ct.indexed = options.use_index && !parts.equi.empty();
  if (!ct.indexed) {
    for (const EquiPair& pair : parts.equi) {
      residual_conjuncts.push_back(
          Expr::Binary(BinaryOp::kEq, pair.base_expr, pair.detail_expr));
    }
  }

  if (!residual_conjuncts.empty()) {
    MDJ_ASSIGN_OR_RETURN(ct.residual,
                         CompileExpr(CombineConjuncts(std::move(residual_conjuncts)),
                                     &base_schema, &detail_schema));
  }
  return ct;
}

}  // namespace

Result<std::vector<ScanComponent>> BindComponents(
    const char* op, const Table& base, const Table& detail,
    const std::vector<MdJoinComponent>& components, const MdJoinOptions& options) {
  if (components.empty()) return Status::InvalidArgument(op, ": no components");
  std::unordered_set<std::string> seen_outputs;
  std::vector<ScanComponent> bound;
  bound.reserve(components.size());
  for (const MdJoinComponent& comp : components) {
    if (comp.theta == nullptr) {
      return Status::InvalidArgument(op, ": θ-condition must not be null");
    }
    ScanComponent sc;
    MDJ_ASSIGN_OR_RETURN(sc.aggs, BindAggs(comp.aggs, &base.schema(), &detail.schema()));
    for (const BoundAgg& a : sc.aggs) {
      if (!seen_outputs.insert(a.output_field.name).second) {
        return Status::InvalidArgument(op, ": duplicate output column '",
                                       a.output_field.name, "' across components");
      }
    }
    sc.parts = AnalyzeTheta(comp.theta);
    MDJ_ASSIGN_OR_RETURN(sc.theta,
                         CompileTheta(sc.parts, base.schema(), detail, options));
    ExprPtr folded = FoldConstants(comp.theta);
    sc.never_matches = folded != nullptr && folded->kind() == ExprKind::kLiteral &&
                       !folded->literal().IsTruthy();
    bound.push_back(std::move(sc));
  }
  return bound;
}

size_t TotalAggs(const std::vector<ScanComponent>& components) {
  size_t n = 0;
  for (const ScanComponent& c : components) n += c.aggs.size();
  return n;
}

int64_t PlanPassBudget(int64_t base_rows, const std::vector<ScanComponent>& components,
                       const MdJoinOptions& options, MdJoinStats* stats) {
  int64_t budget =
      options.base_rows_per_pass > 0 ? options.base_rows_per_pass : base_rows;
  int64_t indexes = 0;
  for (const ScanComponent& c : components) indexes += c.theta.indexed;
  QueryGuard* guard = options.guard;
  if (guard != nullptr && guard->has_memory_budget() && indexes > 0 && base_rows > 0) {
    const int64_t fit =
        guard->remaining_soft_bytes() / (kGuardBytesPerIndexedBaseRow * indexes);
    if (fit < budget) {
      budget = std::max<int64_t>(1, fit);
      stats->memory_degraded = true;
    }
  }
  stats->base_rows_per_pass_effective = budget;
  return budget;
}

DetailScanWorker::DetailScanWorker(const Table& base,
                                   const std::vector<ScanComponent>& components,
                                   QueryGuard* guard)
    : scratch(components.size()), ticket(guard) {
  cols.reserve(TotalAggs(components));
  for (const ScanComponent& c : components) {
    for (const BoundAgg& b : c.aggs) {
      cols.push_back(AggStateColumn::Make(b.fn, base.num_rows()));
    }
  }
}

void DetailScanWorker::BeginJob() {
  // A probe memo caches full-key → candidates for one specific index;
  // serving those lists against a different job's index would be wrong.
  // Its hit counters are fleet-wide, though: fold them into the worker's
  // stats before the reset discards them.
  for (BaseIndex::ProbeScratch& s : scratch) {
    stats.index_probe_lookups += s.memo_lookups;
    stats.index_probe_memo_hits += s.memo_hits;
    s = BaseIndex::ProbeScratch{};
  }
}

Status DetailScanWorker::FinishScan() {
  for (BaseIndex::ProbeScratch& s : scratch) {
    stats.index_probe_lookups += s.memo_lookups;
    stats.index_probe_memo_hits += s.memo_hits;
    s.memo_lookups = 0;  // folded; next BeginJob must not double-count
    s.memo_hits = 0;
  }
  return ticket.Finish();
}

Result<DetailScan> DetailScan::Prepare(const Table& base, const Table& detail,
                                       const std::vector<ScanComponent>& components,
                                       const std::vector<int64_t>& pass_rows,
                                       const MdJoinOptions& options) {
  DetailScan scan;
  scan.base_ = &base;
  scan.detail_ = &detail;
  scan.parts_.resize(components.size());

  // Rows eligible for updates: those satisfying the B-only conjuncts. The
  // others still appear in the output (with identity aggregates) but can
  // never match.
  int64_t indexed_rows = 0;
  for (size_t p = 0; p < components.size(); ++p) {
    Part& part = scan.parts_[p];
    part.comp = &components[p];
    part.first_col = scan.num_cols_;
    scan.num_cols_ += components[p].aggs.size();
    const CompiledTheta& theta = components[p].theta;
    if (!theta.base_pred.valid()) {
      part.active = pass_rows;
    } else {
      RowCtx ctx;
      ctx.base = &base;
      for (int64_t row : pass_rows) {
        ctx.base_row = row;
        if (theta.base_pred.EvalBool(ctx)) part.active.push_back(row);
      }
    }
    if (theta.indexed) indexed_rows += static_cast<int64_t>(part.active.size());
  }

  // Index on the equi part (§4.5), or nested loop when disabled/absent. The
  // per-job indexes are the memory the guard's soft budget governs; the
  // caller sized pass_rows so this reservation fits (or degraded to more
  // passes). The hard limit is still enforced here.
  if (indexed_rows > 0) {
    MDJ_RETURN_NOT_OK(scan.index_bytes_.Reserve(
        options.guard, indexed_rows * kGuardBytesPerIndexedBaseRow, "base index"));
  }
  for (Part& part : scan.parts_) {
    if (!part.comp->theta.indexed) continue;
    MDJ_ASSIGN_OR_RETURN(part.index, BaseIndex::Build(base, part.active,
                                                      part.comp->parts.equi,
                                                      detail.schema()));
  }

  // The guard promises trip latency within ~one check stride of detail rows;
  // that promise outranks block shape, so a guarded scan never processes more
  // than a stride between checks.
  scan.block_ = options.block_size > 0 ? options.block_size : 1024;
  if (options.guard != nullptr && options.guard->check_stride() > 0) {
    scan.block_ = std::min<int64_t>(scan.block_, options.guard->check_stride());
  }

  // Plain detail-column aggregate arguments read straight from column
  // storage; one pointer per aggregate, hoisted out of the scan. Typed
  // argument plans: when such a column has an int64/float64 mirror and the
  // accumulator is flat, the match loop reads the primitive payload and
  // calls the typed UpdateMany — no Value is touched. NULL cells are skipped
  // outright, which is exactly what every flat kind does with a NULL Value.
  scan.arg_cols_.reserve(scan.num_cols_);
  scan.plans_.resize(scan.num_cols_);
  size_t col = 0;
  for (const ScanComponent& c : components) {
    for (const BoundAgg& agg : c.aggs) {
      const int dc = agg.detail_arg_col;
      scan.arg_cols_.push_back(dc >= 0 ? detail.column(dc).data() : nullptr);
      ArgPlan& plan = scan.plans_[col++];
      if (dc < 0 || c.theta.accel == nullptr ||
          agg.fn->flat_kind() == FlatAggKind::kNone) {
        continue;
      }
      const FlatColumn& fc = c.theta.accel->cols[static_cast<size_t>(dc)];
      if (fc.rep == FlatColumn::Rep::kInt64) {
        plan.i64 = fc.i64.data();
      } else if (fc.rep == FlatColumn::Rep::kFloat64) {
        plan.f64 = fc.f64.data();
      } else {
        continue;
      }
      plan.nulls = fc.null_bytes();
    }
  }
  return scan;
}

int64_t DetailScan::index_masks() const {
  int64_t masks = 0;
  for (const Part& part : parts_) masks += part.index.num_masks();
  return masks;
}

Status DetailScan::ScanChunk(const Table& chunk, int64_t lo, int64_t hi,
                             DetailScanWorker* worker) const {
  Span span("scan_range", "scan");
  // Everything hoisted against the prepared table (argument columns, typed
  // plans into its mirror) is valid only when that is the table being
  // scanned; a decoded block from the paged reader carries the same schema
  // but its own row numbering and storage, and gets no typed plans.
  const bool home = (&chunk == detail_);
  std::vector<const Value*> foreign_args;
  std::vector<ArgPlan> foreign_plans;
  const Value* const* arg_cols = arg_cols_.data();
  const ArgPlan* plans = plans_.data();
  if (!home) {
    foreign_args.assign(num_cols_, nullptr);
    for (const Part& part : parts_) {
      for (size_t a = 0; a < part.comp->aggs.size(); ++a) {
        const int c = part.comp->aggs[a].detail_arg_col;
        if (c >= 0) foreign_args[part.first_col + a] = chunk.column(c).data();
      }
    }
    arg_cols = foreign_args.data();
    foreign_plans.resize(num_cols_);
    plans = foreign_plans.data();
  }

  RowCtx ctx;
  ctx.base = base_;
  ctx.detail = &chunk;
  // Work counters stay in locals and flush into the worker's stats once per
  // range; per-row stores into shared stat structs were measurable in the
  // scan loop. A guard trip mid-scan must still flush, so cancelled queries
  // report how far they got.
  int64_t scanned = 0, blocks = 0;
  Counters counters;
  Status status;

  if (static_cast<int64_t>(worker->sel.size()) < block_) {
    worker->sel.resize(static_cast<size_t>(block_));
  }
  const size_t mask_words =
      2 * static_cast<size_t>(simd::MaskWords(static_cast<int>(block_)));
  if (worker->mask.size() < mask_words) worker->mask.resize(mask_words);
  // With one component a block's qualified rows are its selected rows; with
  // k they are the union of the components' selections.
  const bool multi = parts_.size() > 1;
  if (multi && static_cast<int64_t>(worker->qualified.size()) < block_) {
    worker->qualified.resize(static_cast<size_t>(block_));
  }
  uint8_t* qual = multi ? worker->qualified.data() : nullptr;

  // The code-key probe memo reads the typed mirror; the use_flat_columns=
  // false ablation arm must not (BeginJob reset scratch, so set it every
  // range), and neither may a foreign chunk, whose codes live in a different
  // mirror.
  for (size_t p = 0; p < parts_.size(); ++p) {
    worker->scratch[p].allow_code_keys = parts_[p].comp->theta.use_flat && home;
  }

  for (int64_t start = lo; start < hi && status.ok(); start += block_) {
    const int n = static_cast<int>(std::min<int64_t>(block_, hi - start));
    ++blocks;
    scanned += n;
    if (multi) std::fill(qual, qual + n, uint8_t{0});
    int64_t pairs_this_block = 0;
    for (size_t p = 0; p < parts_.size(); ++p) {
      const Part& part = parts_[p];
      pairs_this_block +=
          ScanBlock(part, chunk, start, n, plans + part.first_col,
                    arg_cols + part.first_col, qual, &worker->scratch[p], &ctx, worker,
                    &counters);
    }
    if (multi) {
      for (int i = 0; i < n; ++i) counters.qualified += qual[i];
    }
    counters.cand_pairs += pairs_this_block;
    status = worker->ticket.TickBlock(n, pairs_this_block);
  }

  worker->stats.detail_rows_scanned += scanned;
  worker->stats.detail_rows_qualified += counters.qualified;
  worker->stats.candidate_pairs += counters.cand_pairs;
  worker->stats.matched_pairs += counters.matched;
  worker->stats.blocks += blocks;
  worker->stats.kernel_invocations += counters.kernels.kernel_invocations;
  worker->stats.kernel_fallback_rows += counters.kernels.fallback_rows;
  worker->stats.dense_blocks += counters.kernels.dense_blocks;
  worker->stats.fused_blocks += counters.fused_blocks;

  // One registry flush per range keeps the scan loop free of shared atomics
  // while the fleet-wide counters stay ~a-morsel fresh.
  static Counter* c_scanned = MetricsRegistry::Global().GetCounter(
      "mdjoin_detail_rows_scanned_total", "detail tuples read by MD-join scans");
  static Counter* c_qualified = MetricsRegistry::Global().GetCounter(
      "mdjoin_detail_rows_qualified_total",
      "detail tuples surviving pushed-down selection");
  static Counter* c_pairs = MetricsRegistry::Global().GetCounter(
      "mdjoin_candidate_pairs_total", "(base, detail) pairs tested after index pruning");
  static Counter* c_matched = MetricsRegistry::Global().GetCounter(
      "mdjoin_matched_pairs_total", "pairs satisfying the full theta condition");
  static Counter* c_blocks = MetricsRegistry::Global().GetCounter(
      "mdjoin_scan_blocks_total", "vectorized detail blocks processed");
  static Counter* c_kernels = MetricsRegistry::Global().GetCounter(
      "mdjoin_kernel_invocations_total", "columnar predicate kernel runs");
  c_scanned->Increment(scanned);
  c_qualified->Increment(counters.qualified);
  c_pairs->Increment(counters.cand_pairs);
  c_matched->Increment(counters.matched);
  c_blocks->Increment(blocks);
  c_kernels->Increment(counters.kernels.kernel_invocations);

  span.SetArg("rows", hi - lo);
  span.SetArg("matched", counters.matched);
  return status;
}

int64_t DetailScan::ScanBlock(const Part& part, const Table& detail, int64_t start,
                              int n, const ArgPlan* plans,
                              const Value* const* arg_cols, uint8_t* qual,
                              BaseIndex::ProbeScratch* scratch, RowCtx* ctx,
                              DetailScanWorker* worker, Counters* counters) const {
  const std::vector<BoundAgg>& aggs = part.comp->aggs;
  const CompiledTheta& ct = part.comp->theta;
  AggStateColumn* cols = worker->cols.data() + part.first_col;
  uint32_t* sel = worker->sel.data();

  BlockFilter filt;
  if (ct.has_kernels) {
    filt = ct.kernels.FilterBlock(detail, start, n, sel, worker->mask.data(),
                                  &counters->kernels);
  } else {
    filt.count = n;
    filt.dense = true;
  }
  const int count = filt.count;
  // Dense blocks never wrote sel; translate lane i on the fly.
  auto row_at = [&](int i) -> int64_t {
    return start + (filt.dense ? i : static_cast<int>(sel[static_cast<size_t>(i)]));
  };
  if (qual == nullptr) {
    counters->qualified += count;
  } else {
    for (int i = 0; i < count; ++i) qual[row_at(i) - start] = 1;
  }

  // Fused predicate+aggregate path: with no index and no residual, every
  // selected detail row matches exactly the active base rows, so the probe
  // and match-list machinery collapses — block-reducible aggregates (count,
  // min, max) fold the whole block once per group, and the rest skip Value
  // fabrication via the typed plans. Exactness: integer count adds
  // reassociate freely, and the block min/max fold is replace-iff-strictly-
  // better with keep-first ties — the same verdict per-row updates reach
  // (NaN never replaces an incumbent either way). Float sums stay per-row
  // in row order, preserving bit-identical accumulation.
  const int64_t* fgroups = part.active.data();
  const int64_t ng = static_cast<int64_t>(part.active.size());
  int64_t pairs = 0;
  int64_t matched = 0;
  if (!ct.indexed && !ct.residual.valid()) {
    ++counters->fused_blocks;
    pairs = static_cast<int64_t>(count) * ng;
    matched = pairs;
    if (count > 0 && ng > 0) {
      for (size_t a = 0; a < aggs.size(); ++a) {
        const BoundAgg& agg = aggs[a];
        AggStateColumn& col = cols[a];
        const FlatAggKind kind = col.kind();
        if (!agg.has_arg) {
          if (kind == FlatAggKind::kCount) {
            col.AddCountMany(fgroups, ng, count);
          } else {
            for (int i = 0; i < count; ++i) col.UpdateCountStarMany(fgroups, ng);
          }
          continue;
        }
        const ArgPlan& ap = plans[a];
        if (ap.i64 != nullptr) {
          if (kind == FlatAggKind::kCount) {
            int64_t nn = 0;
            if (ap.nulls == nullptr) {
              nn = count;
            } else {
              for (int i = 0; i < count; ++i) nn += ap.nulls[row_at(i)] == 0;
            }
            if (nn > 0) col.AddCountMany(fgroups, ng, nn);
          } else if (kind == FlatAggKind::kMin || kind == FlatAggKind::kMax) {
            bool have = false;
            int64_t best = 0;
            for (int i = 0; i < count; ++i) {
              const int64_t t = row_at(i);
              if (ap.nulls != nullptr && ap.nulls[t]) continue;
              const int64_t x = ap.i64[t];
              if (!have) {
                have = true;
                best = x;
              } else if (kind == FlatAggKind::kMin ? x < best : x > best) {
                best = x;
              }
            }
            if (have) col.UpdateManyI64(fgroups, ng, best);
          } else {
            for (int i = 0; i < count; ++i) {
              const int64_t t = row_at(i);
              if (ap.nulls != nullptr && ap.nulls[t]) continue;
              col.UpdateManyI64(fgroups, ng, ap.i64[t]);
            }
          }
        } else if (ap.f64 != nullptr) {
          if (kind == FlatAggKind::kCount) {
            int64_t nn = 0;
            if (ap.nulls == nullptr) {
              nn = count;
            } else {
              for (int i = 0; i < count; ++i) nn += ap.nulls[row_at(i)] == 0;
            }
            if (nn > 0) col.AddCountMany(fgroups, ng, nn);
          } else if (kind == FlatAggKind::kMin || kind == FlatAggKind::kMax) {
            bool have = false;
            double best = 0.0;
            for (int i = 0; i < count; ++i) {
              const int64_t t = row_at(i);
              if (ap.nulls != nullptr && ap.nulls[t]) continue;
              const double x = ap.f64[t];
              if (!have) {
                have = true;
                best = x;
              } else if (kind == FlatAggKind::kMin ? x < best : x > best) {
                best = x;
              }
            }
            if (have) col.UpdateManyF64(fgroups, ng, best);
          } else {
            for (int i = 0; i < count; ++i) {
              const int64_t t = row_at(i);
              if (ap.nulls != nullptr && ap.nulls[t]) continue;
              col.UpdateManyF64(fgroups, ng, ap.f64[t]);
            }
          }
        } else if (arg_cols[a] != nullptr) {
          const Value* cells = arg_cols[a];
          for (int i = 0; i < count; ++i) col.UpdateMany(fgroups, ng, cells[row_at(i)]);
        } else {
          // Computed argument: may reference the base row, so per pair.
          for (int i = 0; i < count; ++i) {
            ctx->detail_row = row_at(i);
            for (int64_t k = 0; k < ng; ++k) {
              ctx->base_row = fgroups[k];
              agg.UpdateColumnFromRow(&col, fgroups[k], *ctx);
            }
          }
        }
      }
    }
  } else {
    for (int i = 0; i < count; ++i) {
      const int64_t t = row_at(i);

      const int64_t* cand;
      int64_t ncand;
      if (ct.indexed) {
        const BaseIndex::ProbeResult pr =
            part.index.ProbeSpan(detail, t, scratch, &worker->candidates);
        cand = pr.rows;
        ncand = pr.count;
      } else {
        cand = fgroups;
        ncand = ng;
      }
      pairs += ncand;
      if (ncand == 0) continue;

      ctx->detail_row = t;
      // Resolve the residual once into a match list, then fold the row into
      // every aggregate column-at-a-time: kind dispatch and argument
      // decoding happen once per (row, aggregate), not once per pair.
      const int64_t* match_rows = cand;
      int64_t nmatch = ncand;
      if (ct.residual.valid()) {
        worker->matched_buf.clear();
        for (int64_t k = 0; k < ncand; ++k) {
          ctx->base_row = cand[k];
          if (ct.residual.EvalBool(*ctx)) worker->matched_buf.push_back(cand[k]);
        }
        match_rows = worker->matched_buf.data();
        nmatch = static_cast<int64_t>(worker->matched_buf.size());
      }
      if (nmatch == 0) continue;
      matched += nmatch;
      for (size_t a = 0; a < aggs.size(); ++a) {
        const BoundAgg& agg = aggs[a];
        if (plans[a].i64 != nullptr) {
          if (plans[a].nulls == nullptr || plans[a].nulls[t] == 0) {
            cols[a].UpdateManyI64(match_rows, nmatch, plans[a].i64[t]);
          }
        } else if (plans[a].f64 != nullptr) {
          if (plans[a].nulls == nullptr || plans[a].nulls[t] == 0) {
            cols[a].UpdateManyF64(match_rows, nmatch, plans[a].f64[t]);
          }
        } else if (arg_cols[a] != nullptr) {
          cols[a].UpdateMany(match_rows, nmatch, arg_cols[a][t]);
        } else if (!agg.has_arg) {
          cols[a].UpdateCountStarMany(match_rows, nmatch);
        } else {
          // Computed argument: may reference the base row, so per pair.
          for (int64_t k = 0; k < nmatch; ++k) {
            ctx->base_row = match_rows[k];
            agg.UpdateColumnFromRow(&cols[a], match_rows[k], *ctx);
          }
        }
      }
    }
  }
  counters->matched += matched;
  return pairs;
}

Status MergeWorkerPartials(DetailScanWorker* into, const DetailScanWorker& from,
                           QueryGuard* guard) {
  // A liveness-only ticket: merged cells are not detail rows, so nothing is
  // charged against the row budget, but a cancel/deadline still lands within
  // one stride of cells — even inside a single wide column.
  GuardTicket ticket(guard, /*count_rows=*/false);
  const int64_t chunk =
      std::max<int64_t>(1, guard != nullptr ? guard->check_stride() : 1 << 16);
  for (size_t i = 0; i < into->cols.size(); ++i) {
    const int64_t groups = into->cols[i].groups();
    for (int64_t lo = 0; lo < groups; lo += chunk) {
      const int64_t hi = std::min<int64_t>(lo + chunk, groups);
      into->cols[i].MergeRange(from.cols[i], lo, hi);
      MDJ_RETURN_NOT_OK(ticket.TickBlock(hi - lo, 0));
    }
  }
  return ticket.Finish();
}

Result<Table> AssembleOutput(const Table& base,
                             const std::vector<ScanComponent>& components,
                             const DetailScanWorker& states, QueryGuard* guard) {
  const int64_t rows = base.num_rows();
  ScopedReservation output_bytes;
  MDJ_RETURN_NOT_OK(output_bytes.Reserve(
      guard,
      rows * static_cast<int64_t>(base.num_columns() + TotalAggs(components)) *
          kGuardBytesPerOutputCell,
      "materialized output"));
  // Column-wise: base columns copied wholesale, then each aggregate column
  // finalized in base order.
  Table out;
  for (int c = 0; c < base.num_columns(); ++c) {
    MDJ_RETURN_NOT_OK(out.AddColumn(base.schema().field(c), base.column(c)));
  }
  size_t i = 0;
  for (const ScanComponent& c : components) {
    for (const BoundAgg& agg : c.aggs) {
      const AggStateColumn& col = states.cols[i++];
      std::vector<Value> values(static_cast<size_t>(rows));
      for (int64_t r = 0; r < rows; ++r) values[static_cast<size_t>(r)] = col.Finalize(r);
      MDJ_RETURN_NOT_OK(out.AddColumn(agg.output_field, std::move(values)));
    }
  }
  return out;
}

int64_t DetailSource::unit_size(const MdJoinOptions& options) const {
  if (options.morsel_size > 0) return options.morsel_size;
  return options.block_size > 0 ? options.block_size : 1024;
}

}  // namespace mdjoin
