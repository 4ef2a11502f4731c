#include "optimizer/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <unordered_map>

#include "analyze/plan_invariants.h"
#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/cost.h"
#include "stats/feedback.h"

#include "core/detail_scan.h"
#include "core/generalized.h"
#include "cube/base_tables.h"
#include "ra/filter.h"
#include "ra/group_by.h"
#include "ra/join.h"
#include "ra/project.h"
#include "storage/out_of_core.h"
#include "storage/spill.h"
#include "table/table_ops.h"

namespace mdjoin {

namespace {

/// One node's result, shared and immutable. A freshly built result is owned
/// by whoever holds the pointer; a catalog table is borrowed (no owner — the
/// catalog outlives the call), and a CSE hit hands back the memo's pointer.
using NodeResult = std::shared_ptr<const Table>;

/// Wraps a freshly built table. Allocated mutable, so the root result can be
/// moved out to the caller once nothing else holds it.
Result<NodeResult> Own(Result<Table> t) {
  MDJ_RETURN_NOT_OK(t.status());
  return NodeResult(std::make_shared<Table>(std::move(t).ValueOrDie()));
}

/// CPU time of the calling thread, for OperatorProfile::cpu_ms. The executor
/// recurses on one thread, so this is inclusive of children (like elapsed_ms)
/// but excludes the MD-join driver's worker threads — a node whose wall time
/// far exceeds its cpu_ms is either parallel or blocked.
double ThreadCpuMs() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// The paged catalog table an MD-join node reads in detail position —
/// directly or under detail Filters, whose predicates land in `filters` — or
/// null when `plan` is no MD-join or its detail child is materialized. A
/// paged detail child is never evaluated: its blocks stream through the join.
const PagedTable* PagedDetail(const PlanPtr& plan, const Catalog& catalog,
                              std::vector<ExprPtr>* filters) {
  if (plan->kind() != PlanKind::kMdJoin && plan->kind() != PlanKind::kGeneralizedMdJoin) {
    return nullptr;
  }
  PlanPtr d = plan->child(1);
  while (d->kind() == PlanKind::kFilter && !d->predicate->ReferencesSide(Side::kBase)) {
    filters->push_back(d->predicate);
    d = d->child(0);
  }
  return d->kind() == PlanKind::kTableRef ? catalog.FindPaged(d->table_name) : nullptr;
}

/// Copies one MD-join evaluation's counters into its operator profile.
void FillMdJoinProfile(OperatorProfile* profile, const MdJoinStats& s,
                       const std::vector<MdJoinComponent>& components) {
  int64_t num_aggs = 0;
  for (const MdJoinComponent& comp : components) {
    num_aggs += static_cast<int64_t>(comp.aggs.size());
  }
  profile->is_mdjoin = true;
  profile->detail_rows_scanned = s.detail_rows_scanned;
  profile->detail_rows_qualified = s.detail_rows_qualified;
  profile->candidate_pairs = s.candidate_pairs;
  profile->matched_pairs = s.matched_pairs;
  profile->agg_updates = s.matched_pairs * num_aggs;
  profile->passes = s.passes_over_detail;
  profile->blocks = s.blocks;
  profile->kernel_invocations = s.kernel_invocations;
  profile->index_masks = s.index_masks;
  profile->fused_blocks = s.fused_blocks;
  profile->index_probe_lookups = s.index_probe_lookups;
  profile->index_probe_memo_hits = s.index_probe_memo_hits;
  profile->morsels = s.morsels;
  profile->steal_waits = s.steal_waits;
  profile->num_threads = std::max(1, s.num_threads);
  profile->blocks_read = s.blocks_read;
  profile->blocks_pruned = s.blocks_pruned;
  profile->blocks_faulted = s.blocks_faulted;
  profile->block_cache_hits = s.block_cache_hits;
  profile->spill_partitions = s.spill_partitions;
  profile->spill_bytes_written = s.spill_bytes_written;
}

/// The one place ExecStats is computed: a fold over the operator tree.
void FoldStats(const OperatorProfile& node, ExecStats* stats) {
  if (node.shared) {
    ++stats->cse_hits;
    return;
  }
  ++stats->nodes_executed;
  if (!node.borrowed) stats->rows_materialized += node.output_rows;
  if (node.is_mdjoin) {
    ++stats->mdjoin_operators;
    stats->detail_rows_scanned += node.detail_rows_scanned;
    stats->candidate_pairs += node.candidate_pairs;
    stats->matched_pairs += node.matched_pairs;
  }
  stats->blocks_read += node.blocks_read;
  stats->spill_bytes += node.spill_bytes_written;
  for (const auto& child : node.children) FoldStats(*child, stats);
}

/// The executor's one walk, behind ExecutePlan and ExplainAnalyze (contract
/// in executor.h). CSE state: the number of evaluated occurrences of each
/// non-leaf plan node, and the result of those occurring twice or more until
/// their last occurrence takes it. A repeated subtree is one node reached
/// along several paths (rewrites such as ExpandCubeBaseWithRollups splice one
/// PlanPtr into every use), so the memo is keyed by node identity. Leaves are
/// never memoized: a TableRef is borrowed and an EmptyRef is free.
class PlanWalk {
 public:
  PlanWalk(const PlanPtr& plan, const Catalog& catalog, const MdJoinOptions& md_options)
      : catalog_(catalog), md_options_(md_options) {
    CountSubtrees(plan);
  }

  /// Evaluates `plan`, appending its profile to `parent->children`.
  Result<NodeResult> Run(const PlanPtr& plan, OperatorProfile* parent) {
    // Guard gate per plan node: a cancel/deadline issued between operators
    // is observed here even when no MD-join scan is running; inside scans
    // the stride checks take over.
    if (md_options_.guard != nullptr) {
      MDJ_RETURN_NOT_OK(md_options_.guard->Check());
    }
    if (MDJ_FAILPOINT("executor:node_error")) {
      return Status::Internal("plan node '", plan->Label(),
                              "' failed (failpoint executor:node_error)");
    }
    Span node_span(PlanKindToString(plan->kind()), "plan");
    auto owned = std::make_unique<OperatorProfile>();
    OperatorProfile* node = owned.get();
    node->label = plan->Label();
    parent->children.push_back(std::move(owned));

    MemoEntry* memo = plan->children().empty() ? nullptr : &memo_.at(plan.get());
    if (memo != nullptr && memo->result != nullptr) {
      node->shared = true;
      node->output_rows = memo->result->num_rows();
      if (--memo->uses_left > 0) return memo->result;
      memo->charge.Release();
      return std::move(memo->result);
    }

    const auto start = std::chrono::steady_clock::now();
    const double cpu_start = ThreadCpuMs();
    Result<NodeResult> result = Eval(plan, node);
    node->elapsed_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  start)
            .count();
    node->cpu_ms = ThreadCpuMs() - cpu_start;
    double child_ms = 0;
    for (const auto& c : node->children) child_ms += c->elapsed_ms;
    node->self_ms = node->elapsed_ms - child_ms;
    MDJ_RETURN_NOT_OK(result.status());
    const Table& out = **result;
    node->output_rows = out.num_rows();
    node_span.SetArg("rows", node->output_rows);
    // A built table is charged to the guard: transiently when it is only
    // passed up the tree (so the tree's tables are not double-charged), and
    // while the memo holds it for a later occurrence.
    const bool hold = memo != nullptr && --memo->uses_left > 0;
    ScopedReservation transient;
    ScopedReservation& charge = hold ? memo->charge : transient;
    if (!node->borrowed && md_options_.guard != nullptr) {
      MDJ_RETURN_NOT_OK(charge.Reserve(md_options_.guard, out.ApproxBytes(),
                                       "materialized node output"));
    }
    if (hold) memo->result = *result;
    return result;
  }

 private:
  struct MemoEntry {
    int uses_left = 0;         // occurrences in the plan not yet served
    NodeResult result;         // set while a repeated subtree has occurrences left
    ScopedReservation charge;  // the guard's charge for `result`
  };

  /// Counts the occurrences Run will visit: a repeated subtree is evaluated
  /// at its first occurrence only, so its descendants are counted once, and
  /// a paged MD-join detail child is never evaluated.
  void CountSubtrees(const PlanPtr& plan) {
    if (plan->children().empty()) return;
    if (++memo_[plan.get()].uses_left > 1) return;
    std::vector<ExprPtr> filters;
    const bool streamed = PagedDetail(plan, catalog_, &filters) != nullptr;
    for (size_t i = 0; i < plan->children().size(); ++i) {
      if (i != 1 || !streamed) CountSubtrees(plan->child(static_cast<int>(i)));
    }
  }

  Result<NodeResult> Eval(const PlanPtr& plan, OperatorProfile* profile);

  const Catalog& catalog_;
  const MdJoinOptions& md_options_;
  std::unordered_map<const PlanNode*, MemoEntry> memo_;
};

Result<NodeResult> PlanWalk::Eval(const PlanPtr& plan, OperatorProfile* profile) {
  // Children first, in order. A paged catalog reference in MD-join detail
  // position — directly or under detail Filters — is never materialized
  // (its slot stays null): each Filter folds into every θ (Theorem 4.2 read
  // right to left: MD(B, σ_p R, l, θ) = MD(B, R, l, θ ∧ p)), so the blocks
  // stream through zone-map pruning and the block cache.
  std::vector<ExprPtr> detail_filters;
  const PagedTable* paged = PagedDetail(plan, catalog_, &detail_filters);
  std::vector<NodeResult> in(plan->children().size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (i == 1 && paged != nullptr) continue;
    MDJ_ASSIGN_OR_RETURN(in[i], Run(plan->child(static_cast<int>(i)), profile));
  }
  switch (plan->kind()) {
    case PlanKind::kTableRef: {
      // Paged relation consumed outside an MD-join detail position (the one
      // place with a block-at-a-time path): materialize it whole, charged to
      // the guard while assembling. Correct for every operator, just not
      // out-of-core — the planner keeps paged tables in detail position.
      if (const PagedTable* whole = catalog_.FindPaged(plan->table_name)) {
        return Own(whole->ReadAll(md_options_.guard));
      }
      MDJ_ASSIGN_OR_RETURN(const Table* t, catalog_.Lookup(plan->table_name));
      profile->borrowed = true;
      return NodeResult(NodeResult(), t);  // aliasing, no owner: borrowed
    }
    case PlanKind::kFilter:
      return Own(Filter(*in[0], plan->predicate));
    case PlanKind::kProject:
      return Own(Project(*in[0], plan->projections));
    case PlanKind::kDistinct:
      return Own(Distinct(*in[0]));
    case PlanKind::kUnion: {
      std::vector<const Table*> tables;
      for (const NodeResult& piece : in) tables.push_back(piece.get());
      return Own(ConcatAll(tables));
    }
    case PlanKind::kPartition:
      return Own(PartitionSlice(*in[0], plan->partition_index, plan->partition_count));
    case PlanKind::kHashJoin:
      return Own(
          HashJoin(*in[0], *in[1], plan->left_keys, plan->right_keys, plan->join_type));
    case PlanKind::kGroupBy:
      return Own(GroupBy(*in[0], plan->group_columns, plan->aggs));
    case PlanKind::kMdJoin:
    case PlanKind::kGeneralizedMdJoin: {
      const bool single = plan->kind() == PlanKind::kMdJoin;
      std::vector<MdJoinComponent> components =
          single ? std::vector<MdJoinComponent>{{plan->aggs, plan->theta}}
                 : plan->components;
      for (MdJoinComponent& comp : components) {
        for (const ExprPtr& p : detail_filters) {
          comp.theta = Expr::Binary(BinaryOp::kAnd, comp.theta, p);
        }
      }
      const Table& base = *in[0];
      // The partitioned-spill escape hatch serves single MD-joins; a
      // generalized node under memory pressure degrades to more passes.
      MdJoinStats md_stats;
      auto run = [&]() -> Result<Table> {
        if (md_options_.enable_spill && single) {
          const MdJoinComponent& c = components[0];
          return paged != nullptr
                     ? PagedMdJoin(base, *paged, c.aggs, c.theta, md_options_, &md_stats)
                     : SpillMdJoin(base, *in[1], c.aggs, c.theta, md_options_, &md_stats);
        }
        const char* op = PlanKindToString(plan->kind());
        if (paged != nullptr) {
          return RunMdJoin(op, base, PagedSource(*paged, components, md_options_),
                           components, md_options_, &md_stats);
        }
        return RunMdJoin(op, base, DetailSource(*in[1]), components, md_options_,
                         &md_stats);
      };
      Result<Table> out = run();
      // On failure the stats still hold partial counts; record them either
      // way so a cancelled query's profile stays truthful.
      FillMdJoinProfile(profile, md_stats, components);
      return Own(std::move(out));
    }
    case PlanKind::kGroupingSets:
      return Own(GroupingSetsBase(*in[0], plan->dims, plan->masks));
    case PlanKind::kSort: {
      MDJ_ASSIGN_OR_RETURN(std::vector<int> cols,
                           ResolveColumns(in[0]->schema(), plan->sort_columns));
      std::vector<SortKey> keys;
      for (size_t i = 0; i < cols.size(); ++i) {
        keys.push_back({cols[i], plan->sort_ascending[i]});
      }
      return Own(SortTable(*in[0], keys));
    }
    case PlanKind::kEmptyRef: {
      if (plan->empty_schema == nullptr) {
        return Status::InvalidArgument("EmptyRef carries no schema");
      }
      return Own(Table{*plan->empty_schema});
    }
  }
  return Status::Internal("unreachable plan kind");
}

/// Runs the walk over `plan`. The operator tree lands in `holder`'s
/// children — partial on failure — and, when asked, its fold in `stats`.
Result<Table> Walk(const PlanPtr& plan, const Catalog& catalog,
                   const MdJoinOptions& md_options, OperatorProfile* holder,
                   ExecStats* stats) {
  Result<NodeResult> out = PlanWalk(plan, catalog, md_options).Run(plan, holder);
  if (stats != nullptr) {
    *stats = ExecStats{};
    for (const auto& root : holder->children) FoldStats(*root, stats);
  }
  MDJ_RETURN_NOT_OK(out.status());
  // The walk and its memo are gone: a root it built has no other holder and
  // moves out; only a borrowed catalog table is copied.
  NodeResult root = std::move(out).ValueOrDie();
  if (root.use_count() == 1) return std::move(const_cast<Table&>(*root));
  return root->Clone();
}

/// Lockstep walk over the plan and profile trees, annotating each profiled
/// operator with the cost model's estimated cardinality. Estimation runs over
/// the same catalog (and optional feedback store) the optimizer saw, so
/// `est=` in the rendering is the number the plan was ranked with. Profile
/// children can be a prefix of plan children (the paged MD-join fast path
/// never executes its materialized detail child), hence the bounds guard; a
/// failed estimate leaves est_rows at -1 and the node renders without it.
void AnnotateEstimates(const PlanPtr& plan, OperatorProfile* profile,
                       const Catalog& catalog, const FeedbackStore* feedback) {
  if (plan == nullptr || profile == nullptr) return;
  Result<PlanCost> cost = EstimateCost(plan, catalog, feedback);
  if (cost.ok()) profile->est_rows = cost->output_rows;
  const size_t n = std::min(profile->children.size(), plan->children().size());
  for (size_t i = 0; i < n; ++i) {
    AnnotateEstimates(plan->child(static_cast<int>(i)), profile->children[i].get(),
                      catalog, feedback);
  }
}

double MaxQError(const OperatorProfile& node) {
  double worst = node.qerror();
  for (const auto& child : node.children) {
    worst = std::max(worst, MaxQError(*child));
  }
  return worst;
}

/// Feeds each operator's measured output cardinality (and for MD-joins the
/// detail-scan volume and selectivity) back into the store under the
/// subtree's fingerprint. Runs only on complete executions: partial counts
/// from a tripped guard would poison the EWMA. A shared (CSE-hit) node was
/// measured at its first occurrence and is not recorded twice.
void HarvestFeedback(const PlanPtr& plan, const OperatorProfile& profile,
                     FeedbackStore* feedback) {
  if (profile.shared) return;
  feedback->Record(PlanFingerprint(plan),
                   static_cast<double>(profile.output_rows),
                   profile.is_mdjoin
                       ? static_cast<double>(profile.detail_rows_scanned)
                       : -1.0,
                   profile.is_mdjoin ? profile.selectivity() : -1.0);
  const size_t n = std::min(profile.children.size(), plan->children().size());
  for (size_t i = 0; i < n; ++i) {
    HarvestFeedback(plan->child(static_cast<int>(i)), *profile.children[i],
                    feedback);
  }
}

Histogram* PlanQErrorHistogram() {
  static Histogram* h = MetricsRegistry::Global().GetHistogram(
      "mdjoin_plan_qerror", {1, 2, 3, 5, 8, 16, 32, 64, 128, 256},
      "per-query worst cardinality q-error of EXPLAIN ANALYZE estimates");
  return h;
}

/// Debug invariant mode: statically verify the plan before evaluating it,
/// when asked to by the options or the MDJOIN_VERIFY_PLANS environment
/// variable. Executing an ill-formed tree would surface as a confusing
/// runtime error deep inside some operator; the analyzer diagnostic names
/// the offending node and rule instead.
Status MaybeVerify(const PlanPtr& plan, const Catalog& catalog,
                   const MdJoinOptions& md_options, const char* context) {
  if (!md_options.verify_plans && !VerifyPlansEnabledByEnv()) return Status::OK();
  return VerifyPlan(plan, catalog, context);
}

}  // namespace

Result<Table> ExecutePlan(const PlanPtr& plan, const Catalog& catalog,
                          const MdJoinOptions& md_options, ExecStats* stats) {
  if (plan == nullptr) return Status::InvalidArgument("ExecutePlan: null plan");
  MDJ_RETURN_NOT_OK(MaybeVerify(plan, catalog, md_options, "ExecutePlan"));
  OperatorProfile holder;
  return Walk(plan, catalog, md_options, &holder, stats);
}

Result<Table> ExplainAnalyze(const PlanPtr& plan, const Catalog& catalog,
                             const MdJoinOptions& md_options, QueryProfile* profile,
                             ExecStats* stats) {
  if (profile == nullptr) {
    return Status::InvalidArgument("ExplainAnalyze: null profile");
  }
  // The rewrite log is the optimizer's contribution (filled before this
  // call); everything execution-owned starts fresh.
  profile->root.reset();
  profile->complete = false;
  profile->terminal.clear();
  profile->total_ms = 0;
  profile->max_qerror = -1;
  profile->analysis = StaticAnalysisReport(plan, catalog);

  Status setup = [&]() -> Status {
    if (plan == nullptr) return Status::InvalidArgument("ExplainAnalyze: null plan");
    return MaybeVerify(plan, catalog, md_options, "ExplainAnalyze");
  }();
  if (!setup.ok()) {
    profile->terminal = setup.ToString();
    return setup;
  }

  OperatorProfile holder;  // transient parent; its first child is the real root
  const auto start = std::chrono::steady_clock::now();
  Result<Table> result = Walk(plan, catalog, md_options, &holder, stats);
  profile->total_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                start)
          .count();
  if (!holder.children.empty()) {
    profile->root = std::move(holder.children[0]);
  } else {
    // The root node failed before its profile was created (pre-issued cancel
    // observed at the guard gate); a stub keeps the profile well-formed.
    profile->root = std::make_unique<OperatorProfile>();
    profile->root->label = plan->Label();
  }
  profile->complete = result.ok();
  profile->terminal = result.ok() ? "ok" : result.status().ToString();
  // Estimated-vs-actual: annotate with what the cost model (plus any prior
  // feedback) would have predicted, THEN harvest this run's measurements —
  // the ordering is what makes a repeated query's q-error shrink run over
  // run instead of trivially matching itself.
  AnnotateEstimates(plan, profile->root.get(), catalog, md_options.feedback);
  profile->max_qerror = MaxQError(*profile->root);
  if (profile->complete && profile->max_qerror >= 0) {
    PlanQErrorHistogram()->Observe(
        static_cast<int64_t>(std::llround(profile->max_qerror)));
  }
  if (profile->complete && md_options.feedback != nullptr) {
    HarvestFeedback(plan, *profile->root, md_options.feedback);
  }
  return result;
}

}  // namespace mdjoin
