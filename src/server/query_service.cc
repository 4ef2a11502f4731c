#include "server/query_service.h"

#include <chrono>
#include <utility>

#include "analyze/binder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/rules.h"

namespace mdjoin {

namespace {

// Shadow-catalog name the roll-up path registers the cached finer cuboid
// under. Double-underscore prefix keeps it out of any user namespace.
constexpr char kCachedFinerTable[] = "__mdj_cache_finer__";

Counter* QueriesCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "mdjoin_server_queries_total", "queries submitted through sessions");
  return c;
}
Gauge* ActiveGauge() {
  static Gauge* g = MetricsRegistry::Global().GetGauge(
      "mdjoin_server_queries_active", "queries currently inside Execute");
  return g;
}
Gauge* SessionsGauge() {
  static Gauge* g = MetricsRegistry::Global().GetGauge(
      "mdjoin_server_sessions_open", "open client sessions");
  return g;
}
Counter* CacheHitCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "mdjoin_server_cache_hit_total", "queries answered by an exact cache hit");
  return c;
}
Counter* CacheRollupHitCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "mdjoin_server_cache_rollup_hit_total",
      "queries answered by rolling up a cached finer cuboid");
  return c;
}
Counter* CacheMissCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "mdjoin_server_cache_miss_total", "cache-eligible queries executed in full");
  return c;
}

/// Decrements a gauge on scope exit (Execute has many return paths).
class GaugeDecrementer {
 public:
  explicit GaugeDecrementer(Gauge* gauge) : gauge_(gauge) { gauge_->Add(1); }
  ~GaugeDecrementer() { gauge_->Add(-1); }
  GaugeDecrementer(const GaugeDecrementer&) = delete;
  GaugeDecrementer& operator=(const GaugeDecrementer&) = delete;

 private:
  Gauge* const gauge_;
};

/// Withdraws the session's active guard on scope exit, so Cancel() never
/// sees a dangling pointer even when execution returns early.
class ActiveGuardScope {
 public:
  ActiveGuardScope(Session* session, QueryGuard* guard,
                   void (Session::*set)(QueryGuard*))
      : session_(session), set_(set) {
    (session_->*set_)(guard);
  }
  ~ActiveGuardScope() { (session_->*set_)(nullptr); }
  ActiveGuardScope(const ActiveGuardScope&) = delete;
  ActiveGuardScope& operator=(const ActiveGuardScope&) = delete;

 private:
  Session* const session_;
  void (Session::*const set_)(QueryGuard*);
};

/// Folds a profiled operator tree into the ExecStats the unprofiled path
/// would have produced.
void SumProfileCounters(const OperatorProfile& node, ExecStats* stats) {
  ++stats->nodes_executed;
  stats->rows_materialized += node.output_rows;
  if (node.is_mdjoin) {
    ++stats->mdjoin_operators;
    stats->detail_rows_scanned += node.detail_rows_scanned;
    stats->candidate_pairs += node.candidate_pairs;
    stats->matched_pairs += node.matched_pairs;
  }
  stats->blocks_read += node.blocks_read;
  stats->spill_bytes += node.spill_bytes_written;
  for (const auto& child : node.children) {
    SumProfileCounters(*child, stats);
  }
}

/// The storage counters the query record carries, from either engine path.
void RecordStorageCounters(const ExecStats& stats, QueryRecord* record) {
  if (record == nullptr) return;
  record->blocks_read = stats.blocks_read;
  record->spill_bytes = stats.spill_bytes;
}

/// Terminal-outcome label for the query record.
const char* OutcomeLabel(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kResourceExhausted: return "shed";
    case StatusCode::kDeadlineExceeded: return "deadline";
    case StatusCode::kCancelled: return "cancelled";
    default: return "error";
  }
}

}  // namespace

const char* CacheOutcomeToString(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kDisabled:
      return "disabled";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kHit:
      return "hit";
    case CacheOutcome::kRollupHit:
      return "rollup_hit";
  }
  return "unknown";
}

QueryService::QueryService(const Catalog& catalog, const QueryServiceOptions& options)
    : catalog_(catalog), options_(options), admission_(options.admission) {
  if (options_.query_history_capacity > 0) {
    QueryHistory::Options history_options;
    history_options.capacity = options_.query_history_capacity;
    history_options.log_path = options_.query_log_path;
    history_options.slow_query_ms = options_.slow_query_ms;
    history_ = std::make_unique<QueryHistory>(history_options);
  }
  // Pre-register the service instruments so metrics dumps always carry the
  // full catalog, even before the first query (validate_obs.py
  // --expect-server checks every name).
  QueriesCounter();
  ActiveGauge();
  SessionsGauge();
  CacheHitCounter();
  CacheRollupHitCounter();
  CacheMissCounter();
  ResultCache::RegisterMetrics();
  if (options_.cache_capacity_bytes > 0) {
    ResultCache::Options cache_options;
    cache_options.capacity_bytes = options_.cache_capacity_bytes;
    cache_ = std::make_unique<ResultCache>(&admission_, cache_options);
  }
  if (options_.block_cache_bytes > 0) {
    // Resident decoded blocks draw from the same admission memory pool as
    // query guards and the result cache; if the pool refuses even after
    // reclaim, the block bypasses the cache (ephemeral pin, charged to the
    // faulting query's own guard) rather than failing the query.
    BlockCache::Options bc;
    bc.capacity_bytes = options_.block_cache_bytes;
    bc.charge = [this](int64_t bytes) { return admission_.TryChargeBytes(bytes); };
    bc.release = [this](int64_t bytes) { admission_.ReleaseChargedBytes(bytes); };
    block_cache_ = std::make_unique<BlockCache>(bc);
  }
  if (cache_ != nullptr || block_cache_ != nullptr) {
    // Arriving queries squeeze the caches before queueing (DESIGN.md §11):
    // result-cache entries first (cheapest to recompute via roll-up), then
    // cold decoded blocks (refaultable from their block files).
    admission_.SetMemoryReclaimer([this](int64_t bytes_needed) {
      int64_t freed = 0;
      if (cache_ != nullptr) freed += cache_->EvictBytes(bytes_needed);
      if (freed < bytes_needed && block_cache_ != nullptr) {
        freed += block_cache_->EvictBytes(bytes_needed - freed);
      }
      return freed;
    });
  }
}

QueryService::~QueryService() {
  MDJ_CHECK(sessions_open_.load() == 0)
      << "QueryService destroyed with " << sessions_open_.load() << " open session(s)";
}

std::unique_ptr<Session> QueryService::OpenSession(std::string tenant) {
  return std::unique_ptr<Session>(new Session(this, std::move(tenant)));
}

Result<Table> QueryService::RunEngine(const PlanPtr& plan, const Catalog& catalog,
                                      QueryGuard* guard, int threads,
                                      ExecStats* stats, QueryRecord* record) {
  MdJoinOptions md = options_.md_options;
  md.guard = guard;
  md.num_threads = threads;
  if (block_cache_ != nullptr) md.block_cache = block_cache_.get();
  if (!options_.collect_feedback) {
    Result<Table> out = ExecutePlanCse(plan, catalog, md, stats);
    RecordStorageCounters(*stats, record);
    return out;
  }
  // Feedback mode: run profiled (no CSE — the measurements must reflect the
  // plan as written), harvest measured cardinalities into the store, and
  // carry the profile's telemetry into the query record.
  md.feedback = &feedback_;
  QueryProfile profile;
  Result<Table> out = ExplainAnalyze(plan, catalog, md, &profile);
  if (profile.root != nullptr) {
    SumProfileCounters(*profile.root, stats);
  }
  RecordStorageCounters(*stats, record);
  if (record != nullptr) {
    record->max_qerror = profile.max_qerror;
    record->cpu_ms = profile.root != nullptr ? profile.root->cpu_ms : 0;
  }
  return out;
}

Result<QueryResult> QueryService::Execute(Session* session, const PlanPtr& plan,
                                          const SessionQueryOptions& query_options) {
  if (history_ == nullptr) {
    return ExecuteInternal(session, plan, query_options, nullptr);
  }
  QueryRecord record;
  const auto start = std::chrono::steady_clock::now();
  Result<QueryResult> result = ExecuteInternal(session, plan, query_options, &record);
  record.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  if (result.ok()) {
    record.outcome = "ok";
    if (result->table != nullptr) record.rows = result->table->num_rows();
    record.cache = CacheOutcomeToString(result->stats.cache);
    record.queue_wait_ms = result->stats.queue_wait_ms;
    record.detail_rows_scanned = result->stats.exec.detail_rows_scanned;
  } else {
    record.outcome = OutcomeLabel(result.status());
    // Deadline and cancel terminate execution through the guard's stride
    // checks; shed queries never started, so they do not count as trips.
    record.guard_tripped = result.status().code() == StatusCode::kDeadlineExceeded ||
                           result.status().code() == StatusCode::kCancelled;
  }
  history_->Record(std::move(record));
  return result;
}

Result<QueryResult> QueryService::ExecuteInternal(
    Session* session, const PlanPtr& plan, const SessionQueryOptions& query_options,
    QueryRecord* record) {
  if (plan == nullptr) return Status::InvalidArgument("Execute: null plan");
  QueriesCounter()->Increment();
  GaugeDecrementer active(ActiveGauge());

  if (session->ConsumePendingCancel()) {
    return Status::Cancelled("query cancelled before it started");
  }

  // Resolve per-query knobs against the service defaults.
  const int64_t timeout_ms = query_options.timeout_ms >= 0 ? query_options.timeout_ms
                                                           : options_.default_timeout_ms;
  const int64_t memory_bytes = query_options.memory_bytes >= 0
                                   ? query_options.memory_bytes
                                   : options_.default_memory_per_query;
  const int threads = query_options.threads >= 1 ? query_options.threads
                                                 : options_.default_threads_per_query;
  std::chrono::steady_clock::time_point deadline{};
  if (timeout_ms > 0) {
    deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  }

  // Canonicalize: equal queries share one cache identity and the engine runs
  // the optimized form.
  PlanPtr canonical = plan;
  if (options_.optimize) {
    MDJ_ASSIGN_OR_RETURN(canonical,
                         OptimizePlan(plan, catalog_, options_.optimize_options));
  }
  if (record != nullptr) {
    // Submitted-form identity vs. executed-form identity; they differ exactly
    // when canonicalization changed the plan.
    record->fingerprint = FingerprintString(ExplainPlan(plan));
    record->plan_hash = FingerprintString(ExplainPlan(canonical));
  }

  const bool cache_on = cache_ != nullptr && query_options.use_cache;
  QueryStats stats;
  stats.cache = cache_on ? CacheOutcome::kMiss : CacheOutcome::kDisabled;

  PlanCacheKey key;
  if (cache_on) {
    key = MakePlanCacheKey(canonical);
    // Exact hits never touch admission: no engine work means no budget.
    if (std::shared_ptr<const Table> cached = cache_->LookupExact(key.exact)) {
      CacheHitCounter()->Increment();
      TraceInstant("cache_hit", "exact");
      stats.cache = CacheOutcome::kHit;
      return QueryResult{std::move(cached), std::move(stats)};
    }
  }

  AdmissionRequest request;
  request.tenant = session->tenant();
  request.memory_bytes = memory_bytes;
  request.threads = threads;
  request.deadline = deadline;
  request.cancelled = &session->cancel_requested_;
  MDJ_ASSIGN_OR_RETURN(AdmissionTicket ticket, admission_.Admit(request));

  stats.queue_wait_ms = ticket.queue_wait_ms();
  stats.admitted_memory_bytes = ticket.memory_bytes();
  stats.admitted_threads = ticket.threads();

  // Second chance: a twin query may have populated the cache while this one
  // queued. The ticket releases via RAII on this return.
  if (cache_on) {
    if (std::shared_ptr<const Table> cached = cache_->LookupExact(key.exact)) {
      CacheHitCounter()->Increment();
      TraceInstant("cache_hit", "exact_after_queue");
      stats.cache = CacheOutcome::kHit;
      return QueryResult{std::move(cached), std::move(stats)};
    }
  }

  // Guard deadline = time remaining, not the original timeout: queue wait
  // already consumed part of the budget.
  int64_t guard_timeout_ms = 0;
  if (timeout_ms > 0) {
    guard_timeout_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           deadline - std::chrono::steady_clock::now())
                           .count();
    if (guard_timeout_ms < 1) {
      return Status::DeadlineExceeded("deadline expired before execution started");
    }
  }
  QueryGuard guard(ticket.MintGuardOptions(guard_timeout_ms));
  ActiveGuardScope guard_scope(session, &guard, &Session::SetActiveGuard);
  // Close the Cancel() race between admission and guard publication.
  if (session->cancel_requested_.load(std::memory_order_acquire)) guard.Cancel();

  // Lattice roll-up: a cached finer cuboid of the same family answers this
  // coarser request via Theorem 4.5. ApplyRollup rebuilds (and re-certifies)
  // the rewrite; only its detail input is swapped for the cached table, so
  // the executed plan is exactly the certified roll-up shape.
  if (cache_on && !key.family.empty()) {
    if (std::optional<ResultCache::FinerCuboid> finer =
            cache_->LookupFiner(key.family, key.mask)) {
      Result<PlanPtr> rolled = ApplyRollup(canonical, finer->mask);
      Catalog shadow = catalog_;
      if (rolled.ok() &&
          shadow.Register(kCachedFinerTable, finer->table.get()).ok()) {
        PlanPtr outer = MdJoinPlan((*rolled)->child(0), TableRef(kCachedFinerTable),
                                   (*rolled)->aggs, (*rolled)->theta);
        Result<Table> out = RunEngine(outer, shadow, &guard, ticket.threads(),
                                      &stats.exec, record);
        if (!out.ok()) return out.status();
        CacheRollupHitCounter()->Increment();
        TraceInstant("cache_hit", "rollup");
        stats.cache = CacheOutcome::kRollupHit;
        auto shared = std::make_shared<const Table>(std::move(*out));
        cache_->Insert(key, shared);
        return QueryResult{std::move(shared), std::move(stats)};
      }
      // Roll-up not applicable after all (or name collision): execute fully.
    }
  }

  Result<Table> out = RunEngine(canonical, catalog_, &guard, ticket.threads(),
                                &stats.exec, record);
  if (!out.ok()) return out.status();
  auto shared = std::make_shared<const Table>(std::move(*out));
  if (cache_on) {
    CacheMissCounter()->Increment();
    cache_->Insert(key, shared);
  }
  return QueryResult{std::move(shared), std::move(stats)};
}

Session::Session(QueryService* service, std::string tenant)
    : service_(service), tenant_(std::move(tenant)) {
  service_->sessions_open_.fetch_add(1, std::memory_order_relaxed);
  SessionsGauge()->Add(1);
}

Session::~Session() {
  service_->sessions_open_.fetch_sub(1, std::memory_order_relaxed);
  SessionsGauge()->Add(-1);
}

Result<QueryResult> Session::Execute(const PlanPtr& plan,
                                     const SessionQueryOptions& query_options) {
  return service_->Execute(this, plan, query_options);
}

Result<QueryResult> Session::ExecuteQueryString(
    const std::string& text, const SessionQueryOptions& query_options) {
  MDJ_ASSIGN_OR_RETURN(analyze::BoundQuery bound,
                       analyze::BindQueryString(text, service_->catalog()));
  return Execute(bound.plan, query_options);
}

void Session::Cancel() {
  cancel_requested_.store(true, std::memory_order_release);
  {
    MutexLock lock(mu_);
    if (active_guard_ != nullptr) active_guard_->Cancel();
  }
  // A waiter queued for admission re-checks its cancel flag on wake-up.
  service_->admission().WakeAll();
}

void Session::SetActiveGuard(QueryGuard* guard) {
  MutexLock lock(mu_);
  active_guard_ = guard;
}

bool Session::ConsumePendingCancel() {
  return cancel_requested_.exchange(false, std::memory_order_acq_rel);
}

}  // namespace mdjoin
