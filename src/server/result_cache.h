#ifndef MDJOIN_SERVER_RESULT_CACHE_H_
#define MDJOIN_SERVER_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/thread_annotations.h"
#include "cube/lattice.h"
#include "optimizer/plan.h"
#include "server/admission.h"
#include "table/table.h"

namespace mdjoin {

/// Cache identity of a canonicalized plan. `exact` is the plan's full
/// canonical rendering — two requests with equal `exact` keys have equal
/// results (the catalog is fixed for the service's lifetime and execution is
/// bit-identical across engine knobs).
///
/// When the plan is a cuboid query the optimizer's roll-up rule can serve
/// from — root MD-join over a single-mask GroupingSets child, certified by
/// the analyzer's Theorem-4.5 certificate (distributive aggregates, pure
/// dimension-equality θ) — `family` names its position in the cube lattice:
/// the canonical key with the mask normalized out, so every cuboid over the
/// same (child, dims) shares a family and differs only in `mask`. A cached finer cuboid
/// (mask ⊃ request mask) then answers the coarser request via roll-up.
/// `family` is empty for plans the roll-up rule cannot certify.
struct PlanCacheKey {
  std::string exact;
  std::string family;
  CuboidMask mask = 0;
};

/// Computes the cache key of `plan`: `exact` always, `family`/`mask` only
/// when the Theorem-4.5 roll-up certificate holds at the root.
PlanCacheKey MakePlanCacheKey(const PlanPtr& plan);

/// Semantic result cache over the cuboid lattice (ROADMAP item 1; the
/// lattice view of caching follows Gray et al.'s data-cube paper).
///
/// Entries are finished query results keyed by canonical plan. Lookup is
/// two-tier:
///  - LookupExact: the same canonical plan was cached — return its table;
///  - LookupFiner: some *finer* cuboid of the same family is cached — by
///    Theorem 4.5 the coarser request is a roll-up of it, so the service
///    re-aggregates the (small) cached cuboid instead of re-scanning R.
///
/// Memory: every entry is charged to the shared admission pool
/// (AdmissionController::TryChargeBytes) and to the cache's own
/// capacity_bytes cap; eviction is strict LRU (touched by both lookup
/// tiers). EvictBytes is the admission controller's reclaimer hook, so an
/// arriving query squeezes the cache before it queues. Thread-safe; tables
/// are handed out as shared_ptr<const Table>, so a result stays alive for
/// readers that hold it across an eviction.
///
/// Failpoint "server:cache_evict" forces one LRU eviction at the next
/// Insert, exercising the eviction path deterministically.
class ResultCache {
 public:
  struct Options {
    /// Cache capacity in bytes; also implicitly bounded by what the shared
    /// admission pool has free. Must be >= 1.
    int64_t capacity_bytes = int64_t{256} << 20;
  };

  /// `pool` (not owned, must outlive the cache) backs the byte accounting.
  ResultCache(AdmissionController* pool, const Options& options);
  ~ResultCache();

  /// Registers the cache instruments with the global MetricsRegistry (at
  /// zero). The service calls this even with the cache disabled, so metric
  /// dumps always carry the full server catalog (validate_obs.py
  /// --expect-server).
  static void RegisterMetrics();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Exact-plan hit: the cached table, or nullptr. Touches LRU.
  std::shared_ptr<const Table> LookupExact(const std::string& exact_key)
      MDJ_EXCLUDES(mu_);

  struct FinerCuboid {
    std::shared_ptr<const Table> table;
    CuboidMask mask = 0;
  };

  /// Lattice hit: a cached entry of `family` whose mask is a strict superset
  /// of `coarse` (a finer cuboid — Theorem 4.5 makes it a valid roll-up
  /// source). Among candidates, prefers the fewest rows (cheapest outer
  /// scan). Touches LRU. nullopt when the family holds no finer cuboid.
  std::optional<FinerCuboid> LookupFiner(const std::string& family, CuboidMask coarse)
      MDJ_EXCLUDES(mu_);

  /// Caches `table` under `key`, charging its footprint to the admission
  /// pool; evicts LRU entries as needed to fit both the pool and
  /// capacity_bytes. Oversized results (footprint > capacity) and losing
  /// races (key already present) are dropped silently. Keeps `table` alive
  /// via shared ownership.
  void Insert(const PlanCacheKey& key, std::shared_ptr<const Table> table)
      MDJ_EXCLUDES(mu_);

  /// Reclaimer hook for AdmissionController::SetMemoryReclaimer: evicts LRU
  /// entries until at least `bytes_needed` bytes are freed (or the cache is
  /// empty); returns the bytes actually freed.
  int64_t EvictBytes(int64_t bytes_needed) MDJ_EXCLUDES(mu_);

  /// Drops every entry (catalog changed / tests).
  void Clear() MDJ_EXCLUDES(mu_);

  int64_t bytes_cached() const MDJ_EXCLUDES(mu_);
  int64_t entries() const MDJ_EXCLUDES(mu_);

 private:
  struct Entry {
    PlanCacheKey key;
    std::shared_ptr<const Table> table;
    int64_t bytes = 0;
  };
  /// LRU list, most-recently-used first; maps index into it.
  using LruList = std::list<Entry>;

  void TouchLocked(LruList::iterator it) MDJ_REQUIRES(mu_);
  /// Evicts the least-recently-used entry; returns its byte footprint (0
  /// when empty). Releases the pool charge.
  int64_t EvictOneLocked() MDJ_REQUIRES(mu_);
  void UpdateGaugesLocked() MDJ_REQUIRES(mu_);

  AdmissionController* const pool_;
  const Options options_;

  mutable Mutex mu_;
  LruList lru_ MDJ_GUARDED_BY(mu_);
  std::map<std::string, LruList::iterator> by_exact_ MDJ_GUARDED_BY(mu_);
  /// family → (mask → entry), for the lattice lookup.
  std::map<std::string, std::map<CuboidMask, LruList::iterator>> by_family_
      MDJ_GUARDED_BY(mu_);
  int64_t bytes_cached_ MDJ_GUARDED_BY(mu_) = 0;
};

}  // namespace mdjoin

#endif  // MDJOIN_SERVER_RESULT_CACHE_H_
