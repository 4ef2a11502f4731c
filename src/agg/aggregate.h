#ifndef MDJOIN_AGG_AGGREGATE_H_
#define MDJOIN_AGG_AGGREGATE_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "types/value.h"

namespace mdjoin {

/// Gray et al.'s classification [GBLP96], which governs which optimizations
/// apply (paper §3 footnote 2 and Theorem 4.5):
///  - distributive: partials combine losslessly (count, sum, min, max) — the
///    roll-up transformation applies;
///  - algebraic: a bounded intermediate suffices (avg via (sum,count));
///  - holistic: unbounded intermediate (count distinct, median).
enum class AggClass {
  kDistributive,
  kAlgebraic,
  kHolistic,
};

const char* AggClassToString(AggClass c);

/// Opaque per-group accumulator; each AggregateFunction defines its own.
class AggregateState {
 public:
  virtual ~AggregateState() = default;
};

/// Flat-state representations understood by the vectorized MD-join path
/// (agg/flat_state.h). A built-in whose accumulator is a few scalars can
/// declare one of these kinds and have its per-group state stored as
/// contiguous typed arrays — one cache line holds many groups — updated by a
/// non-virtual kernel instead of one heap object + virtual call per group.
/// kNone keeps the classic MakeState()/Update() path (holistic aggregates,
/// UDAFs, anything with unbounded state).
enum class FlatAggKind {
  kNone,
  kCount,  // int64 count per group
  kSum,    // (int64 isum, double dsum, any/is_float flags) per group
  kMin,    // (Value best, any flag) per group
  kMax,    // (Value best, any flag) per group
  kAvg,    // (double sum, int64 count) per group
};

/// A (user-definable) aggregate function, in the UDAF style the paper cites
/// [JM98, WZ00a]: allocate state, add values, merge partials, report.
///
/// Implementations must be stateless and thread-compatible: all per-group
/// data lives in the AggregateState.
class AggregateFunction {
 public:
  virtual ~AggregateFunction() = default;

  virtual const std::string& name() const = 0;
  virtual AggClass agg_class() const = 0;

  /// Output type given the argument type (nullopt for count(*)).
  virtual Result<DataType> ResultType(std::optional<DataType> input) const = 0;

  virtual std::unique_ptr<AggregateState> MakeState() const = 0;

  /// Folds one value into `state`. NULL inputs are skipped by SQL convention
  /// (callers may rely on this; implementations must enforce it).
  virtual void Update(AggregateState* state, const Value& v) const = 0;

  /// Combines a partial accumulator into `state` (used when the detail
  /// relation is processed in fragments).
  virtual void Merge(AggregateState* state, const AggregateState& other) const = 0;

  /// Reports the aggregate. Empty groups produce the function's identity:
  /// 0 for count, NULL for sum/avg/min/max (Definition 3.1's outer-join
  /// semantics: every base row appears even when RNG(b,R,θ) is empty).
  virtual Value Finalize(const AggregateState& state) const = 0;

  /// Theorem 4.5: the function that re-aggregates this function's finalized
  /// outputs when rolling a finer cuboid up to a coarser one ("a count in l
  /// becomes a sum in l'"). Empty string if no such rewrite exists (only
  /// distributive aggregates have one).
  virtual std::string RollupFunctionName() const { return ""; }

  /// Flat-state support for the vectorized evaluator. A non-kNone kind is a
  /// contract that AggStateColumn's kernels for that kind reproduce this
  /// function's Update/Merge/Finalize semantics exactly (checked against the
  /// heap-state reference in tests/vectorized_test.cc); implementations that
  /// cannot honor that must return kNone and take the per-group heap-state
  /// fallback.
  virtual FlatAggKind flat_kind() const { return FlatAggKind::kNone; }
};

/// Name → implementation registry. Built-ins self-register; user-defined
/// aggregates can be added at runtime (thread-safe).
class AggregateRegistry {
 public:
  static AggregateRegistry* Global();

  /// Registers `fn` under its name(); error if taken.
  Status Register(std::unique_ptr<AggregateFunction> fn) MDJ_EXCLUDES(mu_);

  /// Case-insensitive lookup; NotFound lists known functions.
  Result<const AggregateFunction*> Lookup(const std::string& name) const
      MDJ_EXCLUDES(mu_);

  std::vector<std::string> RegisteredNames() const MDJ_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<AggregateFunction>> fns_
      MDJ_GUARDED_BY(mu_);
};

}  // namespace mdjoin

#endif  // MDJOIN_AGG_AGGREGATE_H_
