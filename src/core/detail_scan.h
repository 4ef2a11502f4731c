#ifndef MDJOIN_CORE_DETAIL_SCAN_H_
#define MDJOIN_CORE_DETAIL_SCAN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "agg/agg_spec.h"
#include "agg/flat_state.h"
#include "common/query_guard.h"
#include "core/base_index.h"
#include "core/generalized.h"
#include "core/mdjoin.h"
#include "expr/compile.h"
#include "expr/conjuncts.h"
#include "expr/kernels.h"
#include "table/table.h"

namespace mdjoin {

/// θ compiled once per query and shared by every pass, fragment, and worker
/// (compilation used to be repeated per pass, which dominated multi-pass runs
/// on small partitions). Read-only after compilation, so one instance can be
/// probed from many threads.
struct CompiledTheta {
  CompiledExpr base_pred;    // B-only conjuncts; invalid when there are none
  PredicateKernels kernels;  // pushed-down R-only conjuncts (Theorem 4.2)
  bool has_kernels = false;
  CompiledExpr residual;     // conjuncts evaluated per candidate pair
  bool indexed = false;      // equi part served by a BaseIndex

  // Raw-speed plumbing, resolved once per query from MdJoinOptions: the
  // detail table's typed columnar mirror (null when the table has none or
  // use_flat_columns is off), the SIMD level the kernels were compiled for,
  // and whether flat machinery (typed agg updates, code-key probe memos) may
  // engage at all.
  std::shared_ptr<const TableAccel> accel;
  simd::Level level = simd::Level::kScalar;
  bool use_flat = false;
};

/// One (aggregate list, θ) pair of Definition 3.1, bound against (B, R) and
/// compiled once per query. A single MD-join scans R for one component; the
/// generalized MD-join of §4.3 (Theorem 4.3) scans it once for k of them.
struct ScanComponent {
  std::vector<BoundAgg> aggs;
  ThetaParts parts;
  CompiledTheta theta;
  bool never_matches = false;  // θ constant-folds to a non-truthy literal
};

/// Binds and compiles `components` against (base, detail) under `options`.
/// Disabled optimizations (pushdown, index) fold their conjuncts back into
/// the residual, so results are identical either way. Rejects an empty list,
/// a null θ, and an output name repeated across components; errors if
/// options.simd pins a backend this build/machine cannot run. `op` prefixes
/// error messages.
Result<std::vector<ScanComponent>> BindComponents(
    const char* op, const Table& base, const Table& detail,
    const std::vector<MdJoinComponent>& components, const MdJoinOptions& options);

/// Aggregates across all components: the columns an MD-join appends to B.
size_t TotalAggs(const std::vector<ScanComponent>& components);

/// Theorem 4.1 memory staging: the base rows one pass over R may serve.
/// options.base_rows_per_pass caps it; under a guard soft memory budget it is
/// further capped so the pass's base indexes fit the remaining budget —
/// graceful degradation to more scans of R before the hard limit ever has to
/// fail the query. Records the effective budget (and any degradation) in
/// `stats`.
int64_t PlanPassBudget(int64_t base_rows, const std::vector<ScanComponent>& components,
                       const MdJoinOptions& options, MdJoinStats* stats);

/// Thread-local mutable side of a detail scan: partial aggregate accumulators
/// over *all* base rows (global row ids), reusable probe/selection buffers,
/// and a GuardTicket that batches guard accounting so concurrent workers
/// never contend on a shared hot atomic between stride checks.
///
/// The driver (RunMdJoin) gives each scan worker its own and merges them with
/// MergeWorkerPartials once every pass is done; a single worker's partials
/// are the final states.
struct DetailScanWorker {
  DetailScanWorker(const Table& base, const std::vector<ScanComponent>& components,
                   QueryGuard* guard);

  DetailScanWorker(const DetailScanWorker&) = delete;
  DetailScanWorker& operator=(const DetailScanWorker&) = delete;

  /// Resets per-index state (the probe memos cache one job's candidate
  /// lists). Must be called whenever the worker switches to a different
  /// DetailScan job; cheap enough to call unconditionally before the first.
  void BeginJob();

  /// Flushes the ticket's pending row/pair counts into the guard and performs
  /// a final check, keeping budgets exact. Call once per pass, when the
  /// worker finds the pass's cursor drained.
  Status FinishScan();

  // Partial accumulators of every component's aggregates, in output order,
  // indexed by global base-row id.
  std::vector<AggStateColumn> cols;

  // One probe scratch per component: a scratch memoizes one index's candidate
  // lists, so components never share one.
  std::vector<BaseIndex::ProbeScratch> scratch;

  // Reusable scan buffers (owned per worker: probes and the selection loop do
  // zero steady-state allocation, and nothing here is shared across threads).
  std::vector<uint32_t> sel;
  std::vector<uint64_t> mask;       // kernel bitmask scratch, 2 * MaskWords(block)
  std::vector<uint8_t> qualified;   // k > 1: block rows some component selected
  std::vector<int64_t> candidates;
  std::vector<int64_t> matched_buf;

  GuardTicket ticket;
  MdJoinStats stats;  // local work counters; the driver folds them with Add
};

/// One prepared scan job: the read-only machinery for aggregating a set of
/// base rows (`pass_rows`) against ranges of the detail relation — per
/// component its active-row filter, base index (the memory reservation held
/// for the job's lifetime), and hoisted aggregate-argument column pointers.
/// Safe to call ScanRange concurrently from many workers; all mutation
/// happens through the caller's DetailScanWorker.
class DetailScan {
 public:
  DetailScan() = default;
  DetailScan(DetailScan&&) = default;
  DetailScan& operator=(DetailScan&&) = default;

  /// `components` are borrowed and must outlive the scan; `pass_rows` are
  /// the base rows this job aggregates (Theorem 4.1 fragment or multi-pass
  /// partition).
  static Result<DetailScan> Prepare(const Table& base, const Table& detail,
                                    const std::vector<ScanComponent>& components,
                                    const std::vector<int64_t>& pass_rows,
                                    const MdJoinOptions& options);

  /// Scans detail rows [lo, hi), folding matches into `worker`'s partials,
  /// block-at-a-time (blocks clamped to the guard's check stride). Work
  /// counters flush into worker->stats before returning — including on a
  /// guard trip, so cancelled queries report how far they got.
  Status ScanRange(int64_t lo, int64_t hi, DetailScanWorker* worker) const {
    return ScanChunk(*detail_, lo, hi, worker);
  }

  /// The out-of-core seam: scans rows [lo, hi) of `chunk`, a table with the
  /// detail schema that need not be the table given to Prepare — a paged
  /// source passes each decoded block here, so zone-map pruning, faulting,
  /// and eviction stay outside while every scan optimization (kernels, fused
  /// blocks, index probes) runs unchanged. Row-position machinery bound to
  /// the *prepared* table (its typed accel mirror, hoisted argument columns,
  /// code-key probe memos) engages only when `chunk` IS that table; foreign
  /// chunks resolve arguments per call and probe by value.
  ///
  /// Blocks are the outer loop and components the inner one: each block is
  /// read once and every component runs its own selection, probe, residual,
  /// and aggregate fold over it.
  Status ScanChunk(const Table& chunk, int64_t lo, int64_t hi,
                   DetailScanWorker* worker) const;

  int64_t index_masks() const;

 private:
  /// A component's per-job machinery.
  struct Part {
    const ScanComponent* comp = nullptr;
    size_t first_col = 0;  // this component's offset into the worker's cols
    std::vector<int64_t> active;
    BaseIndex index;
  };

  /// Per-aggregate typed argument source: the primitive payload of a plain
  /// detail column with an int64/float64 mirror, when the accumulator is flat.
  struct ArgPlan {
    const int64_t* i64 = nullptr;
    const double* f64 = nullptr;
    const uint8_t* nulls = nullptr;
  };

  /// Work counters of one ScanChunk call, flushed into the worker once.
  struct Counters {
    int64_t qualified = 0, cand_pairs = 0, matched = 0, fused_blocks = 0;
    KernelStats kernels;
  };

  /// One component's pass over block [start, start + n): selection, then
  /// the fused fold or probe + residual + fold into the worker's columns.
  /// `plans` and `arg_cols` are this component's slices and `scratch` its
  /// probe scratch; `qual` marks selected rows when k > 1 (null for k = 1,
  /// which counts them directly). Returns the candidate pairs.
  int64_t ScanBlock(const Part& part, const Table& detail, int64_t start, int n,
                    const ArgPlan* plans, const Value* const* arg_cols, uint8_t* qual,
                    BaseIndex::ProbeScratch* scratch, RowCtx* ctx,
                    DetailScanWorker* worker, Counters* counters) const;

  const Table* base_ = nullptr;
  const Table* detail_ = nullptr;
  std::vector<Part> parts_;
  ScopedReservation index_bytes_;
  int64_t block_ = 1024;
  size_t num_cols_ = 0;
  std::vector<const Value*> arg_cols_;  // plain detail-column agg arguments
  std::vector<ArgPlan> plans_;          // their typed payloads, when mirrored
};

/// Combines `from`'s partial accumulators group-wise into `into` (Theorem 4.1
/// union / detail-split parallelism). Checks the guard every stride of merged
/// cells — even inside one wide column — so cancellation is honored during
/// the merge tail, not only during scans.
Status MergeWorkerPartials(DetailScanWorker* into, const DetailScanWorker& from,
                           QueryGuard* guard);

/// Output assembly: every base row, in order, extended with every
/// component's finalized aggregates in order. Charged to the guard as
/// materialized output.
Result<Table> AssembleOutput(const Table& base,
                             const std::vector<ScanComponent>& components,
                             const DetailScanWorker& states, QueryGuard* guard);

/// The detail relation as the MD-join driver schedules it. One scan of R is
/// the positions [0, extent()), cut into units of unit_size() positions;
/// workers claim (job, unit) ranges from one cursor and run Scan over them.
/// This base class is the in-memory source: positions are rows of table(),
/// units are options.morsel_size-row ranges run with ScanRange, and the
/// typed mirror is allowed. storage/out_of_core.h's PagedSource overrides it
/// with the blocks of a paged file that survive zone-map pruning.
class DetailSource {
 public:
  explicit DetailSource(const Table& table) : table_(&table) {}
  virtual ~DetailSource() = default;
  DetailSource(const DetailSource&) = delete;  // a subclass may point table_ at itself
  DetailSource& operator=(const DetailSource&) = delete;

  /// The table θ binds and every scan job prepares against.
  const Table& table() const { return *table_; }

  virtual int64_t extent() const { return table_->num_rows(); }
  virtual int64_t unit_size(const MdJoinOptions& options) const;

  /// False when the scanned chunks are foreign to table(), so Prepare must
  /// not hoist pointers into its typed mirror.
  virtual bool typed_mirror() const { return true; }

  /// Scans positions [lo, hi) of one job into `worker`'s partials.
  virtual Status Scan(const DetailScan& scan, int64_t lo, int64_t hi,
                      DetailScanWorker* worker) const {
    return scan.ScanRange(lo, hi, worker);
  }

  /// Source-specific accounting, once per run (failed runs included) after
  /// the workers' counters are folded into `stats`.
  virtual void Finish(MdJoinStats* /*stats*/) const {}

 protected:
  DetailSource() = default;  // a subclass binds its table with set_table
  void set_table(const Table& table) { table_ = &table; }

 private:
  const Table* table_ = nullptr;
};

/// The one MD-join driver: MdJoin, GeneralizedMdJoin, ParallelMdJoin and
/// PagedMdJoin are configurations of it. It binds and compiles the k
/// components once, reserves their aggregate states, stages Theorem 4.1
/// passes (PlanPassBudget: base_rows_per_pass and soft-budget degradation),
/// and short-circuits when no (b, t) pair can match. Each pass splits its
/// base rows into up to `base_fragments` scan jobs (the Theorem 4.1 base
/// split; 1 otherwise), and min(options.num_threads, units) workers claim
/// (job, unit) ranges from one MorselScheduler cursor. One worker runs inline
/// on the calling thread and claims each job whole; more run on a pool and
/// share the guard, so the first failure stops the rest. Partials merge once
/// at the end, pairwise, and one output assembly follows. `op` prefixes
/// error messages.
Result<Table> RunMdJoin(const char* op, const Table& base, const DetailSource& detail,
                        const std::vector<MdJoinComponent>& components,
                        const MdJoinOptions& options, MdJoinStats* stats,
                        int base_fragments = 1);

}  // namespace mdjoin

#endif  // MDJOIN_CORE_DETAIL_SCAN_H_
