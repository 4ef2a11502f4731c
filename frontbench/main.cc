// Front-door benchmark of the MD-join engine.
//
//   frontbench --workload <olap_session|analyst_team|out_of_core> --seed N
//              --seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]
//              [--source-digest HEX]
//
// Untraced (--trace 0): clients submit query text through QueryService
// sessions for S seconds; every result is compared to an expected result
// computed beforehand; the last stdout line carries the end-to-end metrics.
// The traffic runs in slices with a reference job timed between them, and
// every end-to-end time is reported at the reference host speed (see
// harness/calibrate.h); the raw figures go to the results file.
// Traced (--trace 1): the same loop untraced and then traced (the benchmark's
// own spans around parse, bind and execute), then probes that time calls
// into each module's public functions; the last line carries the per-layer
// metrics and a Chrome trace is written to DIR. Every run also writes a
// results file with its provenance to DIR.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analyze/binder.h"
#include "analyze/parser.h"
#include "common/random.h"
#include "common/simd.h"
#include "core/generalized.h"
#include "core/mdjoin.h"
#include "cube/base_tables.h"
#include "expr/expr.h"
#include "harness/calibrate.h"
#include "harness/compare.h"
#include "harness/metrics.h"
#include "harness/spans.h"
#include "harness/stats.h"
#include "obs/metrics.h"
#include "optimizer/executor.h"
#include "optimizer/optimize.h"
#include "optimizer/plan.h"
#include "server/query_service.h"
#include "storage/block_format.h"
#include "storage/out_of_core.h"
#include "storage/paged_table.h"
#include "table/table_ops.h"
#include "workload/generators.h"
#include "workloads.h"

namespace frontbench {
namespace {

using namespace mdjoin;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// A p90 needs kMinTailSamples beyond it: the untraced loop runs past
// --seconds (up to 3×) until it has this many samples.
constexpr int64_t kMinSamples = 110;
// Repetitions of each layer probe in the traced run; medians are reported.
constexpr int kProbeReps = 7;
// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 7;
// Traffic runs in slices of at most this long; the reference job runs
// between them. An untimed warm-up slice of kWarmupSeconds comes first.
constexpr double kSliceSeconds = 2.0;
constexpr double kWarmupSeconds = 1.0;
// Runs of the reference job per measurement; their median is used.
constexpr int kJobReps = 3;
// glibc malloc settings of the whole run (see main).
constexpr int kMmapThresholdBytes = 32 << 20;
constexpr int kTrimThresholdBytes = std::numeric_limits<int>::max();

struct Args {
  Workload workload = Workload::kOlapSession;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unavailable";
  std::string source_digest = "unavailable";
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) {
        *error = "unknown workload '" + value + "'";
        return false;
      }
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
      if (!(args->seconds > 0 && args->seconds <= 600)) {
        *error = "--seconds must be in (0, 600]";
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace must be 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload) *error = "--workload is required";
  return have_workload;
}

/// A block file on disk and its open handle; the file is removed with it.
struct PagedFile {
  std::string path;
  std::unique_ptr<PagedTable> table;
  int64_t decoded_bytes = 0;

  PagedFile() = default;
  PagedFile(const PagedFile&) = delete;
  PagedFile& operator=(const PagedFile&) = delete;
  ~PagedFile() {
    table.reset();
    if (!path.empty()) {
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  }
};

/// Sorts `sales` by (year, month), writes it with kBlockRows-row blocks and
/// opens it paged.
std::unique_ptr<PagedFile> WritePaged(const Table& sorted, const std::string& path) {
  auto f = std::make_unique<PagedFile>();
  f->path = path;
  BlockFileOptions options;
  options.block_size_rows = kBlockRows;
  Status s = WriteBlockFile(sorted, path, options);
  MDJ_CHECK(s.ok()) << s.ToString();
  Result<std::unique_ptr<PagedTable>> opened = PagedTable::Open(path);
  MDJ_CHECK(opened.ok()) << opened.status().ToString();
  f->table = std::move(*opened);
  for (int b = 0; b < f->table->num_blocks(); ++b) {
    f->decoded_bytes += f->table->ApproxBlockBytes(b);
  }
  return f;
}

/// One set-up: the generated tables and the catalogs that name them.
struct Data {
  Table sales;  // in-memory Sales; sorted by (year, month) for out_of_core
  Table pm;
  Table custs;
  std::unique_ptr<PagedFile> paged;  // out_of_core only
  Catalog mem_catalog;               // in-memory Sales + bases
  Catalog catalog;                   // what the service serves
};

std::unique_ptr<Data> SetUp(Workload w, uint64_t seed, const std::string& paged_path) {
  auto d = std::make_unique<Data>();
  d->sales = GenerateSales(SalesConfigFor(seed));
  d->pm = MakeProdMonthBase(seed);
  d->custs = MakeCustomerBase();
  if (w == Workload::kOutOfCore) {
    Result<Table> sorted = SortTableBy(d->sales, {"year", "month"});
    MDJ_CHECK(sorted.ok()) << sorted.status().ToString();
    d->sales = std::move(*sorted);
    d->sales.RebuildAccel();
    d->paged = WritePaged(d->sales, paged_path);
  }
  for (Catalog* c : {&d->mem_catalog, &d->catalog}) {
    MDJ_CHECK(c->Register("PM", &d->pm).ok());
    MDJ_CHECK(c->Register("Custs", &d->custs).ok());
  }
  MDJ_CHECK(d->mem_catalog.Register("Sales", &d->sales).ok());
  if (d->paged != nullptr) {
    MDJ_CHECK(RegisterPagedTable(&d->catalog, "Sales", *d->paged->table).ok());
  } else {
    MDJ_CHECK(d->catalog.Register("Sales", &d->sales).ok());
  }
  return d;
}

QueryServiceOptions ServiceOptions(Workload w, int64_t result_bytes, int64_t decoded_bytes) {
  QueryServiceOptions o;
  // Budgets are set explicitly so that nothing is shed or degraded: the
  // default 64 MiB per query is below what a paged materialization reserves.
  o.admission.total_memory_bytes = int64_t{16} << 30;
  o.admission.total_threads = 4;
  o.admission.max_queue_depth = 64;
  o.default_memory_per_query = int64_t{2} << 30;
  o.default_threads_per_query = 1;
  o.default_timeout_ms = 0;
  // analyst_team: the cache holds an eighth of what the distinct results
  // need, so inserts and evictions run beside hits (about 15% of queries
  // miss) and the largest cuboid never fits.
  o.cache_capacity_bytes = w == Workload::kAnalystTeam ? result_bytes / 8 : 0;
  // out_of_core: one eighth of the decoded file.
  o.block_cache_bytes = w == Workload::kOutOfCore ? decoded_bytes / 8 : 0;
  return o;
}

int SessionsFor(Workload w) { return w == Workload::kAnalystTeam ? 4 : 1; }

struct Sample {
  double start_s = 0;    // submit time, seconds since the loop started
  int query = 0;
  QClass cls = QClass::kEqui;
  double latency_ms = 0;
  double job_ms = 0;     // the reference job's time next to this sample's slice
  bool ok = false;       // executed without error and matched the expected result
  CacheOutcome cache = CacheOutcome::kDisabled;
  int64_t queue_wait_ms = 0;
  bool touched_block_cache = false;
};

struct LoopResult {
  std::vector<Sample> samples;
  double wall_s = 0;
  // Seconds each session spent from a slice's start to its last answer,
  // summed over sessions: the time load was offered. A session that finished
  // while another still waited on a slow query is idle, not loading.
  double session_s = 0;
  double reference_session_s = 0;  // session_s at the reference host speed
  std::vector<std::pair<double, double>> slices;  // (wall_s, job_ms) per slice
  std::vector<std::string> errors;  // first few failure descriptions
  BlockCache::StatsSnapshot block_delta;
  int64_t cache_evictions = 0;
};

int64_t CacheEvictionsTotal() {
  return MetricsRegistry::Global().GetCounter("mdjoin_server_cache_evictions_total")->value();
}

BlockCache::StatsSnapshot BlockStats(QueryService* service) {
  BlockCache* bc = service->block_cache();
  return bc != nullptr ? bc->stats() : BlockCache::StatsSnapshot{};
}

int64_t BlockTouches(const BlockCache::StatsSnapshot& s) {
  return s.hits + s.misses + s.ephemeral_loads;
}

/// Zipf(1) query ranks for analyst_team, dealt from shuffled decks of
/// kDeckSize in which rank r appears in proportion to 1/(r+1) (largest
/// remainders round). Every deck has the same mix, so a run's share of each
/// text, the rare costly ones included, does not drift with the seed; the
/// seed sets the order.
constexpr int kDeckSize = 200;

std::vector<int> ZipfDeck(int n) {
  double norm = 0;
  for (int r = 0; r < n; ++r) norm += 1.0 / (r + 1);
  std::vector<int> counts(static_cast<size_t>(n));
  std::vector<std::pair<double, int>> remainders;
  int dealt = 0;
  for (int r = 0; r < n; ++r) {
    const double share = kDeckSize / (r + 1) / norm;
    counts[static_cast<size_t>(r)] = static_cast<int>(share);
    dealt += counts[static_cast<size_t>(r)];
    remainders.emplace_back(share - counts[static_cast<size_t>(r)], r);
  }
  std::sort(remainders.begin(), remainders.end(), std::greater<>());
  for (size_t i = 0; dealt < kDeckSize; ++i, ++dealt) {
    ++counts[static_cast<size_t>(remainders[i].second)];
  }
  std::vector<int> deck;
  for (int r = 0; r < n; ++r) deck.insert(deck.end(), counts[static_cast<size_t>(r)], r);
  return deck;
}

/// One closed-loop client; its state lasts across the slices of a loop.
struct Client {
  std::unique_ptr<Session> session;
  Random rng;
  int64_t next = 0;        // rotation position (olap_session, out_of_core)
  std::vector<int> deck;   // analyst_team
  size_t dealt = 0;        // ranks dealt from `deck`
  // Cache hits alias one immutable table; it is compared once while alive.
  std::unordered_map<const Table*, std::weak_ptr<const Table>> verified;

  Client(std::unique_ptr<Session> s, uint64_t seed, int64_t first)
      : session(std::move(s)), rng(seed), next(first) {}
};

/// The next rank of the client's deck, reshuffled each time it runs out.
int NextFromDeck(Client* c) {
  const size_t pos = c->dealt++ % c->deck.size();
  if (pos == 0) {
    for (size_t i = c->deck.size() - 1; i > 0; --i) {
      std::swap(c->deck[i], c->deck[c->rng.Uniform(i + 1)]);
    }
  }
  return c->deck[pos];
}

std::vector<std::unique_ptr<Client>> OpenClients(Workload w, QueryService* service,
                                                 size_t pool_size, uint64_t seed) {
  std::vector<std::unique_ptr<Client>> clients;
  for (int id = 0; id < SessionsFor(w); ++id) {
    clients.push_back(std::make_unique<Client>(
        service->OpenSession("analyst" + std::to_string(id)),
        seed * 7919 + static_cast<uint64_t>(id), id));
    if (w == Workload::kAnalystTeam) clients.back()->deck = ZipfDeck(static_cast<int>(pool_size));
  }
  return clients;
}

/// One slice of closed-loop traffic: each session submits its next query only
/// after the previous one returned and was checked, until `seconds` have
/// passed. olap_session and out_of_core rotate through the pool; analyst_team
/// sessions deal Zipf(1) ranks from their decks.
LoopResult RunSlice(Workload w, QueryService* service, const std::vector<QuerySpec>& pool,
                    const std::vector<std::unique_ptr<ExpectedTable>>& expected,
                    const std::vector<std::unique_ptr<Client>>& clients, double seconds,
                    SpanRecorder* recorder, std::atomic<int64_t>* next_query_id) {
  const int sessions = static_cast<int>(clients.size());
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  std::vector<LoopResult> per(static_cast<size_t>(sessions));
  const BlockCache::StatsSnapshot block_before = BlockStats(service);
  const int64_t evictions_before = CacheEvictionsTotal();

  auto client = [&](int id) {
    LoopResult& out = per[static_cast<size_t>(id)];
    Client& c = *clients[static_cast<size_t>(id)];
    Session* session = c.session.get();
    for (;; c.next += sessions) {
      if (Clock::now() >= deadline) break;
      const int q = w == Workload::kAnalystTeam
                        ? NextFromDeck(&c)
                        : static_cast<int>(c.next % static_cast<int64_t>(pool.size()));
      const std::string& text = pool[static_cast<size_t>(q)].text;
      const int64_t qid = next_query_id->fetch_add(1);
      const BlockCache::StatsSnapshot bc0 = sessions == 1 ? BlockStats(service)
                                                          : BlockCache::StatsSnapshot{};
      Result<QueryResult> result = Status::Internal("not run");
      const auto t0 = Clock::now();
      if (recorder == nullptr) {
        result = session->ExecuteQueryString(text);
      } else {
        // ExecuteQueryString is BindQueryString (ParseQuery + BindQuery)
        // followed by Session::Execute; the traced loop makes the same calls
        // one by one so each gets a span.
        ScopedSpan root(recorder, "query", qid);
        std::optional<analyze::Query> parsed;
        {
          ScopedSpan span(recorder, "analyze.parse", qid);
          Result<analyze::Query> p = analyze::ParseQuery(text);
          if (p.ok()) {
            parsed = std::move(*p);
          } else {
            result = p.status();
          }
        }
        if (parsed.has_value()) {
          Result<analyze::BoundQuery> bound = Status::Internal("not bound");
          {
            ScopedSpan span(recorder, "analyze.bind", qid);
            bound = analyze::BindQuery(*parsed, service->catalog());
          }
          if (bound.ok()) {
            ScopedSpan span(recorder, "server.execute", qid);
            result = session->Execute(bound->plan);
          } else {
            result = bound.status();
          }
        }
      }
      Sample s;
      s.latency_ms = MsSince(t0);
      s.start_s = std::chrono::duration<double>(t0 - start).count();
      s.query = q;
      s.cls = pool[static_cast<size_t>(q)].cls;
      if (sessions == 1) {
        s.touched_block_cache = BlockTouches(BlockStats(service)) > BlockTouches(bc0);
      }
      if (result.ok()) {
        s.cache = result->stats.cache;
        s.queue_wait_ms = result->stats.queue_wait_ms;
        const Table* got = result->table.get();
        auto it = c.verified.find(got);
        if (it != c.verified.end() && !it->second.expired()) {
          s.ok = true;
        } else {
          const std::string mismatch = expected[static_cast<size_t>(q)]->Mismatch(*got);
          s.ok = mismatch.empty();
          if (s.ok) {
            c.verified[got] = result->table;
          } else if (out.errors.size() < 3) {
            out.errors.push_back("query " + std::to_string(q) + ": " + mismatch);
          }
        }
      } else if (out.errors.size() < 3) {
        out.errors.push_back("query " + std::to_string(q) + ": " +
                             result.status().ToString());
      }
      out.samples.push_back(s);
      out.session_s = MsSince(start) / 1e3;
    }
  };

  std::vector<std::thread> threads;
  for (int i = 1; i < sessions; ++i) threads.emplace_back(client, i);
  client(0);
  for (std::thread& t : threads) t.join();

  LoopResult all;
  all.wall_s = MsSince(start) / 1e3;
  for (LoopResult& r : per) {
    all.session_s += r.session_s;
    all.samples.insert(all.samples.end(), r.samples.begin(), r.samples.end());
    all.errors.insert(all.errors.end(), r.errors.begin(), r.errors.end());
  }
  const BlockCache::StatsSnapshot block_after = BlockStats(service);
  all.block_delta.hits = block_after.hits - block_before.hits;
  all.block_delta.misses = block_after.misses - block_before.misses;
  all.block_delta.evictions = block_after.evictions - block_before.evictions;
  all.block_delta.ephemeral_loads = block_after.ephemeral_loads - block_before.ephemeral_loads;
  all.cache_evictions = CacheEvictionsTotal() - evictions_before;
  return all;
}

int64_t Failures(const LoopResult& r) {
  int64_t n = 0;
  for (const Sample& s : r.samples) n += s.ok ? 0 : 1;
  return n;
}

/// Closed-loop traffic in slices of kSliceSeconds (the last one shortened to
/// end near `seconds`), after one untimed warm-up slice, until `seconds` have
/// passed and at least `min_samples` queries ran (never past 3 × `seconds`).
/// The reference job runs between slices while no query runs; a slice's
/// samples carry the mean of the job times before and after it. Warm-up
/// results are checked too: a failure there is reported in `errors`.
LoopResult RunLoop(Workload w, QueryService* service, const std::vector<QuerySpec>& pool,
                   const std::vector<std::unique_ptr<ExpectedTable>>& expected,
                   uint64_t seed, double seconds, int64_t min_samples,
                   SpanRecorder* recorder, std::atomic<int64_t>* next_query_id,
                   ReferenceProbe* probe) {
  const std::vector<std::unique_ptr<Client>> clients = OpenClients(w, service, pool.size(), seed);
  LoopResult all;
  const LoopResult warmup =
      RunSlice(w, service, pool, expected, clients, kWarmupSeconds, nullptr, next_query_id);
  if (Failures(warmup) > 0) {
    all.errors.push_back(std::to_string(Failures(warmup)) + " warm-up queries failed");
    all.errors.insert(all.errors.end(), warmup.errors.begin(), warmup.errors.end());
  }
  const int sessions = static_cast<int>(clients.size());
  double job_before = probe->MedianMs(kJobReps, sessions);
  while (all.wall_s < 3 * seconds &&
         (all.wall_s < seconds || static_cast<int64_t>(all.samples.size()) < min_samples)) {
    const double left = seconds - all.wall_s;
    LoopResult r = RunSlice(w, service, pool, expected, clients,
                            left > 0 ? std::min(kSliceSeconds, left) : kSliceSeconds, recorder,
                            next_query_id);
    const double job_after = probe->MedianMs(kJobReps, sessions);
    MDJ_CHECK(job_before > 0 && job_after > 0) << "the reference job's helper stopped";
    const double job_ms = (job_before + job_after) / 2;
    job_before = job_after;
    for (Sample& s : r.samples) {
      s.start_s += all.wall_s;
      s.job_ms = job_ms;
      all.samples.push_back(s);
    }
    for (std::string& e : r.errors) {
      if (all.errors.size() < 5) all.errors.push_back(std::move(e));
    }
    all.wall_s += r.wall_s;
    all.session_s += r.session_s;
    all.reference_session_s += AtReferenceSpeed(r.session_s * 1e3, job_ms) / 1e3;
    all.slices.emplace_back(r.wall_s, job_ms);
    all.block_delta.hits += r.block_delta.hits;
    all.block_delta.misses += r.block_delta.misses;
    all.block_delta.evictions += r.block_delta.evictions;
    all.block_delta.ephemeral_loads += r.block_delta.ephemeral_loads;
    all.cache_evictions += r.cache_evictions;
  }
  return all;
}

/// Latencies at the reference host speed, or as measured when `raw`.
std::vector<double> Latencies(const LoopResult& r, std::optional<QClass> cls = std::nullopt,
                              bool raw = false) {
  std::vector<double> v;
  for (const Sample& s : r.samples) {
    if (cls.has_value() && s.cls != *cls) continue;
    v.push_back(raw ? s.latency_ms : AtReferenceSpeed(s.latency_ms, s.job_ms));
  }
  return v;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Median wall time of `reps` calls of `fn`, each inside a span.
double TimeMedianMs(int reps, SpanRecorder* recorder, const std::string& span_name,
                    int64_t qid, const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    ScopedSpan span(recorder, span_name, qid);
    const auto t0 = Clock::now();
    fn();
    ms.push_back(MsSince(t0));
  }
  return Median(ms);
}

template <typename T>
T ValueOrDie(Result<T> r, const char* what) {
  MDJ_CHECK(r.ok()) << what << ": " << r.status().ToString();
  return std::move(*r);
}

/// Layer probes of the traced run: the olap_session query of each class and
/// the bare operators beneath it, over the in-memory tables, timed call by
/// call from here. `paged` is a (year, month)-sorted block file of the same
/// Sales for the storage probe.
void RunProbes(const Data& data, const PagedFile& paged, const QueryServiceOptions& service_options,
               SpanRecorder* recorder, std::atomic<int64_t>* next_query_id,
               std::map<std::string, double>* metrics, std::map<std::string, double>* extra,
               std::string* coverage_error) {
  const Catalog& catalog = data.mem_catalog;
  QueryServiceOptions probe_options = service_options;
  probe_options.cache_capacity_bytes = 0;
  probe_options.block_cache_bytes = 0;
  QueryService probe_service(catalog, probe_options);
  std::unique_ptr<Session> session = probe_service.OpenSession("probe");

  std::vector<double> parse_us, bind_us, optimize_us;
  double rewrites = 0;
  double rows_materialized = 0;
  std::vector<double> coverage;
  for (int c = 0; c < kNumClasses; ++c) {
    const QuerySpec q = ProbeQuery(static_cast<QClass>(c));
    const std::string cls = ClassName(q.cls);
    const int64_t qid = next_query_id->fetch_add(1);
    ScopedSpan root(recorder, "probe." + cls, qid);
    std::vector<double> p_ms, b_ms, o_ms, e_ms, front_ms;
    std::map<std::string, std::vector<double>> self_ms;  // node kind → per-rep sums
    PlanPtr optimized;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      auto t0 = Clock::now();
      analyze::Query parsed;
      {
        ScopedSpan span(recorder, "analyze.parse", qid);
        parsed = ValueOrDie(analyze::ParseQuery(q.text), "parse");
      }
      p_ms.push_back(MsSince(t0));
      t0 = Clock::now();
      analyze::BoundQuery bound;
      {
        ScopedSpan span(recorder, "analyze.bind", qid);
        bound = ValueOrDie(analyze::BindQuery(parsed, catalog), "bind");
      }
      b_ms.push_back(MsSince(t0));
      t0 = Clock::now();
      OptimizeReport report;
      {
        ScopedSpan span(recorder, "optimizer.optimize", qid);
        optimized = ValueOrDie(
            OptimizePlan(bound.plan, catalog, service_options.optimize_options, &report),
            "optimize");
      }
      o_ms.push_back(MsSince(t0));
      ExecStats stats;
      t0 = Clock::now();
      {
        ScopedSpan span(recorder, "executor.execute", qid);
        ValueOrDie(ExecutePlan(optimized, catalog, service_options.md_options, &stats),
                   "execute");
      }
      e_ms.push_back(MsSince(t0));
      if (rep == 0) {
        rewrites += static_cast<double>(report.applied.size());
        rows_materialized += static_cast<double>(stats.rows_materialized);
      }
      QueryProfile profile;
      {
        ScopedSpan span(recorder, "executor.explain_analyze", qid);
        ValueOrDie(ExplainAnalyze(optimized, catalog, service_options.md_options, &profile),
                   "explain analyze");
      }
      std::map<std::string, double> sums;
      double self_total = 0;
      std::function<void(const OperatorProfile&)> walk = [&](const OperatorProfile& node) {
        sums[node.label.substr(0, node.label.find('('))] += node.self_ms;
        self_total += node.self_ms;
        for (const auto& child : node.children) walk(*child);
      };
      if (profile.root != nullptr) walk(*profile.root);
      for (const auto& [kind, ms] : sums) self_ms[kind].push_back(ms);
      coverage.push_back(profile.total_ms > 0 ? self_total / profile.total_ms : 0);
      SessionQueryOptions no_cache;
      no_cache.use_cache = false;
      t0 = Clock::now();
      {
        ScopedSpan span(recorder, "server.front_door", qid);
        ValueOrDie(session->ExecuteQueryString(q.text, no_cache), "front door");
      }
      front_ms.push_back(MsSince(t0));
    }
    for (double v : p_ms) parse_us.push_back(v * 1e3);
    for (double v : b_ms) bind_us.push_back(v * 1e3);
    for (double v : o_ms) optimize_us.push_back(v * 1e3);
    const double exec = Median(e_ms);
    (*metrics)["executor." + cls + "_ms"] = exec;
    (*metrics)["server.overhead_ms." + cls] =
        Median(front_ms) - (Median(p_ms) + Median(b_ms) + Median(o_ms) + exec);
    (*extra)["server.front_door_ms." + cls] = Median(front_ms);
    for (const char* kind : {"TableRef", "CubeBase", "Filter", "Project", "Distinct",
                             "MdJoin", "GeneralizedMdJoin"}) {
      auto it = self_ms.find(kind);
      (*metrics)[std::string("executor.") + kind + "_self_ms." + cls] =
          it == self_ms.end() ? 0 : Median(it->second);
    }
  }
  (*metrics)["analyze.parse_us"] = Median(parse_us);
  (*metrics)["analyze.bind_us"] = Median(bind_us);
  (*metrics)["optimizer.optimize_us"] = Median(optimize_us);
  (*metrics)["optimizer.rewrites_applied"] = rewrites;
  (*metrics)["executor.rows_materialized"] = rows_materialized;
  const double cov = Median(coverage);
  (*metrics)["executor.profile_coverage"] = cov;
  if (cov < 0.95 || cov > 1.05) {
    *coverage_error = "executor.profile_coverage " + std::to_string(cov) + " is not within 5% of 1";
  }

  // Table and cube layers.
  const Table& sales = data.sales;
  const int64_t qid = next_query_id->fetch_add(1);
  ScopedSpan root(recorder, "probe.layers", qid);
  (*metrics)["table.bytes_per_row"] =
      static_cast<double>(sales.ApproxBytes()) / static_cast<double>(sales.num_rows());
  (*metrics)["table.clone_ms"] = TimeMedianMs(kProbeReps, recorder, "table.clone", qid, [&] {
    Table copy = sales.Clone();
    MDJ_CHECK(copy.num_rows() == sales.num_rows());
  });
  const std::vector<std::string> dims = {"prod", "month"};
  (*metrics)["cube.cube_base_ms"] =
      TimeMedianMs(kProbeReps, recorder, "cube.cube_base", qid,
                   [&] { ValueOrDie(CubeByBase(sales, dims), "cube base"); });

  // Core: the Figure-1 MD-join on a prebuilt cube base. Bare: base with its
  // typed mirror built, detail Sales as generated (mirror built). Cold: the
  // inputs as the executor hands them over — a base straight from
  // CubeByBase (no mirror) and a fresh clone of Sales.
  const Table cube_base_raw = ValueOrDie(CubeByBase(sales, dims), "cube base");
  Table cube_base = cube_base_raw.Clone();
  cube_base.RebuildAccel();
  const std::vector<AggSpec> equi_aggs = {
      Sum(dsl::RCol("sale"), "total"), Count("n"), Min(dsl::RCol("sale"), "lo"),
      Max(dsl::RCol("sale"), "hi"), Avg(dsl::RCol("sale"), "mean")};
  const ExprPtr equi_theta = dsl::And(dsl::Eq(dsl::RCol("prod"), dsl::BCol("prod")),
                                      dsl::Eq(dsl::RCol("month"), dsl::BCol("month")));
  MdJoinStats md_stats;
  (*metrics)["core.equi_bare_ms"] =
      TimeMedianMs(kProbeReps, recorder, "core.mdjoin_bare", qid, [&] {
        md_stats = MdJoinStats{};
        ValueOrDie(MdJoin(cube_base, sales, equi_aggs, equi_theta, {}, &md_stats), "mdjoin");
      });
  std::vector<double> cold;
  for (int i = 0; i < kProbeReps; ++i) {
    Table base = cube_base_raw.Clone();
    Table detail = sales.Clone();
    ScopedSpan span(recorder, "core.mdjoin_cold", qid);
    const auto t0 = Clock::now();
    ValueOrDie(MdJoin(base, detail, equi_aggs, equi_theta), "mdjoin cold");
    cold.push_back(MsSince(t0));
  }
  (*metrics)["core.equi_cold_ms"] = Median(cold);
  (*metrics)["core.detail_rows_scanned"] = static_cast<double>(md_stats.detail_rows_scanned);
  (*metrics)["core.candidate_pairs"] = static_cast<double>(md_stats.candidate_pairs);
  (*metrics)["core.matched_pairs"] = static_cast<double>(md_stats.matched_pairs);
  (*metrics)["core.probe_memo_hit_frac"] =
      md_stats.index_probe_lookups > 0
          ? static_cast<double>(md_stats.index_probe_memo_hits) /
                static_cast<double>(md_stats.index_probe_lookups)
          : 0;
  (*metrics)["core.fused_blocks"] = static_cast<double>(md_stats.fused_blocks);
  (*metrics)["executor.tax_ratio"] =
      (*metrics)["executor.equi_ms"] / (*metrics)["core.equi_bare_ms"];
  (*extra)["executor.tax_ratio.base_ms"] = (*metrics)["core.equi_bare_ms"];

  // Core: Example 2.2 as one generalized MD-join over the distinct customers.
  const Table custs = ValueOrDie(GroupByBase(sales, {"cust"}), "cust base");
  std::vector<MdJoinComponent> components;
  for (const char* st : {"NY", "NJ", "CT"}) {
    components.push_back({{Avg(dsl::RCol("sale"), std::string("avg_") + st)},
                          dsl::And(dsl::Eq(dsl::RCol("cust"), dsl::BCol("cust")),
                                   dsl::Eq(dsl::RCol("state"), dsl::Lit(st)))});
  }
  (*metrics)["core.pivot_bare_ms"] =
      TimeMedianMs(kProbeReps, recorder, "core.generalized_bare", qid, [&] {
        ValueOrDie(GeneralizedMdJoin(custs, sales, components), "generalized");
      });

  // Storage: the out_of_core range query's MD-join called directly on the
  // paged file, so zone maps see its θ (no block cache: every kept block is
  // decoded).
  const ExprPtr range_theta =
      dsl::And(dsl::Eq(dsl::RCol("cust"), dsl::BCol("cust")),
               dsl::Eq(dsl::RCol("year"), dsl::Lit(int64_t{1997})),
               dsl::Ge(dsl::RCol("month"), dsl::Lit(int64_t{7})));
  const std::vector<AggSpec> range_aggs = {Sum(dsl::RCol("sale"), "h2_total"),
                                           Count(dsl::RCol("sale"), "h2_n")};
  MdJoinStats paged_stats;
  (*metrics)["storage.range_bare_ms"] =
      TimeMedianMs(kProbeReps, recorder, "storage.paged_mdjoin", qid, [&] {
        paged_stats = MdJoinStats{};
        ValueOrDie(PagedMdJoin(data.custs, *paged.table, range_aggs, range_theta, {},
                               &paged_stats),
                   "paged mdjoin");
      });
  const int64_t considered = paged_stats.blocks_read + paged_stats.blocks_pruned;
  (*metrics)["storage.blocks_pruned_frac"] =
      considered > 0 ? static_cast<double>(paged_stats.blocks_pruned) /
                           static_cast<double>(considered)
                     : 0;
}

/// EXPLAIN ANALYZE of each out_of_core text over the paged catalog, as the
/// service would run it (optimized, shared block cache): per-class node self
/// times and block counters for the results file, plus the executed plans.
void ProfilePagedPlans(const std::vector<QuerySpec>& pool, const Catalog& catalog,
                       const QueryServiceOptions& options, BlockCache* block_cache,
                       std::map<std::string, double>* extra,
                       std::map<std::string, std::string>* plans) {
  for (const QuerySpec& q : pool) {
    const std::string prefix = std::string("paged.") + ClassName(q.cls) + ".";
    const analyze::BoundQuery bound =
        ValueOrDie(analyze::BindQueryString(q.text, catalog), "bind paged");
    const PlanPtr plan =
        ValueOrDie(OptimizePlan(bound.plan, catalog, options.optimize_options), "optimize paged");
    MdJoinOptions md = options.md_options;
    md.block_cache = block_cache;
    QueryProfile profile;
    ValueOrDie(ExplainAnalyze(plan, catalog, md, &profile), "explain paged");
    std::function<void(const OperatorProfile&)> walk = [&](const OperatorProfile& node) {
      (*extra)[prefix + node.label.substr(0, node.label.find('(')) + "_self_ms"] += node.self_ms;
      (*extra)[prefix + "blocks_read"] += static_cast<double>(node.blocks_read);
      (*extra)[prefix + "blocks_pruned"] += static_cast<double>(node.blocks_pruned);
      for (const auto& child : node.children) walk(*child);
    };
    if (profile.root != nullptr) walk(*profile.root);
    (*extra)[prefix + "total_ms"] = profile.total_ms;
    (*plans)[ClassName(q.cls)] = ExplainPlan(plan);
  }
}

std::string Provenance(const Args& args, const QueryServiceOptions& o, const Data& data) {
  Result<simd::Level> level = simd::ResolveBackend(simd::Backend::kAuto);
  std::string out = "{";
  auto add = [&](const std::string& key, const std::string& json_value) {
    if (out.size() > 1) out += ", ";
    out += JsonString(key) + ": " + json_value;
  };
  add("workload", JsonString(WorkloadName(args.workload)));
  add("seed", std::to_string(args.seed));
  add("seconds", JsonNumber(args.seconds));
  add("trace", args.trace ? "1" : "0");
  add("git_sha", JsonString(args.git_sha));
  add("source_digest", JsonString(args.source_digest));
  add("build_type", JsonString(FRONTBENCH_BUILD_TYPE));
#if defined(__clang__)
  add("compiler", JsonString(std::string("clang ") + __clang_version__));
#else
  add("compiler", JsonString(std::string("gcc ") + __VERSION__));
#endif
  add("nproc", std::to_string(std::thread::hardware_concurrency()));
  add("simd_level", JsonString(level.ok() ? simd::LevelName(*level) : "unresolved"));
  add("sales_rows", std::to_string(data.sales.num_rows()));
  add("customers", std::to_string(kCustomers));
  add("products", std::to_string(kProducts));
  add("pm_rows", std::to_string(data.pm.num_rows()));
  add("custs_rows", std::to_string(data.custs.num_rows()));
  add("sessions", std::to_string(SessionsFor(args.workload)));
  add("threads_per_query", std::to_string(o.default_threads_per_query));
  add("admission_total_memory_bytes", std::to_string(o.admission.total_memory_bytes));
  add("admission_total_threads", std::to_string(o.admission.total_threads));
  add("admission_max_queue_depth", std::to_string(o.admission.max_queue_depth));
  add("memory_per_query_bytes", std::to_string(o.default_memory_per_query));
  add("timeout_ms", std::to_string(o.default_timeout_ms));
  add("result_cache_bytes", std::to_string(o.cache_capacity_bytes));
  add("block_cache_bytes", std::to_string(o.block_cache_bytes));
  add("optimize", o.optimize ? "true" : "false");
  add("query_history_capacity", std::to_string(o.query_history_capacity));
  if (data.paged != nullptr) {
    add("paged_blocks", std::to_string(data.paged->table->num_blocks()));
    add("paged_block_rows", std::to_string(kBlockRows));
    add("paged_decoded_bytes", std::to_string(data.paged->decoded_bytes));
  }
  add("float_rel_tol", JsonNumber(kRelTol));
  add("malloc_mmap_threshold_bytes", std::to_string(kMmapThresholdBytes));
  add("malloc_trim_threshold_bytes", std::to_string(kTrimThresholdBytes));
  add("slice_seconds", JsonNumber(kSliceSeconds));
  add("reference_job_ms", JsonNumber(kReferenceJobMs));
  return out + "}";
}

/// [[submit_s, query, latency_ms, ok], ...] in submit order per session.
std::string SamplesJson(const std::vector<Sample>& samples) {
  std::string out = "[";
  char buf[96];
  for (const Sample& s : samples) {
    std::snprintf(buf, sizeof(buf), "%s[%.4f, %d, %.4f, %d]", out.size() > 1 ? ", " : "",
                  s.start_s, s.query, s.latency_ms, s.ok ? 1 : 0);
    out += buf;
  }
  return out + "]";
}

/// [[wall_s, reference_job_ms], ...] per slice.
std::string SlicesJson(const std::vector<std::pair<double, double>>& slices) {
  std::string out = "[";
  for (const auto& [wall, job] : slices) {
    out += (out.size() > 1 ? ", [" : "[") + JsonNumber(wall) + ", " + JsonNumber(job) + "]";
  }
  return out + "]";
}

std::string NumbersJson(const std::vector<double>& v) {
  std::string out = "[";
  for (double x : v) out += (out.size() > 1 ? ", " : "") + JsonNumber(x);
  return out + "]";
}

std::string StringsJson(const std::map<std::string, std::string>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += JsonString(k) + ": " + JsonString(v);
  }
  return out + "}";
}

std::string MetricsJson(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += JsonString(k) + ": " + JsonNumber(v);
  }
  return out + "}";
}

int Run(const Args& args, ReferenceProbe* probe) {
  std::filesystem::create_directories(args.out_dir);
  const std::string tag = std::string(WorkloadName(args.workload)) + "-seed" +
                          std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
  const std::string paged_path =
      args.out_dir + "/sales-" + tag + "-" + std::to_string(::getpid()) + ".mdjb";

  // Set-up (data generation, plus sort/write/open for out_of_core), several
  // times, each followed by the reference job; setup_s is the median set-up
  // at the reference speed of the median job time. The last one is kept.
  std::vector<double> setup_s, setup_job_ms;
  std::unique_ptr<Data> data;
  for (int i = 0; i < kSetupReps; ++i) {
    data.reset();
    const auto t0 = Clock::now();
    data = SetUp(args.workload, args.seed, paged_path);
    setup_s.push_back(MsSince(t0) / 1e3);
    setup_job_ms.push_back(probe->MedianMs(kJobReps, 1));
    if (setup_job_ms.back() <= 0) {
      std::fprintf(stderr, "the reference job's helper stopped\n");
      return 1;
    }
  }

  // Expected results, outside every timed region: the unoptimized bound plan
  // through ExecutePlan over in-memory tables (no rewrites, no result cache,
  // no paged storage).
  const std::vector<QuerySpec> pool = QueryPool(args.workload);
  std::vector<std::unique_ptr<ExpectedTable>> expected;
  std::vector<std::string> errors;  // failed checks, printed to stderr
  int64_t result_bytes = 0;
  for (const QuerySpec& q : pool) {
    Result<analyze::BoundQuery> bound = analyze::BindQueryString(q.text, data->mem_catalog);
    if (!bound.ok()) {
      std::fprintf(stderr, "cannot bind %s: %s\n", q.text.c_str(),
                   bound.status().ToString().c_str());
      return 1;
    }
    Result<Table> t = ExecutePlan(bound->plan, data->mem_catalog);
    if (!t.ok()) {
      std::fprintf(stderr, "cannot run %s: %s\n", q.text.c_str(),
                   t.status().ToString().c_str());
      return 1;
    }
    result_bytes += t->ApproxBytes();
    expected.push_back(std::make_unique<ExpectedTable>(std::move(*t)));
    const std::string ra = CrossCheckWithGroupBy(q, data->sales, *expected.back());
    if (!ra.empty()) errors.push_back(q.text + ": " + ra);
  }

  const QueryServiceOptions options = ServiceOptions(
      args.workload, result_bytes, data->paged != nullptr ? data->paged->decoded_bytes : 0);
  QueryService service(data->catalog, options);
  std::atomic<int64_t> next_query_id{1};
  std::map<std::string, double> metrics;
  std::map<std::string, double> extra;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string trace_path;
  std::vector<Sample> samples;  // the untraced loop's, for the results file
  std::vector<std::pair<double, double>> slices;  // the untraced loop's
  std::map<std::string, std::string> paged_plans;

  if (!args.trace) {
    LoopResult r = RunLoop(args.workload, &service, pool, expected, args.seed,
                           args.seconds, kMinSamples, nullptr, &next_query_id, probe);
    attempted = static_cast<int64_t>(r.samples.size());
    failed = Failures(r);
    samples = r.samples;
    slices = r.slices;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    const std::vector<double> lat = Latencies(r);
    metrics["latency_p50_ms"] = Median(lat);
    metrics["latency_p90_ms"] = Percentile(lat, 0.9);
    extra["latency_samples"] = static_cast<double>(lat.size());
    extra["latency_p90_samples_beyond"] =
        static_cast<double>(SamplesBeyond(static_cast<int64_t>(lat.size()), 0.9));
    extra["latency_iqr_share"] = IqrShare(lat);
    if (SamplesBeyond(static_cast<int64_t>(lat.size()), 0.9) < kMinTailSamples) {
      errors.push_back("too few samples for a p90: " + std::to_string(lat.size()));
    }
    for (int c = 0; c < kNumClasses; ++c) {
      const std::string cls = ClassName(static_cast<QClass>(c));
      const std::vector<double> cl = Latencies(r, static_cast<QClass>(c));
      metrics[cls + "_p50_ms"] = Median(cl);
      extra[cls + "_samples"] = static_cast<double>(cl.size());
      extra["raw." + cls + "_p50_ms"] = Median(Latencies(r, static_cast<QClass>(c), true));
    }
    const std::vector<double> raw_lat = Latencies(r, std::nullopt, true);
    extra["raw.latency_p50_ms"] = Median(raw_lat);
    extra["raw.latency_p90_ms"] = Percentile(raw_lat, 0.9);
    const double sessions = SessionsFor(args.workload);
    extra["raw.throughput_qps"] = sessions * static_cast<double>(attempted - failed) / r.session_s;
    extra["raw.setup_s"] = Median(setup_s);
    extra["setup_reference_job_ms"] = Median(setup_job_ms);
    std::vector<double> job_ms;
    for (const auto& [wall, job] : r.slices) job_ms.push_back(job);
    extra["reference_job_ms"] = Median(job_ms);
    extra["reference_job_iqr_share"] = job_ms.size() >= 2 ? IqrShare(job_ms) : 0;
    extra["slices"] = static_cast<double>(r.slices.size());
    double hits = 0, rollups = 0, misses = 0;
    for (const Sample& s : r.samples) {
      hits += s.cache == CacheOutcome::kHit ? 1 : 0;
      rollups += s.cache == CacheOutcome::kRollupHit ? 1 : 0;
      misses += s.cache == CacheOutcome::kMiss ? 1 : 0;
    }
    const double n = std::max<double>(1, static_cast<double>(r.samples.size()));
    extra["cache_hit_frac"] = hits / n;
    extra["cache_rollup_frac"] = rollups / n;
    extra["cache_miss_frac"] = misses / n;
    metrics["throughput_qps"] =
        sessions * static_cast<double>(attempted - failed) / r.reference_session_s;
    metrics["correct_frac"] =
        attempted > 0 ? static_cast<double>(attempted - failed) / static_cast<double>(attempted)
                      : 0;
    extra["failed_frac"] = attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1;
    extra["wall_s"] = r.wall_s;
    metrics["setup_s"] = AtReferenceSpeed(Median(setup_s), Median(setup_job_ms));
    metrics["peak_rss_mb"] = PeakRssMb();
  } else {
    const double phase = args.seconds / 3;
    LoopResult plain = RunLoop(args.workload, &service, pool, expected, args.seed + 1,
                               phase, 0, nullptr, &next_query_id, probe);
    SpanRecorder recorder;
    LoopResult traced = RunLoop(args.workload, &service, pool, expected, args.seed + 2,
                                phase, 0, &recorder, &next_query_id, probe);
    attempted = static_cast<int64_t>(plain.samples.size() + traced.samples.size());
    failed = Failures(plain) + Failures(traced);
    errors.insert(errors.end(), plain.errors.begin(), plain.errors.end());
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());

    const double untraced_p50 = Median(Latencies(plain));
    const double traced_p50 = Median(Latencies(traced));
    metrics["trace.overhead_frac"] = (traced_p50 - untraced_p50) / untraced_p50;
    extra["trace.untraced_p50_ms"] = untraced_p50;
    extra["trace.traced_p50_ms"] = traced_p50;

    // Server layer, from the traced loop's per-query reports.
    const double n = static_cast<double>(traced.samples.size());
    double hits = 0, rollups = 0, misses = 0, streamed = 0;
    std::vector<double> queue_wait;
    for (const Sample& s : traced.samples) {
      hits += s.cache == CacheOutcome::kHit ? 1 : 0;
      rollups += s.cache == CacheOutcome::kRollupHit ? 1 : 0;
      misses += s.cache == CacheOutcome::kMiss ? 1 : 0;
      streamed += s.touched_block_cache ? 1 : 0;
      queue_wait.push_back(static_cast<double>(s.queue_wait_ms));
    }
    metrics["server.cache_hit_frac"] = hits / n;
    metrics["server.cache_rollup_frac"] = rollups / n;
    metrics["server.cache_miss_frac"] = misses / n;
    metrics["server.cache_evictions"] = static_cast<double>(traced.cache_evictions);
    // QueryStats.queue_wait_ms has whole-millisecond resolution and reads 0
    // whenever admission never queues, so it is recorded here only.
    extra["server.queue_wait_ms_p90"] = Percentile(queue_wait, 0.9);

    // Storage layer: BlockCache::stats deltas over the traced loop (the
    // per-query QueryRecord.blocks_read stays 0 on service queries).
    const BlockCache::StatsSnapshot& bd = traced.block_delta;
    const int64_t lookups = bd.hits + bd.misses;
    metrics["storage.block_hit_frac"] =
        lookups > 0 ? static_cast<double>(bd.hits) / static_cast<double>(lookups) : 0;
    metrics["storage.blocks_faulted_per_query"] =
        data->paged != nullptr ? static_cast<double>(bd.misses + bd.ephemeral_loads) / n : 0;
    metrics["storage.evictions"] = static_cast<double>(bd.evictions);
    metrics["storage.streamed_frac"] = data->paged != nullptr ? streamed / n : 0;

    // QueryRecord.blocks_read as the service's query history reports it.
    int64_t history_blocks = 0;
    if (service.history() != nullptr) {
      for (const QueryRecord& rec : service.history()->Snapshot()) {
        history_blocks += rec.blocks_read;
      }
    }
    extra["server.history_blocks_read"] = static_cast<double>(history_blocks);
    if (data->paged != nullptr) {
      ProfilePagedPlans(pool, data->catalog, options, service.block_cache(), &extra,
                        &paged_plans);
    }

    // The storage probe needs a (year, month)-sorted block file; in-memory
    // workloads write one here, after their loops.
    std::unique_ptr<PagedFile> probe_file;
    const PagedFile* paged = data->paged.get();
    if (paged == nullptr) {
      Result<Table> sorted = SortTableBy(data->sales, {"year", "month"});
      MDJ_CHECK(sorted.ok()) << sorted.status().ToString();
      probe_file = WritePaged(*sorted, paged_path);
      paged = probe_file.get();
    }
    std::string coverage_error;
    RunProbes(*data, *paged, options, &recorder, &next_query_id, &metrics, &extra,
              &coverage_error);
    if (!coverage_error.empty()) errors.push_back(coverage_error);

    trace_path = args.out_dir + "/trace-" + tag + ".json";
    std::ofstream(trace_path) << ChromeTraceJson(recorder.Snapshot());
  }

  const bool correct = failed == 0 && errors.empty();
  const std::string provenance = Provenance(args, options, *data);
  {
    std::ofstream out(args.out_dir + "/result-" + tag + ".json");
    out << "{\"provenance\": " << provenance << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": " << MetricsJson(metrics) << ", \"extra\": " << MetricsJson(extra)
        << ", \"setup_s_runs\": " << NumbersJson(setup_s)
        << ", \"trace_file\": " << JsonString(trace_path)
        << ", \"paged_plans\": " << StringsJson(paged_plans)
        << ", \"slices\": " << SlicesJson(slices)
        << ", \"samples\": " << SamplesJson(samples) << "}\n";
  }
  for (const std::string& e : errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
  std::printf("%s\n", provenance.c_str());
  std::string error;
  const std::string line =
      ResultLine(correct, attempted, failed, args.trace ? PerLayerMetrics() : EndToEndMetrics(),
                 metrics, &error);
  if (line.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace frontbench

int main(int argc, char** argv) {
  frontbench::Args args;
  std::string error;
  if (!frontbench::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "frontbench: %s\n", error.c_str());
    return 2;
  }
  // Freed memory stays in the process: without this, glibc returns the
  // engine's large freed tables to the kernel and every query faults them
  // back in, and page-fault cost on this kind of shared VM swings with the
  // host's load more than anything the engine does.
  mallopt(M_MMAP_THRESHOLD, frontbench::kMmapThresholdBytes);
  mallopt(M_TRIM_THRESHOLD, frontbench::kTrimThresholdBytes);
  // Forked before any thread starts.
  std::unique_ptr<frontbench::ReferenceProbe> probe = frontbench::ReferenceProbe::Start();
  if (probe == nullptr) {
    std::fprintf(stderr, "frontbench: cannot start the reference job's helper\n");
    return 1;
  }
  return frontbench::Run(args, probe.get());
}
