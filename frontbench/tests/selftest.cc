// Self-tests of the benchmark harness: percentile and spread arithmetic, the
// order-insensitive result comparator, span self-time arithmetic, and the
// metric catalogue against BENCHMARK.json.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <regex>
#include <set>
#include <sstream>

#include "harness/calibrate.h"
#include "harness/compare.h"
#include "harness/metrics.h"
#include "harness/spans.h"
#include "harness/stats.h"
#include "table/table_builder.h"

namespace frontbench {
namespace {

using mdjoin::DataType;
using mdjoin::Table;
using mdjoin::TableBuilder;
using mdjoin::Value;

TEST(Stats, MedianAndNearestRankPercentile) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.9), 90);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 50);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 100);
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10);
  EXPECT_EQ(SamplesBeyond(99, 0.9), 9);
  EXPECT_EQ(SamplesBeyond(110, 0.9), 11);
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const Quartiles a = QuartilesExclusive({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q2, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  EXPECT_DOUBLE_EQ(IqrShare({10, 9, 8, 7, 6, 5, 4, 3, 2, 1}), 1.0);
  // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
  const Quartiles b = QuartilesExclusive({40, 10, 30, 20});
  EXPECT_DOUBLE_EQ(b.q1, 12.5);
  EXPECT_DOUBLE_EQ(b.q2, 25.0);
  EXPECT_DOUBLE_EQ(b.q3, 37.5);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const Quartiles c = QuartilesExclusive({2, 1});
  EXPECT_DOUBLE_EQ(c.q1, 0.75);
  EXPECT_DOUBLE_EQ(c.q3, 2.25);
}

Table MakeTable(const std::vector<std::vector<Value>>& rows) {
  TableBuilder b({{"prod", DataType::kInt64},
                  {"state", DataType::kString},
                  {"total", DataType::kFloat64}});
  for (const auto& r : rows) b.AppendRowOrDie(r);
  return std::move(b).Finish();
}

std::vector<std::vector<Value>> Rows() {
  return {{Value::Int64(1), Value::String("NY"), Value::Float64(10.5)},
          {Value::Int64(1), Value::All(), Value::Float64(30.25)},
          {Value::Int64(2), Value::String("CA"), Value::Null()},
          {Value::All(), Value::All(), Value::Float64(1e8 / 3)}};
}

TEST(Compare, IgnoresRowOrder) {
  ExpectedTable expected(MakeTable(Rows()));
  std::vector<std::vector<Value>> shuffled = Rows();
  std::swap(shuffled[0], shuffled[3]);
  std::swap(shuffled[1], shuffled[2]);
  EXPECT_EQ(expected.Mismatch(MakeTable(shuffled)), "");
}

TEST(Compare, FloatsWithinToleranceMatch) {
  ExpectedTable expected(MakeTable(Rows()));
  std::vector<std::vector<Value>> rows = Rows();
  rows[3][2] = Value::Float64(1e8 / 3 * (1 + 1e-12));
  EXPECT_EQ(expected.Mismatch(MakeTable(rows)), "");
}

TEST(Compare, CatchesOnePerturbedCell) {
  ExpectedTable expected(MakeTable(Rows()));
  {
    std::vector<std::vector<Value>> rows = Rows();
    rows[3][2] = Value::Float64(1e8 / 3 * (1 + 1e-6));
    EXPECT_NE(expected.Mismatch(MakeTable(rows)), "");
  }
  {
    std::vector<std::vector<Value>> rows = Rows();
    rows[0][0] = Value::Int64(7);
    EXPECT_NE(expected.Mismatch(MakeTable(rows)), "");
  }
  {
    std::vector<std::vector<Value>> rows = Rows();
    rows[1][1] = Value::Null();  // ALL is not NULL
    EXPECT_NE(expected.Mismatch(MakeTable(rows)), "");
  }
  {
    std::vector<std::vector<Value>> rows = Rows();
    rows[2][2] = Value::Float64(0);  // NULL is not 0
    EXPECT_NE(expected.Mismatch(MakeTable(rows)), "");
  }
  {
    std::vector<std::vector<Value>> rows = Rows();
    rows[0][1] = Value::String("NJ");
    EXPECT_NE(expected.Mismatch(MakeTable(rows)), "");
  }
}

TEST(Compare, CatchesShapeDifferences) {
  ExpectedTable expected(MakeTable(Rows()));
  std::vector<std::vector<Value>> rows = Rows();
  rows.pop_back();
  EXPECT_NE(expected.Mismatch(MakeTable(rows)), "");
  TableBuilder b({{"prod", DataType::kInt64},
                  {"st", DataType::kString},
                  {"total", DataType::kFloat64}});
  for (const auto& r : Rows()) b.AppendRowOrDie(r);
  EXPECT_NE(expected.Mismatch(std::move(b).Finish()), "");
}

Span MakeSpan(int64_t start, int64_t end, int parent) {
  Span s;
  s.name = "x.y";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  const std::vector<Span> spans = {
      MakeSpan(0, 100, -1),
      MakeSpan(10, 30, 0),
      MakeSpan(20, 50, 0),   // overlaps the previous child: counted once
      MakeSpan(60, 70, 0),
      MakeSpan(90, 120, 0),  // runs past the parent: clipped to [90, 100]
      MakeSpan(62, 66, 3),   // grandchild: only its own parent loses time
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - (40 + 10 + 10));
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10 - 4);
  EXPECT_EQ(self[4], 30);
  EXPECT_EQ(self[5], 4);
}

TEST(Spans, RecorderNestsPerThreadAndWritesChromeTrace) {
  SpanRecorder recorder;
  {
    ScopedSpan outer(&recorder, "query", 7);
    { ScopedSpan inner(&recorder, "analyze.parse", 7); }
    { ScopedSpan inner(&recorder, "server.execute", 7); }
  }
  ScopedSpan disabled(nullptr, "ignored", 0);
  const std::vector<Span> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[2].query_id, 7);
  for (const Span& s : spans) EXPECT_LE(s.start_ns, s.end_ns);
  const std::string json = ChromeTraceJson(spans);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"analyze.parse\",\"cat\":\"analyze\""), std::string::npos);
  size_t events = 0;
  for (size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 3u);
}

/// name → unit for every metric object in one top-level array of the spec.
std::vector<std::pair<std::string, std::string>> SpecMetrics(const std::string& spec,
                                                             const std::string& key) {
  const size_t start = spec.find("\"" + key + "\"");
  EXPECT_NE(start, std::string::npos) << key;
  const size_t end = spec.find(']', start);
  const std::string section = spec.substr(start, end - start);
  static const std::regex kMetric(
      "\\{\\s*\"name\"\\s*:\\s*\"([^\"]+)\"\\s*,\\s*\"unit\"\\s*:\\s*\"([^\"]+)\"");
  std::vector<std::pair<std::string, std::string>> out;
  for (std::sregex_iterator it(section.begin(), section.end(), kMetric), last; it != last;
       ++it) {
    out.emplace_back((*it)[1], (*it)[2]);
  }
  return out;
}

void CheckCatalog(const std::vector<MetricDef>& defs, const std::string& spec,
                  const std::string& key) {
  std::set<std::string> names;
  std::vector<std::pair<std::string, std::string>> want;
  for (const MetricDef& d : defs) {
    EXPECT_TRUE(ValidMetricName(d.name)) << d.name;
    EXPECT_TRUE(ValidMetricUnit(d.unit)) << d.name << " " << d.unit;
    EXPECT_TRUE(d.better == "lower" || d.better == "higher") << d.name;
    EXPECT_TRUE(names.insert(d.name).second) << "duplicate " << d.name;
    want.emplace_back(d.name, d.unit);
  }
  EXPECT_EQ(SpecMetrics(spec, key), want) << key;
}

TEST(Metrics, CatalogueMatchesBenchmarkJson) {
  std::ifstream in(FRONTBENCH_SPEC);
  ASSERT_TRUE(in.good()) << FRONTBENCH_SPEC;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string spec = buf.str();
  CheckCatalog(EndToEndMetrics(), spec, "end_to_end");
  CheckCatalog(PerLayerMetrics(), spec, "per_layer");
  bool has_setup = false;
  for (const MetricDef& d : EndToEndMetrics()) {
    has_setup |= d.name == "setup_s" && d.unit == "s" && d.better == "lower";
  }
  EXPECT_TRUE(has_setup);
  // Names from every layer are catalogued (spot checks).
  for (const char* name : {"latency_p90_ms", "throughput_qps", "peak_rss_mb",
                           "executor.tax_ratio", "executor.profile_coverage",
                           "server.cache_rollup_frac", "core.probe_memo_hit_frac",
                           "storage.blocks_pruned_frac", "trace.overhead_frac"}) {
    bool found = false;
    for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
      for (const MetricDef& d : *defs) found |= d.name == name;
    }
    EXPECT_TRUE(found) << name;
  }
}

TEST(Calibrate, RescalesToTheReferenceSpeed) {
  // A host at half the reference speed runs the job in twice its reference
  // time; a query measured next to it is reported at half its raw time.
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(100, 2 * kReferenceJobMs), 50);
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(100, kReferenceJobMs), 100);
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(100, kReferenceJobMs / 4), 400);
}

TEST(Calibrate, HelperAnswersAndExitsWithItsOwner) {
  std::unique_ptr<ReferenceProbe> probe = ReferenceProbe::Start();
  ASSERT_NE(probe, nullptr);
  EXPECT_GT(probe->MedianMs(1, 1), 0);
  EXPECT_GT(probe->MedianMs(3, 2), 0);
  probe.reset();  // closes the socket and waits for the helper
}

TEST(Metrics, NameAndUnitRules) {
  EXPECT_TRUE(ValidMetricName("executor.MdJoin_self_ms.equi"));
  EXPECT_FALSE(ValidMetricName(".leading_dot"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricUnit("1/s"));
  EXPECT_TRUE(ValidMetricUnit("%"));
  EXPECT_FALSE(ValidMetricUnit(""));
  EXPECT_FALSE(ValidMetricUnit("seconds per query"));
}

TEST(Metrics, ResultLineEmitsEveryMetricWithItsUnit) {
  const std::vector<MetricDef> defs = {{"latency_p50_ms", "ms", "lower"},
                                       {"setup_s", "s", "lower"}};
  std::string error;
  const std::string line =
      ResultLine(true, 12, 0, defs, {{"latency_p50_ms", 1.25}, {"setup_s", 0.5}}, &error);
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
            "{\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
  EXPECT_EQ(ResultLine(true, 1, 0, defs, {{"latency_p50_ms", 1.0}}, &error), "");
  EXPECT_NE(error.find("setup_s"), std::string::npos);
  EXPECT_EQ(ResultLine(true, 1, 0, defs,
                       {{"latency_p50_ms", std::numeric_limits<double>::quiet_NaN()},
                        {"setup_s", 1.0}},
                       &error),
            "");
}

}  // namespace
}  // namespace frontbench
