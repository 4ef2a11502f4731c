#include "harness/metrics.h"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace frontbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"latency_p50_ms", "ms", "lower"},
      {"latency_p90_ms", "ms", "lower"},
      {"equi_p50_ms", "ms", "lower"},
      {"pivot_p50_ms", "ms", "lower"},
      {"range_p50_ms", "ms", "lower"},
      {"throughput_qps", "1/s", "higher"},
      // The complement of failed_frac (errors, sheds and wrong results over
      // attempted): an end-to-end metric must never read 0, and failed_frac
      // reads 0 on a healthy run.
      {"correct_frac", "fraction", "higher"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"analyze.parse_us", "us", "lower"},
        {"analyze.bind_us", "us", "lower"},
        {"optimizer.optimize_us", "us", "lower"},
        {"optimizer.rewrites_applied", "count", "higher"},
        {"executor.equi_ms", "ms", "lower"},
        {"executor.pivot_ms", "ms", "lower"},
        {"executor.range_ms", "ms", "lower"},
        {"executor.tax_ratio", "ratio", "lower"},
        {"executor.rows_materialized", "count", "lower"},
        {"executor.profile_coverage", "ratio", "higher"},
    };
    // Per-node self times from EXPLAIN ANALYZE, for the nodes that occur in
    // each class's plan (a node absent from a plan would read 0 every run).
    const std::vector<std::pair<const char*, std::vector<const char*>>> nodes = {
        {"equi", {"TableRef", "CubeBase", "Project", "MdJoin"}},
        {"pivot", {"TableRef", "Project", "Distinct", "GeneralizedMdJoin"}},
        {"range", {"TableRef", "Filter", "Project", "Distinct", "MdJoin"}},
    };
    for (const auto& [cls, kinds] : nodes) {
      for (const char* kind : kinds) {
        d.push_back({std::string("executor.") + kind + "_self_ms." + cls, "ms", "lower"});
      }
    }
    const std::vector<MetricDef> rest = {
        {"server.overhead_ms.equi", "ms", "lower"},
        {"server.overhead_ms.pivot", "ms", "lower"},
        {"server.overhead_ms.range", "ms", "lower"},
        {"server.cache_hit_frac", "fraction", "higher"},
        {"server.cache_rollup_frac", "fraction", "higher"},
        {"server.cache_miss_frac", "fraction", "lower"},
        {"server.cache_evictions", "count", "lower"},
        {"table.bytes_per_row", "B/row", "lower"},
        {"table.clone_ms", "ms", "lower"},
        {"cube.cube_base_ms", "ms", "lower"},
        {"core.equi_bare_ms", "ms", "lower"},
        {"core.equi_cold_ms", "ms", "lower"},
        {"core.pivot_bare_ms", "ms", "lower"},
        {"core.detail_rows_scanned", "count", "lower"},
        {"core.candidate_pairs", "count", "lower"},
        {"core.matched_pairs", "count", "lower"},
        {"core.probe_memo_hit_frac", "fraction", "higher"},
        {"core.fused_blocks", "count", "higher"},
        {"storage.block_hit_frac", "fraction", "higher"},
        {"storage.blocks_faulted_per_query", "blocks/query", "lower"},
        {"storage.evictions", "count", "lower"},
        {"storage.streamed_frac", "fraction", "higher"},
        {"storage.range_bare_ms", "ms", "lower"},
        {"storage.blocks_pruned_frac", "fraction", "higher"},
        {"trace.overhead_frac", "fraction", "lower"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 || !std::isalnum(static_cast<unsigned char>(name[0]))) {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

bool ValidMetricUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '/' && c != '%' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultLine(bool correct, long long attempted, long long failed,
                       const std::vector<MetricDef>& defs,
                       const std::map<std::string, double>& values, std::string* error) {
  std::string metrics;
  for (const MetricDef& def : defs) {
    auto it = values.find(def.name);
    if (it == values.end()) {
      *error = "metric " + def.name + " was not measured";
      return "";
    }
    if (!std::isfinite(it->second)) {
      *error = "metric " + def.name + " is not finite";
      return "";
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(def.name) + ": {\"value\": " + JsonNumber(it->second) +
               ", \"unit\": " + JsonString(def.unit) + "}";
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + metrics + "}}";
}

}  // namespace frontbench
