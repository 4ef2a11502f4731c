#include "obs/query_profile.h"

#include <algorithm>
#include <cstdio>

namespace mdjoin {

double OperatorProfile::qerror() const {
  if (est_rows < 0) return -1.0;
  const double est = std::max(est_rows, 1.0);
  const double act = std::max(static_cast<double>(output_rows), 1.0);
  return std::max(est / act, act / est);
}

namespace {

void AppendCount(const char* key, int64_t v, std::string* out) {
  char buf[64];
  if (v >= 10'000'000) {
    std::snprintf(buf, sizeof(buf), " %s=%.1fM", key, static_cast<double>(v) / 1e6);
  } else if (v >= 10'000) {
    std::snprintf(buf, sizeof(buf), " %s=%.1fk", key, static_cast<double>(v) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), " %s=%lld", key, static_cast<long long>(v));
  }
  *out += buf;
}

void NodeToText(const OperatorProfile& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += node.label;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "  rows=%lld total=%.3fms self=%.3fms",
                static_cast<long long>(node.output_rows), node.elapsed_ms,
                node.self_ms);
  *out += buf;
  if (node.est_rows >= 0) {
    std::snprintf(buf, sizeof(buf), " est=%.0f act=%lld qerr=%.2f",
                  node.est_rows, static_cast<long long>(node.output_rows),
                  node.qerror());
    *out += buf;
  }
  if (node.shared) *out += " shared";
  if (node.is_mdjoin) {
    AppendCount("scanned", node.detail_rows_scanned, out);
    if (node.selectivity() >= 0) {
      std::snprintf(buf, sizeof(buf), " sel=%.1f%%", node.selectivity() * 100.0);
      *out += buf;
    }
    AppendCount("pairs", node.candidate_pairs, out);
    AppendCount("matched", node.matched_pairs, out);
    AppendCount("agg_updates", node.agg_updates, out);
    if (node.passes > 1) AppendCount("passes", node.passes, out);
    if (node.blocks > 0) AppendCount("blocks", node.blocks, out);
    if (node.fused_blocks > 0) AppendCount("fused", node.fused_blocks, out);
    if (node.index_probe_lookups > 0) {
      std::snprintf(buf, sizeof(buf), " probe_hit=%.1f%%",
                    node.probe_hit_rate() * 100.0);
      *out += buf;
    }
    if (node.num_threads > 1) {
      std::snprintf(buf, sizeof(buf), " threads=%d morsels=%lld steals=%lld",
                    node.num_threads, static_cast<long long>(node.morsels),
                    static_cast<long long>(node.steal_waits));
      *out += buf;
    }
    if (node.blocks_read > 0 || node.blocks_pruned > 0) {
      std::snprintf(buf, sizeof(buf),
                    " blocks_read=%lld pruned=%lld faulted=%lld cache_hits=%lld",
                    static_cast<long long>(node.blocks_read),
                    static_cast<long long>(node.blocks_pruned),
                    static_cast<long long>(node.blocks_faulted),
                    static_cast<long long>(node.block_cache_hits));
      *out += buf;
    }
    if (node.spill_partitions > 0) {
      std::snprintf(buf, sizeof(buf), " spill_parts=%lld spill_bytes=%lld",
                    static_cast<long long>(node.spill_partitions),
                    static_cast<long long>(node.spill_bytes_written));
      *out += buf;
    }
  }
  *out += "\n";
  for (const auto& child : node.children) NodeToText(*child, depth + 1, out);
}

void AppendEscapedJson(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendKv(const char* key, int64_t v, bool* first, std::string* out) {
  char buf[64];
  if (!*first) *out += ", ";
  *first = false;
  std::snprintf(buf, sizeof(buf), "\"%s\": %lld", key, static_cast<long long>(v));
  *out += buf;
}

void AppendKvMs(const char* key, double v, bool* first, std::string* out) {
  char buf[64];
  if (!*first) *out += ", ";
  *first = false;
  std::snprintf(buf, sizeof(buf), "\"%s\": %.3f", key, v);
  *out += buf;
}

void NodeToJson(const OperatorProfile& node, std::string* out) {
  *out += "{\"operator\": \"";
  AppendEscapedJson(node.label, out);
  *out += "\", ";
  bool first = true;
  AppendKv("output_rows", node.output_rows, &first, out);
  AppendKvMs("elapsed_ms", node.elapsed_ms, &first, out);
  AppendKvMs("self_ms", node.self_ms, &first, out);
  AppendKvMs("cpu_ms", node.cpu_ms, &first, out);
  if (node.est_rows >= 0) {
    AppendKvMs("est_rows", node.est_rows, &first, out);
    AppendKvMs("qerror", node.qerror(), &first, out);
  }
  if (node.shared) *out += ", \"shared\": true";
  if (node.is_mdjoin) {
    AppendKv("detail_rows_scanned", node.detail_rows_scanned, &first, out);
    AppendKv("detail_rows_qualified", node.detail_rows_qualified, &first, out);
    AppendKv("candidate_pairs", node.candidate_pairs, &first, out);
    AppendKv("matched_pairs", node.matched_pairs, &first, out);
    AppendKv("agg_updates", node.agg_updates, &first, out);
    AppendKv("passes", node.passes, &first, out);
    AppendKv("blocks", node.blocks, &first, out);
    AppendKv("kernel_invocations", node.kernel_invocations, &first, out);
    AppendKv("index_masks", node.index_masks, &first, out);
    AppendKv("fused_blocks", node.fused_blocks, &first, out);
    AppendKv("index_probe_lookups", node.index_probe_lookups, &first, out);
    AppendKv("index_probe_memo_hits", node.index_probe_memo_hits, &first, out);
    AppendKv("morsels", node.morsels, &first, out);
    AppendKv("steal_waits", node.steal_waits, &first, out);
    AppendKv("num_threads", node.num_threads, &first, out);
    AppendKv("blocks_read", node.blocks_read, &first, out);
    AppendKv("blocks_pruned", node.blocks_pruned, &first, out);
    AppendKv("blocks_faulted", node.blocks_faulted, &first, out);
    AppendKv("block_cache_hits", node.block_cache_hits, &first, out);
    AppendKv("spill_partitions", node.spill_partitions, &first, out);
    AppendKv("spill_bytes_written", node.spill_bytes_written, &first, out);
    AppendKvMs("selectivity", node.selectivity(), &first, out);
  }
  *out += ", \"children\": [";
  bool first_child = true;
  for (const auto& child : node.children) {
    if (!first_child) *out += ", ";
    first_child = false;
    NodeToJson(*child, out);
  }
  *out += "]}";
}

}  // namespace

std::string QueryProfile::ToText() const {
  std::string out;
  if (root != nullptr) NodeToText(*root, 0, &out);
  if (!rewrites.empty()) {
    out += "rewrites:\n";
    char buf[96];
    for (const RewriteRecord& r : rewrites) {
      std::snprintf(buf, sizeof(buf), "  [%s] ", r.accepted ? "applied" : "rejected");
      out += buf;
      out += r.rule + " @ " + r.node;
      std::snprintf(buf, sizeof(buf), " (work %.0f -> %.0f)", r.cost_before,
                    r.cost_after);
      out += buf;
      if (!r.detail.empty()) out += " — " + r.detail;
      out += "\n";
    }
  }
  if (!analysis.empty()) {
    out += "static analysis:\n";
    for (const std::string& line : analysis) {
      out += "  " + line + "\n";
    }
  }
  char buf[64];
  if (max_qerror >= 0) {
    std::snprintf(buf, sizeof(buf), "max q-error: %.2f\n", max_qerror);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "terminal: %s (%.3fms)\n",
                terminal.empty() ? "ok" : terminal.c_str(), total_ms);
  out += buf;
  return out;
}

std::string QueryProfile::ToJson() const {
  std::string out = "{\"terminal\": \"";
  AppendEscapedJson(terminal.empty() ? "ok" : terminal, &out);
  out += "\", \"complete\": ";
  out += complete ? "true" : "false";
  char buf[64];
  std::snprintf(buf, sizeof(buf), ", \"total_ms\": %.3f", total_ms);
  out += buf;
  if (max_qerror >= 0) {
    std::snprintf(buf, sizeof(buf), ", \"max_qerror\": %.3f", max_qerror);
    out += buf;
  }
  out += ", \"rewrites\": [";
  bool first = true;
  for (const RewriteRecord& r : rewrites) {
    if (!first) out += ", ";
    first = false;
    out += "{\"rule\": \"";
    AppendEscapedJson(r.rule, &out);
    out += "\", \"node\": \"";
    AppendEscapedJson(r.node, &out);
    out += "\", \"accepted\": ";
    out += r.accepted ? "true" : "false";
    std::snprintf(buf, sizeof(buf), ", \"cost_before\": %.0f, \"cost_after\": %.0f",
                  r.cost_before, r.cost_after);
    out += buf;
    out += ", \"detail\": \"";
    AppendEscapedJson(r.detail, &out);
    out += "\"}";
  }
  out += "], \"analysis\": [";
  first = true;
  for (const std::string& line : analysis) {
    if (!first) out += ", ";
    first = false;
    out += "\"";
    AppendEscapedJson(line, &out);
    out += "\"";
  }
  out += "], \"plan\": ";
  if (root != nullptr) {
    NodeToJson(*root, &out);
  } else {
    out += "null";
  }
  out += "}\n";
  return out;
}

}  // namespace mdjoin
