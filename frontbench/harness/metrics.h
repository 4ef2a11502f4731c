#ifndef FRONTBENCH_HARNESS_METRICS_H_
#define FRONTBENCH_HARNESS_METRICS_H_

#include <map>
#include <string>
#include <vector>

namespace frontbench {

/// One metric the benchmark prints. BENCHMARK.json lists the same names and
/// units (the self-test checks that the two agree).
struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  // "lower" or "higher"
};

/// Printed by every untraced run (--trace 0).
const std::vector<MetricDef>& EndToEndMetrics();
/// Printed by every traced run (--trace 1).
const std::vector<MetricDef>& PerLayerMetrics();

/// Names: a letter or digit first, then up to 64 of [A-Za-z0-9_.-].
bool ValidMetricName(const std::string& name);
/// Units: 1 to 16 of [A-Za-z0-9_/%.-].
bool ValidMetricUnit(const std::string& unit);

/// The final stdout line: {"correct", "attempted", "failed", "metrics"} with
/// one {"value", "unit"} object per def, values printed with all 17
/// significant digits. Returns an empty string, and names the problem in
/// *error, when a def has no value or a value is not finite.
std::string ResultLine(bool correct, long long attempted, long long failed,
                       const std::vector<MetricDef>& defs,
                       const std::map<std::string, double>& values, std::string* error);

/// JSON string literal (quoted, escaped).
std::string JsonString(const std::string& s);
/// JSON number with 17 significant digits; "null" when not finite.
std::string JsonNumber(double v);

}  // namespace frontbench

#endif  // FRONTBENCH_HARNESS_METRICS_H_
