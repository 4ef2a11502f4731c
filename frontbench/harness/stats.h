#ifndef FRONTBENCH_HARNESS_STATS_H_
#define FRONTBENCH_HARNESS_STATS_H_

#include <cstdint>
#include <vector>

namespace frontbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
double Median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least q·n samples at
/// or below it, q in (0, 1]. 0 for an empty input.
double Percentile(std::vector<double> values, double q);

/// Samples strictly beyond the nearest-rank q-percentile: n − ceil(q·n). A
/// percentile is reported only when this is at least kMinTailSamples.
int64_t SamplesBeyond(int64_t n, double q);
constexpr int64_t kMinTailSamples = 10;

/// First, second and third quartile by the same "exclusive" rule as Python's
/// statistics.quantiles(values, n=4). Requires at least two values.
struct Quartiles {
  double q1 = 0;
  double q2 = 0;
  double q3 = 0;
};
Quartiles QuartilesExclusive(std::vector<double> values);

/// (q3 − q1) / q2 of QuartilesExclusive: the run-to-run spread the
/// benchmark's bounds are judged against. 0 when the median is 0.
double IqrShare(const std::vector<double>& values);

}  // namespace frontbench

#endif  // FRONTBENCH_HARNESS_STATS_H_
