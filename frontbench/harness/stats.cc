#include "harness/stats.h"

#include <algorithm>
#include <cmath>

namespace frontbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const int64_t n = static_cast<int64_t>(values.size());
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<int64_t>(rank, 1, n);
  return values[static_cast<size_t>(rank - 1)];
}

int64_t SamplesBeyond(int64_t n, double q) {
  if (n <= 0) return 0;
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(n))));
  return n - std::min(rank, n);
}

Quartiles QuartilesExclusive(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const int64_t n = static_cast<int64_t>(values.size());
  if (n < 2) {
    const double v = n == 1 ? values[0] : 0;
    return {v, v, v};
  }
  // statistics.quantiles(method="exclusive"): m = n + 1, and for i = 1..3,
  // j = floor(i·m / 4), delta = i·m − 4j, with j clamped to [1, n − 1].
  const int64_t m = n + 1;
  double out[3];
  for (int i = 1; i <= 3; ++i) {
    int64_t j = (i * m) / 4;
    j = std::clamp<int64_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m - 4 * j);
    out[i - 1] = (values[static_cast<size_t>(j - 1)] * (4 - delta) +
                  values[static_cast<size_t>(j)] * delta) /
                 4;
  }
  return {out[0], out[1], out[2]};
}

double IqrShare(const std::vector<double>& values) {
  const Quartiles q = QuartilesExclusive(values);
  return q.q2 == 0 ? 0 : (q.q3 - q.q1) / q.q2;
}

}  // namespace frontbench
