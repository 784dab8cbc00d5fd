#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

Distribution distribution(const std::vector<double>& values) {
  Distribution d;
  d.count = values.size();
  d.p50 = percentile(values, 0.5);
  d.p90 = percentile(values, 0.9);
  d.p90_resolved = d.count >= 100;
  return d;
}

}  // namespace perfbench
