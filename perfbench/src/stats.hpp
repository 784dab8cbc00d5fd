#pragma once

// Order statistics for the benchmark's timing samples.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Percentile of `values` by linear interpolation between closest ranks
/// (the "inclusive" method: q=0 is the minimum, q=1 the maximum). Returns
/// 0 for an empty sample. `values` need not be sorted.
double percentile(std::vector<double> values, double q);

double median(const std::vector<double>& values);

/// A timing distribution as the benchmark reports it: the median, the
/// 90th percentile and the sample count. `p90_resolved` is true when at
/// least ten samples lie beyond the 90th percentile (n >= 100), the
/// smallest sample for which that percentile is more than a few outliers.
struct Distribution {
  std::size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  bool p90_resolved = false;
};
Distribution distribution(const std::vector<double>& values);

}  // namespace perfbench
