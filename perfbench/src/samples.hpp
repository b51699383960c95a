// Order statistics over raw samples. fsdl::Summary keeps every sample and
// gives exact nearest-rank percentiles (no histogram buckets: a bucket edge
// cannot resolve the 10-20% moves the benchmark exists to show).
#pragma once

#include <cstddef>

#include "util/stats.hpp"

namespace fsdl::perfbench {

/// Nearest-rank percentile of `samples`, p in [0, 100]; 0 when empty.
inline double percentile_or_zero(const Summary& samples, double p) {
  return samples.empty() ? 0.0 : samples.percentile(p);
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples above it (0 when even the median does not).
inline double highest_supported_percentile(std::size_t samples) {
  for (double p : {99.99, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 0.0;
}

}  // namespace fsdl::perfbench
