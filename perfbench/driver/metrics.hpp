// Metric math shared by every workload: percentiles with the
// ten-samples-beyond rule, ratios that state their base, and self time of
// a span whose children may overlap.  Header-only so the unit test in
// perfbench/tests links nothing but this file.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Minimum number of samples that must lie beyond a reported tail
/// percentile; with fewer, the percentile is a guess, not a measurement.
inline constexpr std::size_t kMinBeyond = 10;

/// A percentile together with the sample count it was taken from.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
  /// Samples strictly above the rank the value was read at.
  std::size_t beyond = 0;
  /// True when at least kMinBeyond samples lie beyond the value.
  bool supported = false;
};

/// Nearest-rank position (1-based) of quantile `q` in `n` sorted samples.
inline std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) {
    return 0;
  }
  const double raw = std::ceil(q * static_cast<double>(n) - 1e-9);
  const auto rank = static_cast<std::size_t>(std::max(1.0, raw));
  return std::min(rank, n);
}

/// Nearest-rank percentile of `values` (q in (0, 1]).  An empty input
/// yields an unsupported zero.
inline Quantile percentile(std::vector<double> values, double q) {
  Quantile out;
  out.samples = values.size();
  if (values.empty()) {
    return out;
  }
  const std::size_t rank = nearest_rank(values.size(), q);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  out.value = values[rank - 1];
  out.beyond = values.size() - rank;
  out.supported = out.beyond >= kMinBeyond;
  return out;
}

/// Smallest sample count for which quantile `q` has kMinBeyond samples
/// beyond it (1000 for the 99th percentile).
inline std::size_t samples_needed(double q) {
  std::size_t n = kMinBeyond;
  while (n - nearest_rank(n, q) < kMinBeyond) {
    ++n;
  }
  return n;
}

/// `num / den`, or 0 when the base is 0 (nothing attempted).  Callers
/// report the base beside the ratio so a zero base is visible.
inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Half-open time interval [start, end) in nanoseconds.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Length of the union of `parts` clipped to `within`.  Overlapping parts
/// (children running on several threads) are counted once.
inline std::int64_t covered(std::vector<Interval> parts, Interval within) {
  for (Interval& p : parts) {
    p.start = std::max(p.start, within.start);
    p.end = std::min(p.end, within.end);
  }
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::int64_t total = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (const Interval& p : parts) {
    if (p.end <= p.start) {
      continue;
    }
    if (open && p.start <= run_end) {
      run_end = std::max(run_end, p.end);
      continue;
    }
    if (open) {
      total += run_end - run_start;
    }
    run_start = p.start;
    run_end = p.end;
    open = true;
  }
  if (open) {
    total += run_end - run_start;
  }
  return total;
}

/// Self time of a span: its duration minus the part of it its children
/// cover.
inline std::int64_t self_time(Interval span,
                              const std::vector<Interval>& children) {
  return (span.end - span.start) - covered(children, span);
}

}  // namespace perfbench
