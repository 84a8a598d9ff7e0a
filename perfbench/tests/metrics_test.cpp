// Unit tests for the benchmark's metric math (driver/metrics.hpp):
// nearest-rank percentiles with the ten-samples-beyond rule, ratios with
// a zero base, and self time with overlapping children.
//
// Build and run: cmake --build <dir> --target perfbench_metrics_test &&
// <dir>/perfbench_metrics_test   (also registered with ctest).
#include <cstdio>
#include <vector>

#include "metrics.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) {  // descending: percentile must sort
    v.push_back(static_cast<double>(i));
  }
  return v;
}

void percentile_tests() {
  using perfbench::percentile;
  const auto p50 = percentile(one_to(10), 0.5);
  expect(p50.value == 5.0, "median of 1..10 is the 5th value");
  expect(p50.samples == 10 && p50.beyond == 5, "median sample bookkeeping");

  const auto p99_small = percentile(one_to(999), 0.99);
  expect(p99_small.value == 990.0, "p99 of 1..999 is rank 990");
  expect(p99_small.beyond == 9 && !p99_small.supported,
         "p99 of 999 samples has only 9 beyond: unsupported");

  const auto p99 = percentile(one_to(1000), 0.99);
  expect(p99.value == 990.0, "p99 of 1..1000 is rank 990");
  expect(p99.beyond == 10 && p99.supported,
         "p99 of 1000 samples has exactly 10 beyond: supported");

  expect(perfbench::samples_needed(0.99) == 1000, "p99 needs 1000 samples");
  expect(perfbench::samples_needed(0.5) == 20, "p50 needs 20 samples");

  const auto empty = percentile({}, 0.5);
  expect(empty.samples == 0 && !empty.supported && empty.value == 0.0,
         "empty input is an unsupported zero");
  const auto single = percentile({7.0}, 0.99);
  expect(single.value == 7.0 && single.beyond == 0, "single sample");
}

void ratio_tests() {
  using perfbench::ratio;
  expect(ratio(3.0, 4.0) == 0.75, "plain ratio");
  expect(ratio(0.0, 0.0) == 0.0, "0/0 reads 0");
  expect(ratio(5.0, 0.0) == 0.0, "x/0 reads 0");
}

void self_time_tests() {
  using perfbench::Interval;
  using perfbench::self_time;
  expect(self_time({0, 100}, {}) == 100, "no children: all self");
  expect(self_time({0, 100}, {{10, 20}, {30, 50}}) == 70,
         "disjoint children subtract their sum");
  expect(self_time({0, 100}, {{10, 40}, {30, 60}}) == 50,
         "overlapping children count their union once");
  expect(self_time({0, 100}, {{10, 60}, {20, 30}}) == 50,
         "a nested child adds nothing");
  expect(self_time({0, 100}, {{-20, 10}, {90, 150}}) == 80,
         "children are clipped to the parent");
  expect(self_time({0, 100}, {{0, 100}, {0, 100}}) == 0,
         "fully covered parent has no self time");
  expect(self_time({0, 100}, {{40, 40}, {70, 60}}) == 100,
         "empty and inverted children cover nothing");
}

}  // namespace

int main() {
  percentile_tests();
  ratio_tests();
  self_time_tests();
  if (failures != 0) {
    std::fprintf(stderr, "%d metric test(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench metric tests passed\n");
  return 0;
}
