// The event-vs-full differential check shared by the event-driven and
// fault-injection suites: one event-driven and one full sweep over the
// same guests must report the same thing run for run.
//
// Timing fields (wall_ns / cpu_ns) and the fastpath pair counters are
// zeroed before comparing JSON: the incremental scanner deliberately pays
// a different simulated cost and comparisons of cached parses bypass the
// fastpath counters; everything the operator alerts on — verdicts,
// quorum, quarantine, faults, module identity — must match byte for byte.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "modchecker/pipeline.hpp"
#include "modchecker/report_json.hpp"
#include "service/report.hpp"

namespace mc::testutil {

/// Serializes a pool scan with the non-semantic fields zeroed.
inline std::string normalized_json(core::PoolScanReport report) {
  report.wall_time = 0;
  report.cpu_times = core::ComponentTimes{};
  report.fastpath_pairs = 0;
  report.fallback_pairs = 0;
  return core::to_json(report);
}

/// The runs of one event-driven and one full sweep, indexed by run.
struct SweepRuns {
  std::vector<const service::SweepReport*> event;
  std::vector<const service::SweepReport*> full;
};

/// Picks the two sweeps' runs out of a sink's reports (other sweeps'
/// reports are ignored).  The pointers borrow from `reports`.
inline SweepRuns index_runs(const std::vector<service::SweepReport>& reports,
                            service::SweepId event_id,
                            service::SweepId full_id, std::size_t runs) {
  SweepRuns indexed{std::vector<const service::SweepReport*>(runs),
                    std::vector<const service::SweepReport*>(runs)};
  for (const service::SweepReport& report : reports) {
    if (report.run_index >= runs) {
      continue;
    }
    if (report.id == event_id) {
      indexed.event[report.run_index] = &report;
    } else if (report.id == full_id) {
      indexed.full[report.run_index] = &report;
    }
  }
  return indexed;
}

/// Every run exists on both sides and agrees: findings, quarantine list,
/// pool exhaustion, and each module scan's normalized JSON.
inline void expect_runs_identical(const SweepRuns& runs) {
  ASSERT_EQ(runs.event.size(), runs.full.size());
  for (std::size_t r = 0; r < runs.full.size(); ++r) {
    ASSERT_NE(runs.event[r], nullptr) << "run " << r;
    ASSERT_NE(runs.full[r], nullptr) << "run " << r;
    const service::SweepReport& event = *runs.event[r];
    const service::SweepReport& full = *runs.full[r];
    EXPECT_EQ(event.quarantined, full.quarantined) << "run " << r;
    EXPECT_EQ(event.pool_exhausted, full.pool_exhausted) << "run " << r;
    ASSERT_EQ(event.findings.size(), full.findings.size()) << "run " << r;
    for (std::size_t f = 0; f < full.findings.size(); ++f) {
      EXPECT_EQ(event.findings[f].vm, full.findings[f].vm) << "run " << r;
      EXPECT_EQ(event.findings[f].module, full.findings[f].module)
          << "run " << r;
    }
    ASSERT_EQ(event.scans.size(), full.scans.size()) << "run " << r;
    for (std::size_t m = 0; m < full.scans.size(); ++m) {
      EXPECT_EQ(normalized_json(event.scans[m]), normalized_json(full.scans[m]))
          << "run " << r << " module " << m;
    }
  }
}

}  // namespace mc::testutil
