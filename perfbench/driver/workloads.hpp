// The three workloads.  Each builds its clouds from the seed, measures
// for Options::seconds and checks every verdict against the seeded
// ground truth.  With Options::trace unset they fill the end-to-end
// metrics; with it set, a short plain phase followed by a traced phase
// fills the per-layer metrics and records its spans into `rec`.
#pragma once

#include "common.hpp"

namespace perfbench {

Result run_full_sweep(const Options& opt, SpanRecorder& rec);
Result run_event_ticks(const Options& opt, SpanRecorder& rec);
Result run_fleet_drain(const Options& opt, SpanRecorder& rec);

}  // namespace perfbench
