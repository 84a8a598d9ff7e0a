// Shared plumbing for the three workloads: options, the result record,
// seeded input generation, guest-memory helpers, registry counter deltas
// and the ground-truth verdict check.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cloud/environment.hpp"
#include "cloud/linux.hpp"
#include "metrics.hpp"
#include "modchecker/pipeline.hpp"
#include "spans.hpp"

namespace perfbench {

using mc::vmm::DomainId;
using Clock = std::chrono::steady_clock;

/// Pool size of every workload: the paper's t=15.
inline constexpr std::size_t kPoolSize = 15;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".";
};

/// Share of a traced run spent in its plain phase (counters, reference
/// verdicts and the plain throughput the tracing overhead is taken over).
inline constexpr double kPlainShare = 0.3;

/// Seconds of a run's plain (untraced) phase.
inline double plain_seconds(const Options& opt) {
  return opt.trace ? opt.seconds * kPlainShare : opt.seconds;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the ground-truth tally, its
/// metrics, and human-readable notes (sample counts and the like) that
/// are printed before the result line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when a check other than a verdict failed (for instance the
  /// staged replay disagreeing with pool_scan, or a tail percentile with
  /// fewer than ten samples beyond it).
  bool checks_passed = true;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records a percentile and fails the run if its tail is unsupported.
  void set_quantile(const std::string& name, const Quantile& q,
                    const std::string& unit, bool is_tail);
};

/// Seconds elapsed since `t0` on the steady clock.
inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Independent sub-seed for one purpose (`salt`) of a workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Seeded generator for the benchmark's inputs.  Uses only the engine's
/// raw output, so the same seed gives the same inputs on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return engine_() % n; }
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Median over repeated set-ups: calls `build()` `reps` times, timing
/// each call, and keeps the last fixture in `keep` (which must be empty).
/// Earlier fixtures are torn down outside the timed region.
template <typename Fixture, typename Build>
double median_setup_s(std::size_t reps, Build&& build, Fixture& keep) {
  std::vector<double> times;
  for (std::size_t i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    Fixture fixture = build();
    times.push_back(since(t0));
    if (i + 1 == reps) {
      keep = std::move(fixture);
    }
  }
  return percentile(std::move(times), 0.5).value;
}

// ---- guests ----------------------------------------------------------------

/// Image-relative byte range of a module's first code section.
struct TextRange {
  std::uint32_t rva = 0;
  std::uint32_t size = 0;
};

/// Code range of a loaded PE module, read from the guest's mapped image.
TextRange pe_text(mc::cloud::CloudEnvironment& env, DomainId vm,
                  const std::string& module);
/// Code range of a .ko module, read from its golden file.
TextRange elf_text(const mc::cloud::LinuxEnvironment& env,
                   const std::string& module);

/// Reads/writes one byte of a Linux guest's kernel address space.
std::uint8_t elf_read_byte(mc::cloud::LinuxEnvironment& env, DomainId vm,
                           std::uint32_t va);
void elf_write_byte(mc::cloud::LinuxEnvironment& env, DomainId vm,
                    std::uint32_t va, std::uint8_t value);

/// Flips one byte (XOR 0xFF) at `rva` of a loaded PE module through the
/// in-guest writer; returns the original byte.
std::uint8_t pe_flip_byte(mc::cloud::CloudEnvironment& env, DomainId vm,
                          const std::string& module, std::uint32_t rva);

// ---- ground truth ------------------------------------------------------------

/// Checks a pool scan against ground truth: a VM must be flagged exactly
/// when it is in `infected`; a VM may be quarantined (no verdict) only if
/// it is in `may_quarantine`.  Returns the number of wrong verdicts.
std::size_t verdict_errors(const mc::core::PoolScanReport& report,
                           const std::set<DomainId>& infected,
                           const std::set<DomainId>& may_quarantine = {});

/// True when `a` and `b` carry the same verdict for every VM.
bool same_verdicts(const std::vector<mc::core::PoolVmVerdict>& a,
                   const std::vector<mc::core::PoolVmVerdict>& b);

// ---- registry counters -------------------------------------------------------

/// Snapshot of every counter of the process-wide metric registry.
class Counters {
 public:
  static Counters take();
  /// `after - before` for one counter (0 if absent in both).
  static std::uint64_t delta(const Counters& before, const Counters& after,
                             const std::string& name);

 private:
  std::map<std::string, std::uint64_t> values_;
};

/// Simulated component split of a set of scans, ms per scan.  With a
/// `limit`, only the first `limit` scans count, so that a time-bounded
/// loop still reports simulated figures that repeat exactly for a seed.
struct SimSplit {
  std::size_t limit = ~std::size_t{0};
  mc::SimNanos searcher = 0;
  mc::SimNanos parser = 0;
  mc::SimNanos checker = 0;
  mc::SimNanos wall = 0;
  std::size_t scans = 0;  // scans behind the simulated sums (<= limit)
  /// Every scan added, with its fast-path and fallback pairs.
  std::size_t seen = 0;
  std::size_t fastpath_pairs = 0;
  std::size_t fallback_pairs = 0;

  void add(const mc::core::PoolScanReport& r) {
    ++seen;
    fastpath_pairs += r.fastpath_pairs;
    fallback_pairs += r.fallback_pairs;
    if (scans == limit) {
      return;
    }
    searcher += r.cpu_times.searcher;
    parser += r.cpu_times.parser;
    checker += r.cpu_times.checker;
    wall += r.wall_time;
    ++scans;
  }
  double per_scan_ms(mc::SimNanos v) const {
    return ratio(static_cast<double>(v) / 1e6, static_cast<double>(scans));
  }
};

/// Per-layer metrics every traced run derives the same way: registry
/// counter deltas over the plain phase (`before`..`after`, whose scans
/// `sim` holds), the simulated split and fast-path share of those scans,
/// and the per-layer self time of the traced phase's spans per root
/// operation (`ops`).
void set_common_layer_metrics(Result& result, const Counters& before,
                              const Counters& after, const SimSplit& sim,
                              const SpanRecorder& spans, double ops);

}  // namespace perfbench
