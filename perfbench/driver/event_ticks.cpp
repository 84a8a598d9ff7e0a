// event_ticks — writes beside reads.
//
// One client in a closed loop drives one IncrementalScanner over a t=15
// PE pool, scanning http.sys and hal.dll every tick.  Each tick first
// applies benign write weather (every dirtied byte is rewritten with its
// current value through GuestMemoryWriter: the frame goes dirty, the
// content stays clean), then scans.  The dirty fraction of a tick is drawn
// from a fixed mix of the watched pages, shuffled per block of 20 ticks:
// 5 ticks at 0%, 12 at 1%, 2 at 10% and 1 at 100%, so the median scan is
// a 1%-dirty one and the 99th percentile a 100%-dirty one on every seed.
// (A clean scan takes 12-20 us; over ten seeds on a shared host the median
// clean scan spread by up to 0.22 of its value, a 1%-dirty one by 0.12.)
// Every kPatchEvery-th tick instead flips one .text byte at a seeded
// offset (one patch in five on the reference VM, the pool's first guest),
// which the scan must flag on that VM alone; the next tick reverts it.  Here WriteWatch, dirty
// re-reads and CanonicalPool::update do the work, and hashing and parsing
// do little on clean ticks.  The median shows the low-dirty ticks and the
// 99th percentile the 100%-dirty ones.
//
// The traced run also scans each module with a fresh ModChecker after
// every incremental scan, on the same guest state, for the
// incremental-versus-fresh ratios.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "attacks/guest_writer.hpp"
#include "modchecker/incremental.hpp"
#include "modchecker/modchecker.hpp"
#include "vmm/phys_mem.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = mc::core;

const std::array<const char*, 2> kModules = {"http.sys", "hal.dll"};
constexpr std::size_t kSetupReps = 9;
/// Simulated figures are taken over the first 8000 ticks (80 patches).
constexpr std::size_t kSimScans = 16000;
/// Patch scans (exact fallback for the infected copy) are slower than
/// 100%-dirty scans; one tick in 100 keeps them under 1% of all scans, so
/// the 99th percentile stays inside the 100%-dirty scans.
constexpr std::size_t kPatchEvery = 100;
/// Patches cycle through five placements: three in http.sys on a seeded
/// non-reference guest, one in hal.dll on such a guest, and one in
/// http.sys on the reference VM.  The fixed cycle keeps each group's share
/// of the detection samples the same on every seed.
struct PatchSlot {
  std::size_t module;
  bool reference;
};
constexpr std::array<PatchSlot, 5> kPatchCycle = {{
    {0, false}, {0, false}, {1, false}, {0, false}, {0, true}}};

/// Dirty classes: share of the watched pages written in one tick, and how
/// many ticks of a 20-tick block draw it.
struct DirtyClass {
  const char* label;
  double fraction;
  std::size_t per_block;
};
constexpr std::array<DirtyClass, 4> kClasses = {{
    {"d0", 0.0, 5},
    {"d1", 0.01, 12},
    {"d10", 0.10, 2},
    {"d100", 1.0, 1},
}};
constexpr std::size_t kNoClass = kClasses.size();  // a patch tick

struct Placement {
  DomainId vm = 0;
  std::size_t module = 0;
  std::uint32_t base = 0;
  std::uint32_t size = 0;
};

struct Fixture {
  std::unique_ptr<mc::cloud::CloudEnvironment> env;
  std::unique_ptr<core::IncrementalScanner> scanner;
  /// Every watched (guest, module) with its page count.
  std::vector<Placement> placements;
  std::vector<std::uint64_t> page_prefix;  // prefix sums of pages
  std::uint64_t watched_pages = 0;
  std::array<TextRange, kModules.size()> text{};
  double env_build_ms = 0.0;
};

Fixture build(std::uint64_t seed) {
  Fixture fx;
  const Clock::time_point t0 = Clock::now();
  mc::cloud::CloudConfig cfg;
  cfg.guest_count = kPoolSize;
  cfg.base_seed = derive_seed(seed, 11);
  fx.env = std::make_unique<mc::cloud::CloudEnvironment>(cfg);
  fx.env_build_ms = ms_between(t0, Clock::now());
  fx.scanner = std::make_unique<core::IncrementalScanner>(fx.env->hypervisor());
  for (const DomainId vm : fx.env->guests()) {
    for (std::size_t m = 0; m < kModules.size(); ++m) {
      const auto* rec = fx.env->loader(vm).find(kModules[m]);
      if (rec == nullptr) {
        throw std::runtime_error(std::string("not loaded: ") + kModules[m]);
      }
      fx.placements.push_back({vm, m, rec->base, rec->size_of_image});
      fx.page_prefix.push_back(fx.watched_pages);
      fx.watched_pages +=
          (rec->size_of_image + mc::vmm::kFrameSize - 1) / mc::vmm::kFrameSize;
    }
  }
  for (std::size_t m = 0; m < kModules.size(); ++m) {
    fx.text[m] = pe_text(*fx.env, fx.env->guests().front(), kModules[m]);
  }
  for (const char* module : kModules) {  // the cold warm-up scans
    (void)fx.scanner->scan(module, fx.env->guests());
  }
  return fx;
}

/// Per-tick accounting shared by the plain and traced loops.
struct Loop {
  std::vector<double> scan_ms;
  std::vector<double> tick_ms;
  std::vector<double> detect_ms;
  SimSplit sim;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ticks = 0;
  std::uint64_t writes = 0;
  double write_ns = 0.0;
  // Traced only: per dirty class, summed incremental and fresh scan ns.
  std::array<double, kClasses.size()> incr_ns{};
  std::array<double, kClasses.size()> fresh_ns{};
  std::array<std::uint64_t, kClasses.size()> class_scans{};
  std::int64_t fresh_total_ns = 0;
};

class Driver {
 public:
  Driver(Fixture& fx, std::uint64_t seed)
      : fx_(&fx), rng_(derive_seed(seed, 12)), fresh_(fx.env->hypervisor()) {}

  /// One tick; `rec` null in the plain loop.
  void tick(Loop& loop, SpanRecorder* rec) {
    const std::uint64_t op = ++tick_no_;
    const Clock::time_point start = Clock::now();
    const std::uint32_t root =
        rec != nullptr ? rec->open("bench.tick", 0, op) : 0;

    std::size_t cls = kNoClass;
    const std::int64_t w0 = rec != nullptr ? rec->now() : 0;
    if (patch_active_) {
      revert();
    }
    Clock::time_point patch_done{};
    if (op % kPatchEvery == 0) {
      patch();
      patch_done = Clock::now();
      if (rec != nullptr) {
        rec->add("vmm.patch", w0, rec->now(), root, op);
      }
    } else {
      cls = next_class();
      weather(kClasses[cls].fraction, loop);
      if (rec != nullptr) {
        rec->add("vmm.weather", w0, rec->now(), root, op);
      }
    }

    for (std::size_t m = 0; m < kModules.size(); ++m) {
      const std::int64_t s0 = rec != nullptr ? rec->now() : 0;
      const Clock::time_point t0 = Clock::now();
      core::PoolScanReport report =
          fx_->scanner->scan(kModules[m], fx_->env->guests());
      const Clock::time_point t1 = Clock::now();
      const double ms = ms_between(t0, t1);
      loop.scan_ms.push_back(ms);
      loop.sim.add(report);
      std::set<DomainId> infected;
      if (patch_active_ && patch_.module == m) {
        infected.insert(patch_.vm);
        for (const core::PoolVmVerdict& v : report.verdicts) {
          if (v.vm == patch_.vm && !v.clean) {
            loop.detect_ms.push_back(ms_between(patch_done, t1));
          }
        }
      }
      ++loop.attempted;
      loop.failed += verdict_errors(report, infected) == 0 ? 0u : 1u;
      if (rec == nullptr) {
        continue;
      }
      const std::int64_t s1 = rec->now();
      rec->add("incremental.scan", s0, s1, root, op);
      const std::int64_t f0 = rec->now();
      const core::PoolScanReport fresh =
          fresh_.scan_pool(kModules[m], fx_->env->guests());
      const std::int64_t f1 = rec->now();
      rec->add("modchecker.fresh_scan", f0, f1, root, op);
      loop.fresh_total_ns += f1 - f0;
      // The incremental scanner must agree with a fresh scan.
      ++loop.attempted;
      loop.failed += same_verdicts(report.verdicts, fresh.verdicts) ? 0u : 1u;
      if (cls != kNoClass) {
        loop.incr_ns[cls] += static_cast<double>(s1 - s0);
        loop.fresh_ns[cls] += static_cast<double>(f1 - f0);
        ++loop.class_scans[cls];
      }
    }
    if (rec != nullptr) {
      rec->close(root);
    }
    loop.tick_ms.push_back(ms_between(start, Clock::now()));
    ++loop.ticks;
  }

 private:
  std::size_t next_class() {
    if (block_.empty()) {
      for (std::size_t c = 0; c < kClasses.size(); ++c) {
        block_.insert(block_.end(), kClasses[c].per_block, c);
      }
      std::shuffle(block_.begin(), block_.end(), rng_.engine());
    }
    const std::size_t c = block_.back();
    block_.pop_back();
    return c;
  }

  /// Rewrites `fraction` of the watched pages (at least one page when the
  /// fraction is non-zero), each picked page once, with their current
  /// bytes.  At 100% every watched page is rewritten.
  void weather(double fraction, Loop& loop) {
    if (fraction <= 0.0) {
      return;
    }
    const std::uint64_t total = fx_->watched_pages;
    const auto pages = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(
            std::llround(fraction * static_cast<double>(total))),
        1, total);
    if (order_.size() != total) {
      order_.resize(total);
      for (std::uint64_t i = 0; i < total; ++i) {
        order_[i] = i;
      }
    }
    for (std::uint64_t i = 0; i < pages; ++i) {  // partial Fisher-Yates
      std::swap(order_[i], order_[i + rng_.below(total - i)]);
      const std::uint64_t page = order_[i];
      const auto slot = static_cast<std::size_t>(
          std::upper_bound(fx_->page_prefix.begin(), fx_->page_prefix.end(),
                           page) -
          fx_->page_prefix.begin() - 1);
      const Placement& pl = fx_->placements[slot];
      const std::uint64_t offset = std::min<std::uint64_t>(
          (page - fx_->page_prefix[slot]) * mc::vmm::kFrameSize, pl.size - 1);
      const std::uint32_t va = pl.base + static_cast<std::uint32_t>(offset);
      mc::attacks::GuestMemoryWriter writer(*fx_->env, pl.vm);
      const mc::Bytes current = writer.read(va, 1);
      const Clock::time_point t0 = Clock::now();
      writer.write(va, mc::ByteView(current));
      loop.write_ns += std::chrono::duration<double, std::nano>(
                           Clock::now() - t0)
                           .count();
      ++loop.writes;
    }
  }

  void patch() {
    const std::vector<DomainId>& guests = fx_->env->guests();
    const PatchSlot& slot = kPatchCycle[patches_++ % kPatchCycle.size()];
    patch_.vm = slot.reference ? guests.front()
                               : guests[1 + rng_.below(guests.size() - 1)];
    patch_.module = slot.module;
    const TextRange& text = fx_->text[patch_.module];
    patch_.rva = text.rva + static_cast<std::uint32_t>(rng_.below(text.size));
    patch_.original =
        pe_flip_byte(*fx_->env, patch_.vm, kModules[patch_.module], patch_.rva);
    patch_active_ = true;
  }

  void revert() {
    const auto* rec = fx_->env->loader(patch_.vm).find(kModules[patch_.module]);
    mc::attacks::GuestMemoryWriter writer(*fx_->env, patch_.vm);
    writer.write(rec->base + patch_.rva, mc::ByteView(&patch_.original, 1));
    patch_active_ = false;
  }

  struct Patch {
    DomainId vm = 0;
    std::size_t module = 0;
    std::uint32_t rva = 0;
    std::uint8_t original = 0;
  };

  Fixture* fx_;
  Rng rng_;
  core::ModChecker fresh_;
  std::vector<std::size_t> block_;
  std::vector<std::uint64_t> order_;  // page permutation for weather()
  std::uint64_t tick_no_ = 0;
  std::uint64_t patches_ = 0;
  bool patch_active_ = false;
  Patch patch_;
};

}  // namespace

Result run_event_ticks(const Options& opt, SpanRecorder& rec) {
  Result result;
  Fixture fx;
  std::vector<double> build_ms;
  const double setup_s = median_setup_s(
      kSetupReps,
      [&] {
        Fixture f = build(opt.seed);
        build_ms.push_back(f.env_build_ms);
        return f;
      },
      fx);
  result.note("watched pages: " + std::to_string(fx.watched_pages) +
              " (http.sys and hal.dll on 15 guests)");

  Driver driver(fx, opt.seed);
  const double plain_s = plain_seconds(opt);
  // Ticks for the run-level p99; each tick adds two scans.
  const std::size_t min_samples = samples_needed(0.99);
  Loop loop;
  loop.sim.limit = kSimScans;
  const Counters before = Counters::take();
  const mc::core::IncrementalStats stats_before = fx.scanner->stats();
  const Clock::time_point t0 = Clock::now();
  while (since(t0) < plain_s ||
         (!opt.trace && loop.tick_ms.size() < min_samples &&
          since(t0) < 3.0 * plain_s)) {
    driver.tick(loop, nullptr);
  }
  const double plain_elapsed = since(t0);
  const Counters after = Counters::take();
  const mc::core::IncrementalStats stats_after = fx.scanner->stats();
  result.attempted = loop.attempted;
  result.failed = loop.failed;
  const double plain_scans_per_s =
      static_cast<double>(loop.scan_ms.size()) / plain_elapsed;

  if (!opt.trace) {
    result.set("setup_s", setup_s, "s");
    result.set("scans_per_s", plain_scans_per_s, "1/s");
    result.set_quantile("scan_ms_p50", percentile(loop.scan_ms, 0.5), "ms",
                        false);
    result.set_quantile("scan_ms_p99", percentile(loop.scan_ms, 0.99), "ms",
                        true);
    result.set("sim_scan_ms", loop.sim.per_scan_ms(loop.sim.wall), "ms");
    if (loop.sim.scans < kSimScans) {
      result.checks_passed = false;
      result.note("sim_scan_ms: fewer than " + std::to_string(kSimScans) +
                  " scans");
    }
    result.set_quantile("detect_ms_p50", percentile(loop.detect_ms, 0.5), "ms",
                        false);
    result.set("runs_per_s",
               static_cast<double>(loop.ticks) / plain_elapsed, "1/s");
    result.set_quantile("run_ms_p50", percentile(loop.tick_ms, 0.5), "ms",
                        false);
    result.set_quantile("run_ms_p99", percentile(loop.tick_ms, 0.99), "ms",
                        true);
    result.set("peak_rss_mb", peak_rss_mb(), "MiB");
    result.note("a run is one tick (its writes plus both module scans)");
    return result;
  }

  Loop traced;
  const Clock::time_point t1 = Clock::now();
  while (since(t1) < opt.seconds - plain_s) {
    driver.tick(traced, &rec);
  }
  const double traced_elapsed = since(t1);
  result.attempted += traced.attempted;
  result.failed += traced.failed;

  const double traced_scans_per_s =
      static_cast<double>(traced.scan_ms.size()) /
      (traced_elapsed - static_cast<double>(traced.fresh_total_ns) / 1e9);
  result.set("trace.overhead_ratio",
             ratio(traced_scans_per_s, plain_scans_per_s), "ratio");
  set_common_layer_metrics(result, before, after, loop.sim, rec,
                           static_cast<double>(traced.ticks));
  result.set("cloud.env_build_ms", percentile(build_ms, 0.5).value, "ms");
  result.set("vmm.guest_writes", static_cast<double>(traced.writes), "count");
  result.set("vmm.guest_write_us",
             ratio(traced.write_ns / 1e3, static_cast<double>(traced.writes)),
             "us");
  for (std::size_t c = 0; c < kClasses.size(); ++c) {
    const std::string label = kClasses[c].label;
    result.set("incremental.tick_ms." + label,
               ratio(traced.incr_ns[c] / 1e6,
                     static_cast<double>(traced.class_scans[c])),
               "ms");
    result.set("incremental.vs_fresh." + label,
               ratio(traced.fresh_ns[c], traced.incr_ns[c]), "ratio");
  }
  const double fetches =
      static_cast<double>(loop.sim.seen) * static_cast<double>(kPoolSize);
  result.set("incremental.fetches", fetches, "count");
  result.set("incremental.frames_reread_per_tick",
             ratio(static_cast<double>(stats_after.frames_reread -
                                       stats_before.frames_reread),
                   static_cast<double>(loop.ticks)),
             "count");
  result.set("incremental.cache_reuse_ratio",
             ratio(static_cast<double>(stats_after.cache_reuses -
                                       stats_before.cache_reuses),
                   fetches),
             "ratio");

  return result;
}

}  // namespace perfbench
