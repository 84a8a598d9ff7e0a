// full_sweep — the paper's Fig. 7 path.
//
// One client in a closed loop sweeps every loaded module of a t=15 PE
// pool (7 modules) and a t=15 ELF pool (5 .ko modules) with a fresh
// ModChecker::scan_pool each, in load order.  Three guests carry real
// infections: an inline hook in hal.dll on the reference VM, a
// single-byte .text patch in http.sys on another PE guest, and a
// single-byte .text patch in scsi_mod on one ELF guest.  The seed picks
// the patched guests and offsets; the modules and the hooked reference
// are fixed, so that every seed has the same sweep positions for the
// detection latency and the same number of infected reference copies.  The infected copies force the exact pairwise
// fallback beside the canonical fast path.  The incremental cache and the
// service layer are not used, so their optimisations must show no change
// here.
//
// The traced run replays every scan through the pipeline's public stage
// accessors (acquire, parse, normalize, compare, vote), timing each call,
// and requires the replay's verdicts to equal pool_scan's.
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "attacks/inline_hook.hpp"
#include "crypto/hasher.hpp"
#include "modchecker/modchecker.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = mc::core;

constexpr const char* kPatchedPe = "http.sys";
constexpr const char* kHookedPe = "hal.dll";
constexpr const char* kPatchedKo = "scsi_mod";
constexpr std::size_t kSetupReps = 9;
/// Simulated figures are taken over the first 100 sweeps.
constexpr std::size_t kSimScans = 1200;

struct Pool {
  std::string label;
  std::vector<DomainId> guests;
  std::vector<std::string> modules;
  std::map<std::string, std::set<DomainId>> infected;
  std::unique_ptr<core::ModChecker> checker;
};

struct Fixture {
  std::unique_ptr<mc::cloud::CloudEnvironment> pe;
  std::unique_ptr<mc::cloud::LinuxEnvironment> elf;
  std::vector<Pool> pools;
  double env_build_ms = 0.0;  // mean per environment
  std::string plan;
};

Fixture build(std::uint64_t seed) {
  Fixture fx;
  const Clock::time_point t0 = Clock::now();
  mc::cloud::CloudConfig pe_cfg;
  pe_cfg.guest_count = kPoolSize;
  pe_cfg.base_seed = derive_seed(seed, 1);
  fx.pe = std::make_unique<mc::cloud::CloudEnvironment>(pe_cfg);
  mc::cloud::LinuxCloudConfig elf_cfg;
  elf_cfg.guest_count = kPoolSize;
  elf_cfg.base_seed = derive_seed(seed, 2);
  fx.elf = std::make_unique<mc::cloud::LinuxEnvironment>(elf_cfg);
  fx.env_build_ms = ms_between(t0, Clock::now()) / 2.0;

  // Infection plan.  The hal.dll hook always sits on the reference VM (the
  // pool's first guest, against which the fast path normalizes), so every
  // seed carries the cost of an infected reference copy; the two byte
  // patches go to seeded other guests at seeded offsets.
  Rng rng(derive_seed(seed, 3));
  const std::vector<DomainId>& pe_guests = fx.pe->guests();
  const DomainId hooked = pe_guests.front();
  const DomainId patched = pe_guests[1 + rng.below(kPoolSize - 1)];
  const TextRange text = pe_text(*fx.pe, patched, kPatchedPe);
  const std::uint32_t rva =
      text.rva + static_cast<std::uint32_t>(rng.below(text.size));
  pe_flip_byte(*fx.pe, patched, kPatchedPe, rva);
  mc::attacks::InlineHookAttack().apply(*fx.pe, hooked, kHookedPe);

  const DomainId ko_vm = fx.elf->guests()[1 + rng.below(kPoolSize - 1)];
  const TextRange ko_text = elf_text(*fx.elf, kPatchedKo);
  const std::uint32_t ko_va =
      fx.elf->loader(ko_vm).find(kPatchedKo)->base + ko_text.rva +
      static_cast<std::uint32_t>(rng.below(ko_text.size));
  elf_write_byte(*fx.elf, ko_vm, ko_va,
                 static_cast<std::uint8_t>(
                     elf_read_byte(*fx.elf, ko_vm, ko_va) ^ 0xFF));
  fx.plan = "infections: " + std::string(kPatchedPe) + " byte patch on dom" +
            std::to_string(patched) + " rva " + std::to_string(rva) + ", " +
            kHookedPe + " inline hook on dom" + std::to_string(hooked) +
            ", " + kPatchedKo + " byte patch on linux dom" +
            std::to_string(ko_vm);

  Pool pe;
  pe.label = "pe";
  pe.guests = pe_guests;
  pe.modules = pe_cfg.load_order;
  pe.infected[kPatchedPe].insert(patched);
  pe.infected[kHookedPe].insert(hooked);
  pe.checker = std::make_unique<core::ModChecker>(fx.pe->hypervisor());
  Pool elf;
  elf.label = "elf";
  elf.guests = fx.elf->guests();
  elf.modules = elf_cfg.load_order;
  elf.infected[kPatchedKo].insert(ko_vm);
  elf.checker = std::make_unique<core::ModChecker>(fx.elf->hypervisor());
  fx.pools.push_back(std::move(pe));
  fx.pools.push_back(std::move(elf));
  return fx;
}

/// Host-time totals of the staged replay, per public stage call.
struct ReplayTotals {
  std::int64_t open_ns = 0;
  std::int64_t list_ns = 0;
  std::int64_t extract_ns = 0;
  std::int64_t parse_ns = 0;
  std::int64_t md5_ns = 0;
  std::int64_t normalize_ns = 0;
  std::int64_t compare_ns = 0;
  std::uint64_t opens = 0;
  std::uint64_t image_bytes = 0;
  std::uint64_t md5_bytes = 0;
  std::uint64_t fallback_pairs = 0;
  std::uint64_t pools = 0;
};

/// pool_scan rebuilt from the stage accessors, every call timed as a span
/// under `root`.  Also lists the loader list once per VM and re-hashes
/// every parsed item with the public MD5 hasher: both are probes the
/// plain scan does not run (see kProbeSpans).
core::PoolScanReport replay_scan(core::CheckPipeline& p,
                                 const std::string& module,
                                 const std::vector<DomainId>& pool,
                                 SpanRecorder& rec, std::uint32_t root,
                                 std::uint64_t op, ReplayTotals& tot) {
  std::vector<core::Extraction> extractions(pool.size());
  std::vector<std::optional<core::ModuleImage>> images(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    mc::SimClock clock;
    std::int64_t t0 = rec.now();
    core::AcquireStage::Session session = p.acquire().open(pool[i], clock);
    std::int64_t t1 = rec.now();
    rec.add("vmi.open", t0, t1, root, op);
    tot.open_ns += t1 - t0;
    ++tot.opens;

    t0 = rec.now();
    const std::size_t listed = p.acquire().try_list_modules(session).value().size();
    t1 = rec.now();
    rec.add("vmi.list_walk", t0, t1, root, op);
    tot.list_ns += t1 - t0;
    if (listed == 0) {
      throw std::runtime_error("empty loader list");
    }

    t0 = rec.now();
    images[i] = std::move(p.acquire().try_extract_module(session, module).value());
    t1 = rec.now();
    rec.add("vmi.extract", t0, t1, root, op);
    tot.extract_ns += t1 - t0;
    extractions[i].times.searcher = clock.now();
    if (!images[i]) {
      continue;  // not loaded here: found stays false
    }
    tot.image_bytes += images[i]->size();

    t0 = rec.now();
    p.parse().parse(*images[i], extractions[i]);
    t1 = rec.now();
    rec.add("parse.parse", t0, t1, root, op);
    tot.parse_ns += t1 - t0;

    t0 = rec.now();
    for (const core::IntegrityItem& item : extractions[i].parsed.items) {
      auto hasher = mc::crypto::make_hasher(mc::crypto::HashAlgorithm::kMd5);
      item.for_each_span([&](mc::ByteView span) { hasher->update(span); });
      (void)hasher->finish();
      tot.md5_bytes += item.content_size();
    }
    t1 = rec.now();
    rec.add("crypto.md5", t0, t1, root, op);
    tot.md5_ns += t1 - t0;
  }

  core::PoolScanReport report;
  report.module_name = module;
  std::vector<core::PoolVmVerdict>& verdicts = report.verdicts;
  verdicts.resize(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    verdicts[i].vm = pool[i];
    verdicts[i].peers_total = pool.size() - 1;
    verdicts[i].peers_answered = pool.size() - 1;
  }

  mc::SimClock canon_clock;
  std::int64_t t0 = rec.now();
  const std::optional<core::CanonicalPool> canon =
      p.normalize().canonicalize(extractions, canon_clock);
  std::int64_t t1 = rec.now();
  rec.add("normalize.canonicalize", t0, t1, root, op);
  tot.normalize_ns += t1 - t0;
  ++tot.pools;

  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (!extractions[i].found) {
      continue;
    }
    for (std::size_t j = i + 1; j < pool.size(); ++j) {
      if (!extractions[j].found) {
        continue;
      }
      ++verdicts[i].total;
      ++verdicts[j].total;
      if (extractions[i].parse_failed || extractions[j].parse_failed) {
        continue;
      }
      bool match = false;
      if (canon && canon->eligible(pool[i]) && canon->eligible(pool[j])) {
        match = canon->digests(pool[i]) == canon->digests(pool[j]);
      } else {
        mc::SimClock pair_clock;
        t0 = rec.now();
        match = p.compare()
                    .compare(extractions[i].parsed, extractions[j].parsed,
                             pair_clock)
                    .all_match;
        t1 = rec.now();
        rec.add("compare.pair", t0, t1, root, op);
        tot.compare_ns += t1 - t0;
        ++tot.fallback_pairs;
      }
      if (match) {
        ++verdicts[i].successes;
        ++verdicts[j].successes;
      }
    }
  }

  t0 = rec.now();
  p.vote().finalize(verdicts);
  rec.add("vote.finalize", t0, rec.now(), root, op);
  return report;
}

/// Spans whose work the plain scan does not do; excluded when the traced
/// throughput is compared with the plain one.
const char* const kProbeSpans[] = {"vmi.list_walk", "crypto.md5"};

/// Plain-loop accumulators.
struct Loop {
  std::vector<double> scan_ms;
  std::vector<double> sweep_ms;
  std::vector<double> detect_ms;
  SimSplit sim;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::vector<core::PoolVmVerdict>> last;  // per module
};

void sweep_once(Fixture& fx, Loop& loop) {
  const Clock::time_point start = Clock::now();
  for (Pool& pool : fx.pools) {
    for (const std::string& module : pool.modules) {
      const Clock::time_point t0 = Clock::now();
      core::PoolScanReport report = pool.checker->scan_pool(module, pool.guests);
      const Clock::time_point t1 = Clock::now();
      loop.scan_ms.push_back(ms_between(t0, t1));
      loop.sim.add(report);
      const std::set<DomainId>& infected = pool.infected[module];
      ++loop.attempted;
      loop.failed += verdict_errors(report, infected) == 0 ? 0u : 1u;
      for (const core::PoolVmVerdict& v : report.verdicts) {
        if (!v.clean && infected.count(v.vm) != 0) {
          loop.detect_ms.push_back(ms_between(start, t1));
        }
      }
      loop.last[pool.label + "/" + module] = std::move(report.verdicts);
    }
  }
  loop.sweep_ms.push_back(ms_between(start, Clock::now()));
}

}  // namespace

Result run_full_sweep(const Options& opt, SpanRecorder& rec) {
  Result result;
  Fixture fx;
  std::vector<double> build_ms;
  const double setup_s = median_setup_s(
      kSetupReps,
      [&] {
        Fixture f = build(opt.seed);
        build_ms.push_back(f.env_build_ms);
        Loop warm;  // the one cold sweep
        sweep_once(f, warm);
        return f;
      },
      fx);
  result.note(fx.plan);

  const double plain_s = plain_seconds(opt);
  const std::size_t min_sweeps = samples_needed(0.99);
  Loop loop;
  loop.sim.limit = kSimScans;
  const Counters before = Counters::take();
  const Clock::time_point t0 = Clock::now();
  // Run on past the time until the run-level p99 has ten samples beyond
  // it (one sweep is 12 scans), within three times the asked duration.
  while (since(t0) < plain_s ||
         (!opt.trace && loop.sweep_ms.size() < min_sweeps &&
          since(t0) < 3.0 * plain_s)) {
    sweep_once(fx, loop);
  }
  const double plain_elapsed = since(t0);
  const Counters after = Counters::take();
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
    result.set_quantile("detect_ms_p50", percentile(loop.detect_ms, 0.5), "ms",
                        false);
    result.set("runs_per_s",
               static_cast<double>(loop.sweep_ms.size()) / plain_elapsed,
               "1/s");
    result.set_quantile("run_ms_p50", percentile(loop.sweep_ms, 0.5), "ms",
                        false);
    result.set_quantile("run_ms_p99", percentile(loop.sweep_ms, 0.99), "ms",
                        true);
    result.set("peak_rss_mb", peak_rss_mb(), "MiB");
    result.note("a run is one sweep over all 12 modules; a scan is one "
                "module over one pool");
    return result;
  }

  // Traced phase: staged replay of the same sweeps.
  ReplayTotals tot;
  std::uint64_t op = 0;
  std::uint64_t replay_mismatches = 0;
  const Clock::time_point t1 = Clock::now();
  while (since(t1) < opt.seconds - plain_s) {
    for (Pool& pool : fx.pools) {
      for (const std::string& module : pool.modules) {
        ++op;
        const std::uint32_t root = rec.open("bench.scan", 0, op);
        const core::PoolScanReport replay = replay_scan(
            pool.checker->pipeline(), module, pool.guests, rec, root, op, tot);
        rec.close(root);
        ++result.attempted;
        const bool same =
            same_verdicts(replay.verdicts, loop.last[pool.label + "/" + module]);
        const bool truthful = verdict_errors(replay, pool.infected[module]) == 0;
        replay_mismatches += same ? 0u : 1u;
        result.failed += same && truthful ? 0u : 1u;
      }
    }
  }
  const double traced_elapsed = since(t1);
  if (replay_mismatches != 0) {
    result.checks_passed = false;
  }
  result.note("staged replay: " + std::to_string(op) + " scans, " +
              std::to_string(replay_mismatches) +
              " verdict mismatches against pool_scan");

  std::int64_t probe_ns = 0;
  for (const char* name : kProbeSpans) {
    probe_ns += rec.total(name);
  }
  const double traced_scans_per_s =
      static_cast<double>(op) /
      (traced_elapsed - static_cast<double>(probe_ns) / 1e9);
  result.set("trace.overhead_ratio",
             ratio(traced_scans_per_s, plain_scans_per_s), "ratio");

  set_common_layer_metrics(result, before, after, loop.sim, rec,
                           static_cast<double>(op));
  result.set("cloud.env_build_ms", percentile(build_ms, 0.5).value, "ms");
  const auto per = [](std::int64_t ns, double base, double scale) {
    return ratio(static_cast<double>(ns) / scale, base);
  };
  const double opens = static_cast<double>(tot.opens);
  const double bytes = static_cast<double>(tot.image_bytes);
  result.set("vmi.open_us", per(tot.open_ns, opens, 1e3), "us");
  result.set("vmi.list_walk_us", per(tot.list_ns, opens, 1e3), "us");
  result.set("vmi.extract_ns_per_byte", per(tot.extract_ns, bytes, 1.0),
             "ns/B");
  result.set("parse.ns_per_byte", per(tot.parse_ns, bytes, 1.0), "ns/B");
  result.set("crypto.md5_ns_per_byte",
             per(tot.md5_ns, static_cast<double>(tot.md5_bytes), 1.0), "ns/B");
  result.set("normalize.ms_per_pool",
             per(tot.normalize_ns, static_cast<double>(tot.pools), 1e6), "ms");
  result.set("compare.us_per_pair",
             per(tot.compare_ns, static_cast<double>(tot.fallback_pairs), 1e3),
             "us");

  return result;
}

}  // namespace perfbench
