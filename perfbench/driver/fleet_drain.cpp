// fleet_drain — the only threaded workload.
//
// Eight t=15 pools (six PE, two ELF) sit behind a ShardCoordinator with 2
// shards x 1 worker and the default admission policy (stealing on).  On a
// 4-core host, 2 x 2 workers keep every core busy, and two other busy
// processes on that host moved the tail metrics by about 70%; with 2 x 1
// they moved them by under 10%.
// Every sweep is submitted before start(), then the client waits for
// drain(); one such cycle is repeated, with a fresh coordinator over the
// same pools, until the run's time is up.  Per cycle:
//   * 6 of the 8 pools (3/4) run an event-driven recurring sweep, which is
//     skipped once the pool is proven clean;
//   * 2 pools (1/4: the first PE pool and the last ELF pool) run a
//     full-sweep recurring sweep;
//   * every pool also gets one one-shot sweep;
//   * one seeded guest of the full-sweep PE pool is armed with a 2.5%
//     read-fault rate on a seeded fault stream, so retry and quarantine
//     run.
// Faults are armed only on a full-sweep pool: an event-driven sweep over
// a faulting guest hangs drain() today (ROADMAP item 1).  One
// guest of every event-driven pool carries a .text byte patch; detection
// latency runs from start() to the first report that flags it.
// On skipped ticks, dispatch, queueing, stealing and run bookkeeping in
// the service layer are most of the cost.
#include <algorithm>
#include <memory>
#include <mutex>

#include "service/coordinator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = mc::core;
namespace svc = mc::service;

constexpr std::size_t kPePools = 6;
constexpr std::size_t kElfPools = 2;
constexpr std::size_t kPools = kPePools + kElfPools;
constexpr std::size_t kRepeat = 30;  // runs per recurring sweep
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kFaultingPool = 0;
constexpr std::size_t kFullElfPool = kPools - 1;
constexpr double kReadFaultRate = 0.025;
/// Simulated figures are taken over the first 20 cycles.
constexpr std::uint64_t kSimCycles = 20;
const std::vector<std::string> kPeModules = {"hal.dll", "ndis.sys"};
const std::vector<std::string> kElfModules = {"scsi_mod", "e1000"};

struct PoolInfo {
  const mc::vmm::Hypervisor* hypervisor = nullptr;
  std::vector<DomainId> guests;
  std::vector<std::string> modules;
  bool event_driven = true;
  /// module -> VMs that must be flagged.
  std::map<std::string, std::set<DomainId>> infected;
  std::set<DomainId> may_quarantine;
};

struct Fixture {
  std::vector<std::unique_ptr<mc::cloud::CloudEnvironment>> pe;
  std::vector<std::unique_ptr<mc::cloud::LinuxEnvironment>> elf;
  std::vector<PoolInfo> pools;
  DomainId faulting_vm = 0;
  double env_build_ms = 0.0;  // mean per environment
  std::string plan;
};

/// Arrival and hook times of one cycle, recorded from worker threads.
struct CycleLog {
  struct Arrival {
    svc::SweepId id = 0;
    std::size_t run = 0;
    Clock::time_point at;
    svc::SweepReport report;
  };
  struct Hook {
    svc::SweepId id = 0;
    std::size_t run = 0;
    Clock::time_point at;
  };
  std::mutex mutex;
  std::vector<Arrival> arrivals;
  std::vector<Hook> hooks;
};

class LogSink : public svc::SweepSink {
 public:
  explicit LogSink(CycleLog& log) : log_(&log) {}
  void on_sweep(const svc::SweepReport& report) override {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(log_->mutex);
    log_->arrivals.push_back({report.id, report.run_index, now, report});
  }

 private:
  CycleLog* log_;
};

/// Per-run and per-cycle accumulators.
struct Loop {
  std::vector<double> run_ms;
  std::vector<double> scan_ms;
  std::vector<double> detect_ms;
  std::vector<double> wait_ms;
  std::vector<double> exec_ms;
  std::vector<double> submit_us;
  SimSplit sim;
  /// Scans of the first kSimCycles cycles only: the fault stream runs on
  /// across cycles, so only a fixed prefix repeats exactly for a seed.
  SimSplit sim_head;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed_runs = 0;
  std::uint64_t scans = 0;
  double busy_s = 0.0;  // summed start() -> drain() time
  std::uint64_t cycles = 0;
  std::uint64_t skipped = 0;
  std::uint64_t event_runs = 0;
  std::uint64_t steals = 0;
  std::uint64_t quarantines = 0;
  double imbalance = 0.0;
};

Fixture build(std::uint64_t seed) {
  Fixture fx;
  Rng rng(derive_seed(seed, 21));
  const Clock::time_point t0 = Clock::now();
  for (std::size_t p = 0; p < kPePools; ++p) {
    mc::cloud::CloudConfig cfg;
    cfg.guest_count = kPoolSize;
    cfg.base_seed = derive_seed(seed, 100 + p);
    fx.pe.push_back(std::make_unique<mc::cloud::CloudEnvironment>(cfg));
  }
  for (std::size_t p = 0; p < kElfPools; ++p) {
    mc::cloud::LinuxCloudConfig cfg;
    cfg.guest_count = kPoolSize;
    cfg.base_seed = derive_seed(seed, 200 + p);
    fx.elf.push_back(std::make_unique<mc::cloud::LinuxEnvironment>(cfg));
  }
  fx.env_build_ms = ms_between(t0, Clock::now()) / static_cast<double>(kPools);

  for (const auto& env : fx.pe) {
    fx.pools.push_back({&env->hypervisor(), env->guests(), kPeModules, true,
                        {}, {}});
  }
  for (const auto& env : fx.elf) {
    fx.pools.push_back({&env->hypervisor(), env->guests(), kElfModules, true,
                        {}, {}});
  }
  // Full-sweep pools: the first PE pool (with the faulting guest) and the
  // last ELF pool.  They are fixed, not seeded, so the routing of full and
  // event-driven sweeps onto shards is the same on every seed.
  fx.pools[kFaultingPool].event_driven = false;
  fx.pools[kFullElfPool].event_driven = false;
  PoolInfo& faulting = fx.pools[kFaultingPool];
  fx.faulting_vm = faulting.guests[1 + rng.below(kPoolSize - 1)];
  faulting.may_quarantine.insert(fx.faulting_vm);
  mc::vmm::FaultProfile fault;
  fault.read_fault_rate = kReadFaultRate;
  fault.seed = derive_seed(seed, 22);
  // Armed once: the fault stream runs on across cycles, so the run sees
  // many fault patterns of its seed rather than one pattern repeated.
  faulting.hypervisor->fault_injector().arm(fx.faulting_vm, fault);

  // One infected guest in every event-driven pool, so detection latency
  // covers every queue position whichever pools the seed routes where.
  for (std::size_t p = 0; p < kPools; ++p) {
    if (!fx.pools[p].event_driven) {
      continue;
    }
    const DomainId vm = fx.pools[p].guests[1 + rng.below(kPoolSize - 1)];
    if (p < kPePools) {
      mc::cloud::CloudEnvironment& env = *fx.pe[p];
      const TextRange text = pe_text(env, vm, kPeModules[0]);
      pe_flip_byte(env, vm, kPeModules[0],
                   text.rva + static_cast<std::uint32_t>(rng.below(text.size)));
      fx.pools[p].infected[kPeModules[0]].insert(vm);
    } else {
      mc::cloud::LinuxEnvironment& env = *fx.elf[p - kPePools];
      const std::string& module = kElfModules[1];
      const TextRange text = elf_text(env, module);
      const std::uint32_t va =
          env.loader(vm).find(module)->base + text.rva +
          static_cast<std::uint32_t>(rng.below(text.size));
      elf_write_byte(env, vm, va,
                     static_cast<std::uint8_t>(elf_read_byte(env, vm, va) ^ 0xFF));
      fx.pools[p].infected[module].insert(vm);
    }
  }
  fx.plan = "faulting dom" + std::to_string(fx.faulting_vm) + " in pool " +
            std::to_string(kFaultingPool) + "; one infected guest in each "
            "event-driven pool";
  return fx;
}

/// One submit-everything-then-drain cycle on a fresh coordinator.
void cycle(Fixture& fx, Loop& loop, SpanRecorder* rec) {
  CycleLog log;
  svc::CoordinatorConfig cfg;
  cfg.shards = 2;
  cfg.workers_per_shard = 1;
  svc::ShardCoordinator coord(cfg);
  for (const PoolInfo& pool : fx.pools) {
    coord.add_pool(*pool.hypervisor, pool.guests);
  }
  coord.add_sink(std::make_shared<LogSink>(log));
  coord.set_module_hook(
      [&log](svc::SweepId id, std::size_t run, const std::string&) {
        const Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lock(log.mutex);
        log.hooks.push_back({id, run, now});
      });

  const std::uint64_t cycle_op = ++loop.cycles;
  const std::uint32_t root =
      rec != nullptr ? rec->open("bench.cycle", 0, cycle_op) : 0;
  struct Submitted {
    std::size_t pool = 0;
    std::size_t repeat = 0;
  };
  std::map<svc::SweepId, Submitted> sweeps;
  auto submit = [&](std::size_t p, bool recurring) {
    svc::SweepSpec spec;
    spec.name = (recurring ? "tick-" : "once-") + std::to_string(p);
    spec.pool_index = p;
    spec.modules = fx.pools[p].modules;
    spec.repeat = recurring ? kRepeat : 1;
    spec.cadence = mc::sim_ms(100);
    spec.event_driven = recurring && fx.pools[p].event_driven;
    const std::int64_t s0 = rec != nullptr ? rec->now() : 0;
    const Clock::time_point t0 = Clock::now();
    const svc::SweepId id = coord.submit(std::move(spec));
    loop.submit_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    if (rec != nullptr) {
      rec->add("service.submit", s0, rec->now(), root, cycle_op);
    }
    loop.attempted += recurring ? kRepeat : 1;
    if (id == 0) {
      loop.failed += recurring ? kRepeat : 1;  // dropped: every run fails
    } else {
      sweeps[id] = {p, recurring ? kRepeat : 1};
    }
  };
  for (std::size_t p = 0; p < kPools; ++p) {
    submit(p, true);
  }
  for (std::size_t p = 0; p < kPools; ++p) {
    submit(p, false);
  }
  const Clock::time_point started = Clock::now();
  const std::int64_t started_ns = rec != nullptr ? rec->now() : 0;
  coord.start();
  coord.drain();
  const Clock::time_point drained = Clock::now();
  if (rec != nullptr) {
    rec->close(root);
  }
  loop.busy_s += std::chrono::duration<double>(drained - started).count();

  const svc::ShardCoordinator::Stats stats = coord.stats();
  loop.skipped += stats.sweeps_skipped_clean;
  loop.event_runs += stats.sweeps_skipped_clean + stats.event_runs;
  loop.steals += stats.steals;
  loop.quarantines += stats.quarantine_events;
  std::uint64_t most = 0;
  std::uint64_t least = ~std::uint64_t{0};
  for (const svc::ShardStats& s : coord.shard_stats()) {
    most = std::max(most, s.completed_runs);
    least = std::min(least, s.completed_runs);
  }
  loop.imbalance += ratio(static_cast<double>(most), static_cast<double>(least));

  // Reconstruct every run: ready -> first hook -> arrival.
  std::map<std::pair<svc::SweepId, std::size_t>, std::vector<Clock::time_point>>
      hooks;
  for (const CycleLog::Hook& h : log.hooks) {
    hooks[{h.id, h.run}].push_back(h.at);
  }
  std::sort(log.arrivals.begin(), log.arrivals.end(),
            [](const CycleLog::Arrival& a, const CycleLog::Arrival& b) {
              return a.at < b.at;
            });
  std::map<std::pair<svc::SweepId, std::size_t>, Clock::time_point> arrived;
  for (const CycleLog::Arrival& a : log.arrivals) {
    arrived[{a.id, a.run}] = a.at;
  }
  std::map<std::pair<std::size_t, DomainId>, bool> detected;
  std::uint64_t received = 0;
  for (const CycleLog::Arrival& a : log.arrivals) {
    const auto it = sweeps.find(a.id);
    if (it == sweeps.end()) {
      ++loop.failed;  // a report for a sweep never submitted
      continue;
    }
    ++received;
    const PoolInfo& pool = fx.pools[it->second.pool];
    const svc::SweepReport& r = a.report;
    bool ok = !r.cancelled && !r.pool_exhausted &&
              r.scans.size() == pool.modules.size();
    for (const core::PoolScanReport& scan : r.scans) {
      const auto inf = pool.infected.find(scan.module_name);
      const std::set<DomainId> none;
      const std::set<DomainId>& infected =
          inf == pool.infected.end() ? none : inf->second;
      ok = ok && verdict_errors(scan, infected, pool.may_quarantine) == 0;
      for (const core::PoolVmVerdict& v : scan.verdicts) {
        if (!v.clean && infected.count(v.vm) != 0 &&
            !detected[{it->second.pool, v.vm}]) {
          detected[{it->second.pool, v.vm}] = true;
          loop.detect_ms.push_back(ms_between(started, a.at));
        }
      }
      if (!r.skipped_clean) {
        loop.sim.add(scan);
        if (cycle_op <= kSimCycles) {
          loop.sim_head.add(scan);
        }
      }
    }
    loop.failed += ok ? 0u : 1u;
    ++loop.completed_runs;

    const Clock::time_point ready =
        a.run == 0 ? started : arrived.at({a.id, a.run - 1});
    loop.run_ms.push_back(ms_between(ready, a.at));
    const auto h = hooks.find({a.id, a.run});
    std::uint32_t run_span = 0;
    const std::uint64_t op = cycle_op * 1000000 + a.id * 1000 + a.run;
    const auto ns = [&](Clock::time_point t) {
      return started_ns +
             std::chrono::duration_cast<std::chrono::nanoseconds>(t - started)
                 .count();
    };
    if (rec != nullptr) {
      run_span = rec->add("service.run", ns(ready), ns(a.at), root, op);
    }
    if (h == hooks.end()) {
      continue;  // skipped clean: no module was scanned
    }
    const std::vector<Clock::time_point>& at = h->second;
    loop.wait_ms.push_back(ms_between(ready, at.front()));
    loop.exec_ms.push_back(ms_between(at.front(), a.at));
    std::uint32_t exec_span = 0;
    if (rec != nullptr) {
      rec->add("service.wait", ns(ready), ns(at.front()), run_span, op);
      exec_span =
          rec->add("service.exec", ns(at.front()), ns(a.at), run_span, op);
    }
    for (std::size_t k = 0; k < at.size(); ++k) {
      const Clock::time_point end = k + 1 < at.size() ? at[k + 1] : a.at;
      // Scan latency counts warm scans only: every sweep's first run scans
      // on cold caches (each cycle starts a fresh coordinator), as the
      // cold warm-up scan that the other workloads leave in set-up.
      if (a.run > 0) {
        loop.scan_ms.push_back(ms_between(at[k], end));
      }
      ++loop.scans;
      if (rec != nullptr) {
        rec->add("modchecker.scan", ns(at[k]), ns(end), exec_span, op);
      }
    }
  }
  std::uint64_t expected = 0;
  for (const auto& [id, s] : sweeps) {
    expected += s.repeat;
  }
  if (received < expected) {
    loop.failed += expected - received;  // lost runs
  }
  for (const PoolInfo& pool : fx.pools) {
    for (const auto& [module, vms] : pool.infected) {
      for (const DomainId vm : vms) {
        const std::size_t p = static_cast<std::size_t>(&pool - fx.pools.data());
        if (!detected[{p, vm}]) {
          ++loop.failed;  // an infection no report flagged
        }
      }
    }
  }
}

}  // namespace

Result run_fleet_drain(const Options& opt, SpanRecorder& rec) {
  Result result;
  Fixture fx;
  std::vector<double> build_ms;
  const double setup_s = median_setup_s(
      kSetupReps,
      [&] {
        Fixture f = build(opt.seed);
        build_ms.push_back(f.env_build_ms);
        Loop warm;  // the one cold cycle
        cycle(f, warm, nullptr);
        return f;
      },
      fx);
  result.note(fx.plan);

  const double plain_s = plain_seconds(opt);
  const std::size_t min_samples = samples_needed(0.99);
  Loop loop;
  const Counters before = Counters::take();
  const Clock::time_point t0 = Clock::now();
  while (since(t0) < plain_s ||
         (!opt.trace &&
          std::min(loop.run_ms.size(), loop.scan_ms.size()) < min_samples &&
          since(t0) < 3.0 * plain_s)) {
    cycle(fx, loop, nullptr);
  }
  const Counters after = Counters::take();
  result.attempted = loop.attempted;
  result.failed = loop.failed;
  const double plain_runs_per_s =
      static_cast<double>(loop.completed_runs) / loop.busy_s;

  if (!opt.trace) {
    result.set("setup_s", setup_s, "s");
    result.set("scans_per_s", static_cast<double>(loop.scans) / loop.busy_s,
               "1/s");
    result.set_quantile("scan_ms_p50", percentile(loop.scan_ms, 0.5), "ms",
                        false);
    result.set_quantile("scan_ms_p99", percentile(loop.scan_ms, 0.99), "ms",
                        true);
    result.set("sim_scan_ms", loop.sim_head.per_scan_ms(loop.sim_head.wall),
               "ms");
    if (loop.cycles < kSimCycles) {
      result.checks_passed = false;
      result.note("sim_scan_ms: fewer than " + std::to_string(kSimCycles) +
                  " cycles");
    }
    result.set_quantile("detect_ms_p50", percentile(loop.detect_ms, 0.5), "ms",
                        false);
    result.set("runs_per_s", plain_runs_per_s, "1/s");
    result.set_quantile("run_ms_p50", percentile(loop.run_ms, 0.5), "ms",
                        false);
    result.set_quantile("run_ms_p99", percentile(loop.run_ms, 0.99), "ms",
                        true);
    result.set("peak_rss_mb", peak_rss_mb(), "MiB");
    result.note("cycles: " + std::to_string(loop.cycles) +
                "; a run is one sweep run, ready to report arrival; a scan "
                "is one module scan inside a run (skipped runs scan none)");
    return result;
  }

  Loop traced;
  const Clock::time_point t1 = Clock::now();
  while (since(t1) < opt.seconds - plain_s) {
    cycle(fx, traced, &rec);
  }
  result.attempted += traced.attempted;
  result.failed += traced.failed;

  const double cycles = static_cast<double>(traced.cycles);
  result.set("trace.overhead_ratio",
             ratio(static_cast<double>(traced.completed_runs) / traced.busy_s,
                   plain_runs_per_s),
             "ratio");
  set_common_layer_metrics(result, before, after, loop.sim, rec,
                           static_cast<double>(traced.completed_runs));
  result.set("cloud.env_build_ms", percentile(build_ms, 0.5).value, "ms");
  result.set("service.submit_us", percentile(traced.submit_us, 0.5).value,
             "us");
  const Quantile wait_p99 = percentile(traced.wait_ms, 0.99);
  result.set("service.wait_ms_p50", percentile(traced.wait_ms, 0.5).value,
             "ms");
  result.set("service.wait_ms_p99", wait_p99.value, "ms");
  result.note("service.wait_ms_p99: " + std::to_string(wait_p99.samples) +
              " samples, " + std::to_string(wait_p99.beyond) + " beyond");
  result.set("service.exec_ms_p50", percentile(traced.exec_ms, 0.5).value,
             "ms");
  result.set("service.event_driven_runs",
             ratio(static_cast<double>(traced.event_runs), cycles), "count");
  result.set("service.skip_ratio",
             ratio(static_cast<double>(traced.skipped),
                   static_cast<double>(traced.event_runs)),
             "ratio");
  result.set("service.steals", ratio(static_cast<double>(traced.steals), cycles),
             "count");
  result.set("service.shard_imbalance", ratio(traced.imbalance, cycles),
             "ratio");
  result.set("service.acquire_retries",
             ratio(static_cast<double>(Counters::delta(
                       before, after, "pipeline.acquire.retries")),
                   static_cast<double>(loop.cycles)),
             "count");
  result.set("service.quarantines",
             ratio(static_cast<double>(loop.quarantines),
                   static_cast<double>(loop.cycles)),
             "count");
  result.note("service counts are per cycle (one submit-and-drain)");

  return result;
}

}  // namespace perfbench
