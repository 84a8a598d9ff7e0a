// Fault-injection suite (ctest label: faultinj) — the fault-domain
// refactor's behavioural contract under an actively misbehaving guest:
//
//   * the injector itself is deterministic (same profile + seed → the
//     same fault points), so every scenario here is reproducible;
//   * transient faults are retried and recovered from (the verdict is
//     unchanged, the FaultRecords are kept as evidence);
//   * a guest that never answers is quarantined — the sweep completes,
//     the healthy majority still votes, and the quarantine is visible in
//     the text, JSON and FleetService surfaces;
//   * when too few peers answer, verdicts carry quorum_lost instead of
//     pretending the paper's majority rule still holds;
//   * the incremental scanner and event-driven sweeps share that fault
//     model: a faulting or unparseable guest never hangs a sharded fleet,
//     and a fault in the middle of a cache refresh never leaves a
//     half-patched image behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attacks/byte_patch.hpp"
#include "attacks/dll_import_inject.hpp"
#include "attacks/inline_hook.hpp"
#include "attacks/opcode_replace.hpp"
#include "attacks/stub_patch.hpp"
#include "cloud/environment.hpp"
#include "guestos/kernel.hpp"
#include "guestos/module_loader.hpp"
#include "modchecker/incremental.hpp"
#include "modchecker/modchecker.hpp"
#include "modchecker/report.hpp"
#include "modchecker/report_json.hpp"
#include "service/coordinator.hpp"
#include "service/fleet.hpp"
#include "sweep_identity.hpp"
#include "vmi/session.hpp"
#include "vmm/fault_injection.hpp"

namespace {

using namespace mc;
using namespace mc::core;

std::unique_ptr<cloud::CloudEnvironment> make_env(std::size_t guests) {
  cloud::CloudConfig cfg;
  cfg.guest_count = guests;
  return std::make_unique<cloud::CloudEnvironment>(cfg);
}

vmm::FaultProfile always_fault() {
  vmm::FaultProfile p;
  p.read_fault_rate = 1.0;
  return p;
}

// ---- FaultInjector unit -------------------------------------------------------

TEST(FaultInjector, DeterministicAcrossInstances) {
  vmm::FaultProfile p;
  p.read_fault_rate = 0.25;
  p.translation_fault_rate = 0.1;
  p.seed = 42;

  vmm::FaultInjector a;
  vmm::FaultInjector b;
  a.arm(3, p);
  b.arm(3, p);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.should_fault_read(3), b.should_fault_read(3)) << "call " << i;
    EXPECT_EQ(a.should_fault_translation(3), b.should_fault_translation(3));
  }
}

TEST(FaultInjector, CounterTriggersAreExact) {
  vmm::FaultInjector injector;
  vmm::FaultProfile first3;
  first3.fail_first_reads = 3;
  injector.arm(1, first3);
  vmm::FaultProfile after5;
  after5.fail_after_reads = 5;
  injector.arm(2, after5);

  for (int call = 1; call <= 10; ++call) {
    EXPECT_EQ(injector.should_fault_read(1), call <= 3) << "call " << call;
    EXPECT_EQ(injector.should_fault_read(2), call > 5) << "call " << call;
  }
  EXPECT_EQ(injector.stats().injected_read_faults, 3u + 5u);
}

TEST(FaultInjector, ArmedGateTracksProfiles) {
  vmm::FaultInjector injector;
  EXPECT_FALSE(injector.armed());
  injector.arm(1, always_fault());
  injector.arm(2, always_fault());
  EXPECT_TRUE(injector.armed());
  injector.disarm(1);
  EXPECT_TRUE(injector.armed());  // Dom2 still armed
  injector.disarm(2);
  EXPECT_FALSE(injector.armed());  // map empty — hot path gate re-closes
  injector.arm(1, always_fault());
  injector.disarm_all();
  EXPECT_FALSE(injector.armed());
}

TEST(FaultInjector, UnarmedDomainNeverFaults) {
  vmm::FaultInjector injector;
  injector.arm(7, always_fault());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.should_fault_read(8));
  }
}

// ---- VmiSession fault surface -------------------------------------------------

TEST(SessionFaults, TryReadSurfacesRecordAndLegacyThrows) {
  auto env = make_env(2);
  env->hypervisor().fault_injector().arm(env->guests()[0], always_fault());

  SimClock clock;
  vmi::VmiSession session(env->hypervisor(), env->guests()[0], clock);
  const auto r = session.try_read_region(0x80000000u, 16);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault().code, FaultCode::kReadFault);
  EXPECT_EQ(r.fault().domain, env->guests()[0]);
  EXPECT_EQ(r.fault().va, 0x80000000u);
  EXPECT_GT(session.stats().faults_observed, 0u);

  // The legacy wrapper raises GuestFaultError, which still IS a VmiError.
  try {
    (void)session.read_region(0x80000000u, 16);
    FAIL() << "read_region on a 100%-faulting domain must throw";
  } catch (const GuestFaultError& e) {
    EXPECT_EQ(e.record().code, FaultCode::kReadFault);
  }
  EXPECT_THROW((void)session.read_region(0x80000000u, 16), VmiError);
}

// ---- retry / recovery ---------------------------------------------------------

TEST(Retry, TransientFaultRecoversWithoutQuarantine) {
  auto env = make_env(4);
  vmm::FaultProfile transient;
  transient.fail_first_reads = 1;  // first read call faults, then recovers
  env->hypervisor().fault_injector().arm(env->guests()[1], transient);

  ModChecker checker(env->hypervisor());
  const auto scan = checker.scan_pool("hal.dll", env->guests());
  ASSERT_EQ(scan.verdicts.size(), 4u);
  for (const auto& v : scan.verdicts) {
    EXPECT_TRUE(v.clean) << "Dom" << v.vm;
    EXPECT_FALSE(v.quarantined) << "Dom" << v.vm;
    EXPECT_FALSE(v.quorum_lost) << "Dom" << v.vm;
  }
  EXPECT_TRUE(scan.quarantined.empty());
  // The recovered fault is kept as evidence: attempt 1, Acquire stage.
  ASSERT_FALSE(scan.faults.empty());
  EXPECT_EQ(scan.faults[0].domain, env->guests()[1]);
  EXPECT_EQ(scan.faults[0].attempt, 1u);
  EXPECT_EQ(scan.faults[0].stage, CheckStage::kAcquire);
}

TEST(Retry, BackoffScheduleIsBoundedAndDeterministic) {
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.backoff_base = sim_us(50);
  retry.backoff = RetryPolicy::Backoff::kExponential;
  EXPECT_EQ(retry.delay_before(2), sim_us(50));
  EXPECT_EQ(retry.delay_before(3), 2 * sim_us(50));
  EXPECT_EQ(retry.delay_before(4), 4 * sim_us(50));
  retry.backoff = RetryPolicy::Backoff::kFixed;
  EXPECT_EQ(retry.delay_before(4), sim_us(50));
}

TEST(Retry, AttemptCountRespectsPolicy) {
  auto env = make_env(3);
  env->hypervisor().fault_injector().arm(env->guests()[2], always_fault());

  ModCheckerConfig cfg;
  cfg.retry.max_attempts = 5;
  ModChecker checker(env->hypervisor(), cfg);
  const auto scan = checker.scan_pool("hal.dll", env->guests());

  std::size_t faults_on_victim = 0;
  std::uint32_t max_attempt = 0;
  for (const auto& f : scan.faults) {
    if (f.domain == env->guests()[2]) {
      ++faults_on_victim;
      max_attempt = std::max(max_attempt, f.attempt);
    }
  }
  EXPECT_EQ(faults_on_victim, 5u);
  EXPECT_EQ(max_attempt, 5u);
}

// ---- the acceptance-criteria degradation proof --------------------------------

/// t=5, one domain 100% read-faulting: the sweep completes, the faulty
/// domain is quarantined with FaultRecords in the JSON, and the four
/// healthy VMs still get correct verdicts — clean pool and E1-E4 variants.
class DegradationProof : public ::testing::Test {
 protected:
  void run(const std::string& module,
           const std::function<void(cloud::CloudEnvironment&)>& infect,
           vmm::DomainId infected) {
    auto env = make_env(5);
    const vmm::DomainId faulty = env->guests()[3];
    env->hypervisor().fault_injector().arm(faulty, always_fault());
    if (infect) {
      infect(*env);
    }

    ModChecker checker(env->hypervisor());
    const auto scan = checker.scan_pool(module, env->guests());

    ASSERT_EQ(scan.verdicts.size(), 5u);
    ASSERT_EQ(scan.quarantined.size(), 1u);
    EXPECT_EQ(scan.quarantined[0], faulty);
    EXPECT_TRUE(scan.degraded());
    EXPECT_FALSE(scan.faults.empty());

    for (const auto& v : scan.verdicts) {
      if (v.vm == faulty) {
        EXPECT_TRUE(v.quarantined);
        EXPECT_EQ(v.total, 0u);
        EXPECT_FALSE(v.quorum_lost);  // no verdict to degrade
        continue;
      }
      EXPECT_FALSE(v.quarantined);
      // 3 answering peers of 4 — the majority rule still has quorum.
      EXPECT_EQ(v.peers_total, 4u);
      EXPECT_EQ(v.peers_answered, 3u);
      EXPECT_FALSE(v.quorum_lost);
      EXPECT_EQ(v.clean, v.vm != infected) << "Dom" << v.vm;
    }

    // The quarantine and its evidence reach the JSON surface.
    const std::string json = to_json(scan);
    EXPECT_NE(json.find("\"quarantined\""), std::string::npos);
    EXPECT_NE(json.find("\"faults\""), std::string::npos);
    EXPECT_NE(json.find("\"read-fault\""), std::string::npos);
    // ... and the operator-facing text report.
    const std::string text = format_pool_report(scan);
    EXPECT_NE(text.find("QUARANTINED"), std::string::npos);
  }
};

TEST_F(DegradationProof, CleanPool) { run("hal.dll", nullptr, 0); }

TEST_F(DegradationProof, E1_OpcodeReplace) {
  run("hal.dll",
      [](cloud::CloudEnvironment& env) {
        attacks::OpcodeReplaceAttack{}.apply(env, env.guests()[1], "hal.dll");
      },
      2);
}

TEST_F(DegradationProof, E2_InlineHook) {
  run("hal.dll",
      [](cloud::CloudEnvironment& env) {
        attacks::InlineHookAttack{}.apply(env, env.guests()[1], "hal.dll");
      },
      2);
}

TEST_F(DegradationProof, E3_StubPatch) {
  run("dummy.sys",
      [](cloud::CloudEnvironment& env) {
        attacks::StubPatchAttack{}.apply(env, env.guests()[1], "dummy.sys");
      },
      2);
}

TEST_F(DegradationProof, E4_DllImportInject) {
  run("dummy.sys",
      [](cloud::CloudEnvironment& env) {
        attacks::DllImportInjectAttack{}.apply(env, env.guests()[1],
                                               "dummy.sys");
      },
      2);
}

// ---- degraded quorum ----------------------------------------------------------

TEST(DegradedQuorum, RulePredicate) {
  EXPECT_FALSE(VoteStage::quorum_lost(0, 0));  // single-VM pool: no peers
  EXPECT_FALSE(VoteStage::quorum_lost(3, 4));
  EXPECT_FALSE(VoteStage::quorum_lost(3, 5));  // 2*3 > 5
  EXPECT_TRUE(VoteStage::quorum_lost(2, 4));   // tie is not a quorum
  EXPECT_TRUE(VoteStage::quorum_lost(2, 5));
  EXPECT_TRUE(VoteStage::quorum_lost(0, 4));
}

TEST(DegradedQuorum, CheckModuleFlagsQuorumLoss) {
  auto env = make_env(5);
  // 3 of the subject's 4 peers never answer: 1 <= (5-1)/2 voters left.
  for (const std::size_t i : {std::size_t{1}, std::size_t{2},
                              std::size_t{3}}) {
    env->hypervisor().fault_injector().arm(env->guests()[i], always_fault());
  }
  ModChecker checker(env->hypervisor());
  const auto report = checker.check_module(env->guests()[0], "hal.dll");
  EXPECT_EQ(report.peers_total, 4u);
  EXPECT_EQ(report.peers_answered, 1u);
  EXPECT_TRUE(report.quorum_lost);
  EXPECT_FALSE(report.subject_unavailable);
  EXPECT_EQ(report.unavailable_on.size(), 3u);
  // The lone remaining comparison still votes clean — the flag tells the
  // operator how little that vote now means.
  EXPECT_TRUE(report.subject_clean);
  const std::string text = format_report(report);
  EXPECT_NE(text.find("QUORUM LOST"), std::string::npos);
}

TEST(DegradedQuorum, UnavailableSubjectHasNoVerdict) {
  auto env = make_env(4);
  env->hypervisor().fault_injector().arm(env->guests()[0], always_fault());
  ModChecker checker(env->hypervisor());
  const auto report = checker.check_module(env->guests()[0], "hal.dll");
  EXPECT_TRUE(report.subject_unavailable);
  EXPECT_FALSE(report.subject_clean);
  EXPECT_EQ(report.total_comparisons, 0u);
  EXPECT_TRUE(report.quorum_lost);  // zero voters
  EXPECT_FALSE(report.faults.empty());
  const std::string text = format_report(report);
  EXPECT_NE(text.find("UNAVAILABLE"), std::string::npos);
}

// ---- JSON conditional emission ------------------------------------------------

TEST(FaultJson, HealthyReportsCarryNoFaultFields) {
  auto env = make_env(4);
  ModChecker checker(env->hypervisor());
  const auto scan = checker.scan_pool("hal.dll", env->guests());
  EXPECT_FALSE(scan.degraded());
  const std::string json = to_json(scan);
  EXPECT_EQ(json.find("\"quarantined\""), std::string::npos);
  EXPECT_EQ(json.find("\"faults\""), std::string::npos);
  EXPECT_EQ(json.find("\"quorum_lost\""), std::string::npos);

  const auto check = checker.check_module(env->guests()[0], "hal.dll");
  const std::string check_json = to_json(check);
  EXPECT_EQ(check_json.find("\"faults\""), std::string::npos);
  EXPECT_EQ(check_json.find("\"subject_unavailable\""), std::string::npos);
}

TEST(FaultJson, FaultRecordSchema) {
  FaultRecord fault;
  fault.code = FaultCode::kTranslationFault;
  fault.domain = 3;
  fault.va = 0x1000;
  fault.attempt = 2;
  fault.stage = CheckStage::kAcquire;
  fault.detail = "x";
  const std::string json = to_json(fault);
  EXPECT_NE(json.find("\"code\":\"translation-fault\""), std::string::npos);
  EXPECT_NE(json.find("\"domain\":3"), std::string::npos);
  EXPECT_NE(json.find("\"attempt\":2"), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"acquire\""), std::string::npos);
}

// ---- FleetService quarantine surface ------------------------------------------

TEST(FleetFaults, QuarantineSurfacesAndRecurrenceRetries) {
  auto env = make_env(4);
  const vmm::DomainId faulty = env->guests()[2];
  env->hypervisor().fault_injector().arm(faulty, always_fault());

  service::FleetService fleet({/*workers=*/1});
  const std::size_t pool = fleet.add_pool(env->hypervisor(), env->guests());
  auto ring = std::make_shared<service::RingSink>();
  fleet.add_sink(ring);

  service::SweepSpec spec;
  spec.name = "faulty-pool";
  spec.pool_index = pool;
  spec.modules = {"hal.dll", "ntfs.sys"};
  spec.repeat = 2;  // the recurrence must restart from the *full* pool
  spec.cadence = sim_ms(500);
  fleet.start();
  ASSERT_NE(fleet.submit(spec), 0u);
  fleet.drain();

  const auto reports = ring->snapshot();
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& report : reports) {
    // Quarantined on the first module, then sat out the second: exactly
    // one quarantine event per run, and both modules still scanned (3
    // healthy VMs remain).
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0], faulty);
    EXPECT_FALSE(report.pool_exhausted);
    ASSERT_EQ(report.scans.size(), 2u);
    EXPECT_EQ(report.scans[0].quarantined.size(), 1u);
    EXPECT_TRUE(report.scans[1].quarantined.empty());  // already excluded
    const std::string json = service::to_json(report);
    EXPECT_NE(json.find("\"quarantined\""), std::string::npos);
  }
  EXPECT_EQ(fleet.stats().quarantine_events, 2u);
  EXPECT_EQ(fleet.stats().exhausted_runs, 0u);
}

// ---- event-driven sweeps share the fault model --------------------------------

/// Drives one event-driven and one full sweep (three runs, two modules)
/// over the same guests through a 2-shard coordinator and requires every
/// run's verdicts, quarantine list and faults to agree
/// (testutil::expect_runs_identical).  Returns every run's report.
std::vector<service::SweepReport> expect_event_sweep_matches_full(
    cloud::CloudEnvironment& env) {
  service::CoordinatorConfig cfg;
  cfg.shards = 2;
  cfg.workers_per_shard = 1;
  service::ShardCoordinator coordinator(cfg);
  const std::size_t event_pool =
      coordinator.add_pool(env.hypervisor(), env.guests());
  const std::size_t full_pool =
      coordinator.add_pool(env.hypervisor(), env.guests());
  auto ring = std::make_shared<service::RingSink>();
  coordinator.add_sink(ring);

  const auto sweep = [](std::string name, std::size_t pool, bool event) {
    service::SweepSpec spec;
    spec.name = std::move(name);
    spec.pool_index = pool;
    spec.modules = {"hal.dll", "ntfs.sys"};
    spec.repeat = 3;
    spec.cadence = sim_ms(10);
    spec.event_driven = event;
    return spec;
  };
  coordinator.start();
  const service::SweepId event_id =
      coordinator.submit(sweep("event", event_pool, true));
  const service::SweepId full_id =
      coordinator.submit(sweep("full", full_pool, false));
  EXPECT_NE(event_id, 0u);
  EXPECT_NE(full_id, 0u);
  coordinator.drain();  // a guest that breaks the event path hangs here

  std::vector<service::SweepReport> reports = ring->snapshot();
  testutil::expect_runs_identical(
      testutil::index_runs(reports, event_id, full_id, 3));
  return reports;
}

TEST(EventDrivenFaults, FaultingGuestIsQuarantinedAndTheFleetDrains) {
  auto env = make_env(5);
  const vmm::DomainId faulty = env->guests()[3];
  env->hypervisor().fault_injector().arm(faulty, always_fault());
  expect_event_sweep_matches_full(*env);
}

TEST(EventDrivenFaults, UnparseableGuestIsFlaggedAndTheFleetDrains) {
  auto env = make_env(5);
  const vmm::DomainId corrupt = env->guests()[2];
  // The guest zeroes its own module's DOS magic ("MZ"): two bytes that
  // make its copy unparseable.
  const guestos::LoadedModule* hal = env->loader(corrupt).find("hal.dll");
  ASSERT_NE(hal, nullptr);
  const Bytes zero = {0x00, 0x00};
  env->kernel(corrupt).address_space().write_virtual(hal->base,
                                                     ByteView(zero));
  expect_event_sweep_matches_full(*env);
}

/// The guest points its first loader entry's Flink back at itself, so a
/// walk for any later module (or of the whole list) never returns to the
/// PsLoadedModuleList head.
void self_link_first_loader_entry(cloud::CloudEnvironment& env,
                                  vmm::DomainId vm) {
  guestos::GuestKernel& kernel = env.kernel(vm);
  Bytes flink(4);
  kernel.address_space().read_virtual(kernel.ps_loaded_module_list_va(),
                                      MutableByteView(flink));
  const std::uint32_t first = load_le32(flink, 0);
  kernel.address_space().write_virtual(
      first + kernel.profile().off_in_load_order_links, ByteView(flink));
}

TEST(EventDrivenFaults, LoaderListCycleIsQuarantinedAndTheFleetDrains) {
  auto env = make_env(5);
  const vmm::DomainId hostile = env->guests()[2];
  // The walk's entry bound must end in a non-retryable fault that
  // quarantines the guest, not in an exception that kills a shard worker
  // and leaves drain() waiting forever.
  self_link_first_loader_entry(*env, hostile);

  const std::vector<service::SweepReport> reports =
      expect_event_sweep_matches_full(*env);
  ASSERT_EQ(reports.size(), 6u);  // 3 runs each of the event and full sweep
  for (const service::SweepReport& report : reports) {
    EXPECT_EQ(report.quarantined, std::vector<vmm::DomainId>{hostile});
    EXPECT_FALSE(report.pool_exhausted);
    bool cycle_fault = false;
    for (const PoolScanReport& scan : report.scans) {
      for (const FaultRecord& fault : scan.faults) {
        EXPECT_EQ(fault.domain, hostile);
        EXPECT_EQ(fault.code, FaultCode::kLoaderListCycle);
        EXPECT_EQ(fault.attempt, 1u);  // never retried
        cycle_fault = true;
      }
    }
    EXPECT_TRUE(cycle_fault);
  }
}

// The whole-list walk (compare_module_lists) shares the find walk's entry
// bound: the cycle is one non-retryable fault that marks the guest
// unavailable, and the other guests' lists still agree.
TEST(ListWalkFaults, LoaderListCycleMakesTheGuestUnavailable) {
  auto env = make_env(5);
  const vmm::DomainId hostile = env->guests()[2];
  self_link_first_loader_entry(*env, hostile);

  ModChecker checker(env->hypervisor());
  const ListComparisonReport report =
      checker.compare_module_lists(env->guests());
  EXPECT_EQ(report.unavailable, std::vector<vmm::DomainId>{hostile});
  ASSERT_EQ(report.faults.size(), 1u);
  EXPECT_EQ(report.faults[0].domain, hostile);
  EXPECT_EQ(report.faults[0].code, FaultCode::kLoaderListCycle);
  EXPECT_EQ(report.faults[0].attempt, 1u);  // never retried
  EXPECT_TRUE(report.consistent());
  EXPECT_EQ(report.modules_seen, env->config().load_order.size());
}

/// Verdicts and quarantine of an incremental scan equal to a fresh scan
/// of the same state.
void expect_same_verdicts(const PoolScanReport& report,
                          const PoolScanReport& want,
                          const std::string& context) {
  ASSERT_EQ(report.verdicts.size(), want.verdicts.size()) << context;
  for (std::size_t i = 0; i < want.verdicts.size(); ++i) {
    EXPECT_EQ(report.verdicts[i].clean, want.verdicts[i].clean) << context;
    EXPECT_EQ(report.verdicts[i].successes, want.verdicts[i].successes)
        << context;
    EXPECT_EQ(report.verdicts[i].total, want.verdicts[i].total) << context;
    EXPECT_EQ(report.verdicts[i].quarantined, want.verdicts[i].quarantined)
        << context;
  }
  EXPECT_EQ(report.quarantined, want.quarantined) << context;
}

/// A partial refresh that faults after the watch was drained: the victim's
/// ntfs.sys carries a patch on its first dirty page (kFirst) that is
/// reverted while a second page (kSecond) is patched, so the refresh
/// re-reads the first page — now clean — and then faults on the second.
/// Serving that half-patched image would report the victim clean.
class MidRefreshFault : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kFirst = 0x1100;
  static constexpr std::uint32_t kSecond = 0x2100;

  void SetUp() override {
    env_ = make_env(4);
    victim_ = env_->guests()[1];
    fresh_ = std::make_unique<ModChecker>(env_->hypervisor());
    incremental_ = std::make_unique<IncrementalScanner>(env_->hypervisor());
    vmm::FaultInjector& injector = env_->hypervisor().fault_injector();

    // Count the guest reads of a cold fetch (list walk + full
    // extraction), then warm the cache with the first patch in place.
    injector.arm(victim_, vmm::FaultProfile{});
    std::uint64_t before = injector.stats().reads_observed;
    (void)incremental_->scan(kModule, env_->guests());
    extract_reads_ = injector.stats().reads_observed - before;
    attacks::BytePatchAttack(kFirst, 0x01).apply(*env_, victim_, kModule);
    expect_same(incremental_->scan(kModule, env_->guests()), "first patch");

    // Count the reads of a fetch that walks the loader list and finds the
    // image clean: a same-value write elsewhere moves the domain's write
    // generation without touching the module.
    std::array<std::uint8_t, 1> byte{};
    vmm::Domain& domain = env_->hypervisor().domain(victim_);
    domain.memory().read(0, MutableByteView(byte));
    domain.memory().write(0, ByteView(byte));
    before = injector.stats().reads_observed;
    (void)incremental_->scan(kModule, env_->guests());
    walk_reads_ = injector.stats().reads_observed - before;
    injector.disarm(victim_);
    ASSERT_GT(walk_reads_, 0u);
    ASSERT_GT(extract_reads_, walk_reads_);

    attacks::BytePatchAttack(kFirst, 0x01).apply(*env_, victim_, kModule);
    attacks::BytePatchAttack(kSecond, 0x01).apply(*env_, victim_, kModule);
  }

  void expect_same(const PoolScanReport& report, const std::string& context) {
    expect_same_verdicts(report, fresh_->scan_pool(kModule, env_->guests()),
                         context);
  }

  /// The victim's fault was raised while re-reading the second page.
  void expect_second_page_fault(const FaultRecord& fault) {
    const std::uint32_t base = env_->loader(victim_).find(kModule)->base;
    EXPECT_EQ(fault.attempt, 1u);
    EXPECT_EQ(fault.va & ~0xFFFu, (base + kSecond) & ~0xFFFu);
  }

  const std::string kModule = "ntfs.sys";
  std::unique_ptr<cloud::CloudEnvironment> env_;
  vmm::DomainId victim_ = 0;
  std::unique_ptr<ModChecker> fresh_;
  std::unique_ptr<IncrementalScanner> incremental_;
  std::uint64_t walk_reads_ = 0;
  std::uint64_t extract_reads_ = 0;
};

TEST_F(MidRefreshFault, NextTickReextracts) {
  // Reads 1..walk_reads + 1 (list walk, first page) succeed, every later
  // one faults: the victim is quarantined for this tick.
  vmm::FaultInjector& injector = env_->hypervisor().fault_injector();
  vmm::FaultProfile profile;
  profile.fail_after_reads = walk_reads_ + 1;
  injector.arm(victim_, profile);
  const PoolScanReport faulted = incremental_->scan(kModule, env_->guests());
  ASSERT_EQ(faulted.quarantined, std::vector<vmm::DomainId>{victim_});
  ASSERT_FALSE(faulted.faults.empty());
  expect_second_page_fault(faulted.faults[0]);
  expect_same(faulted, "fault mid refresh");

  // The guest answers again: the next fetch must re-extract the image,
  // never serve the half-patched copy, and flag the victim.
  injector.disarm(victim_);
  const std::uint64_t full_before = incremental_->stats().full_extractions;
  const PoolScanReport recovered = incremental_->scan(kModule, env_->guests());
  EXPECT_EQ(incremental_->stats().full_extractions, full_before + 1);
  expect_same(recovered, "after recovery");
  EXPECT_FALSE(recovered.verdicts[1].clean);
}

TEST_F(MidRefreshFault, RetryInTheSameTickReextracts) {
  // Exactly one fault, on the second page's read, and none in the retry:
  // pick the seed of a rate-based profile whose (deterministic) decision
  // stream has that shape, replayed on a private injector.
  vmm::FaultProfile profile;
  profile.read_fault_rate = 0.01;
  const std::uint64_t fault_at = walk_reads_ + 2;
  const std::uint64_t clean_after = extract_reads_ + 64;  // retry headroom
  bool found = false;
  for (std::uint64_t seed = 1; seed < 100000 && !found; ++seed) {
    profile.seed = seed;
    vmm::FaultInjector replay;
    replay.arm(victim_, profile);
    found = true;
    for (std::uint64_t read = 1; read <= fault_at + clean_after; ++read) {
      if (replay.should_fault_read(victim_) != (read == fault_at)) {
        found = false;
        break;
      }
    }
  }
  ASSERT_TRUE(found);

  vmm::FaultInjector& injector = env_->hypervisor().fault_injector();
  injector.arm(victim_, profile);
  const std::uint64_t full_before = incremental_->stats().full_extractions;
  const PoolScanReport report = incremental_->scan(kModule, env_->guests());
  injector.disarm(victim_);
  // Attempt 2 answered — with a full re-extraction, not the drained cache.
  EXPECT_TRUE(report.quarantined.empty());
  ASSERT_EQ(report.faults.size(), 1u);
  expect_second_page_fault(report.faults[0]);
  EXPECT_EQ(incremental_->stats().full_extractions, full_before + 1);
  expect_same(report, "retried refresh");
  EXPECT_FALSE(report.verdicts[1].clean);
}

TEST_F(MidRefreshFault, PageRemappedOutsideGuestRamIsNeverServedStale) {
  // Fresh sessions on both sides, so every fetch re-walks the page tables.
  ModCheckerConfig config;
  config.reuse_sessions = false;
  IncrementalScanner incremental(env_->hypervisor(), config);
  ModChecker fresh(env_->hypervisor(), config);
  const auto check = [&](const std::string& context) {
    const PoolScanReport report = incremental.scan(kModule, env_->guests());
    expect_same_verdicts(report, fresh.scan_pool(kModule, env_->guests()),
                         context);
    return report;
  };
  (void)check("warm");

  // A write dirties the watched page, then the guest points that page's
  // PTE past the end of its RAM.  The refresh finds the frame moved and
  // falls back to a full extraction, which registers a fresh (clean)
  // watch before the copy throws MemoryError out of the physical layer.
  // The retry must not take that clean watch as a clean module.
  const std::uint32_t page_va =
      (env_->loader(victim_).find(kModule)->base + kSecond) & ~0xFFFu;
  vmm::AddressSpace& aspace = env_->kernel(victim_).address_space();
  const std::uint64_t frame = *aspace.translate(page_va);
  attacks::BytePatchAttack(kSecond, 0x02).apply(*env_, victim_, kModule);
  const std::uint64_t ram = env_->hypervisor().domain(victim_).memory().size();
  aspace.map_page(page_va, ram, true);
  const PoolScanReport faulted = check("page outside guest RAM");
  EXPECT_EQ(faulted.quarantined, std::vector<vmm::DomainId>{victim_});

  // The guest maps the page back: the next fetch re-extracts it.
  aspace.map_page(page_va, frame & ~0xFFFull, true);
  const std::uint64_t full_before = incremental.stats().full_extractions;
  const PoolScanReport recovered = check("page mapped back");
  EXPECT_EQ(incremental.stats().full_extractions, full_before + 1);
  EXPECT_TRUE(recovered.quarantined.empty());
  EXPECT_FALSE(recovered.verdicts[1].clean);
}

}  // namespace
