// FleetService — ModChecker as a resident multi-pool monitor.
//
// The paper's prototype is a one-shot tool (§V: run, print, exit); related
// VMI monitors run as long-lived services instead.  FleetService is that
// service layer: it owns N registered pools (each with its own
// CheckContext/CheckPipeline, so warm VMI sessions and cost accounting
// stay per-pool), accepts SweepSpecs (module set × pool × cadence ×
// priority), schedules their runs onto worker threads, supports
// cancellation of pending *and* in-flight sweeps plus graceful drain, and
// emits one SweepReport per run to every registered sink.  Sweeps marked
// event_driven consult the hypervisor's WriteWatch at each cadence tick:
// provably-clean ticks re-emit the last results without scanning, dirty
// ticks scan incrementally.
//
// Since the sharded control plane landed, FleetService is a facade over a
// single-shard ShardCoordinator (service/coordinator.hpp): same API, same
// report bytes, same registry namespace — the classic topology is the
// shards=1 special case of the coordinator, not a separate code path.
// Fleets that want multiple shards, bounded queues with load shedding, or
// chaos testing construct a ShardCoordinator directly.
//
// Threading model (TSan-clean by construction):
//   * pools, sinks and the progress hook are fixed before start() — the
//     worker threads only ever read them;
//   * a per-pool mutex serializes sweeps that target the same pool (the
//     pipeline's session pool is thread-safe, but serializing per pool
//     keeps per-pool timelines meaningful and contention predictable);
//   * all cross-thread bookkeeping (queue, cancellation, stats) is behind
//     the coordinator's and queues' own mutexes.
//
// Lifecycle: add_pool()/add_sink() → start() → submit()/cancel() →
// drain() (run everything queued, then stop) or stop() (drop the backlog,
// finish in-flight module scans, then stop).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "service/coordinator.hpp"
#include "service/report.hpp"
#include "service/sweep_queue.hpp"

namespace mc::service {

struct FleetConfig {
  /// Worker threads pulling sweeps off the queue (>= 1).
  std::size_t workers = 2;
  /// Registry backing the service's counters/gauges and, unless a pool's
  /// own config says otherwise, every pool pipeline (null = process
  /// default).
  telemetry::MetricRegistry* metrics = nullptr;
  /// Span recorder shared with every pool pipeline that does not bring its
  /// own; pair it with a ChromeTraceSink for a browsable fleet timeline.
  telemetry::TraceRecorder* tracer = nullptr;
  /// Attach a registry snapshot to every SweepReport ("telemetry" field).
  bool emit_telemetry = false;
};

class FleetService {
 public:
  explicit FleetService(FleetConfig config = {});

  /// Stops the service (dropping any backlog) if still running.
  ~FleetService() = default;

  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  /// Registers a pool of VMs on one hypervisor; returns the index
  /// SweepSpec::pool_index refers to.  Call before start().
  std::size_t add_pool(const vmm::Hypervisor& hypervisor,
                       std::vector<vmm::DomainId> vms,
                       core::ModCheckerConfig config = {}) {
    return coordinator_.add_pool(hypervisor, std::move(vms),
                                 std::move(config));
  }

  /// Registers a report sink.  Call before start().
  void add_sink(std::shared_ptr<SweepSink> sink) {
    coordinator_.add_sink(std::move(sink));
  }

  /// Observability hook invoked before each module scan of each run
  /// (sweep id, run index, module).  Call before start(); may be invoked
  /// concurrently from several workers.
  void set_module_hook(
      std::function<void(SweepId, std::size_t, const std::string&)> hook) {
    coordinator_.set_module_hook(std::move(hook));
  }

  /// Spins up the workers.  Sweeps submitted before start() sit in the
  /// queue and run in priority order once workers exist.
  void start() { coordinator_.start(); }

  /// Enqueues a sweep; returns its id, or 0 if the service is draining /
  /// stopped (the sweep is dropped).  Validates pool_index and modules.
  SweepId submit(SweepSpec spec) { return coordinator_.submit(std::move(spec)); }

  /// Cancels a sweep: pending runs are struck from the queue, an
  /// in-flight run stops before its next module scan (its report carries
  /// cancelled = true), and recurrences stop.  Returns true if a pending
  /// run was struck; an in-flight run is stopped asynchronously either
  /// way.
  bool cancel(SweepId id) { return coordinator_.cancel(id); }

  /// Graceful drain: refuse new submissions, run every queued sweep —
  /// including the remaining runs of finite repeat chains — to
  /// completion, then join the workers.
  void drain() { coordinator_.drain(); }

  /// Fast stop: drop the backlog, let in-flight module scans finish, join
  /// the workers.
  void stop() { coordinator_.stop(); }

  std::size_t pool_count() const { return coordinator_.pool_count(); }
  std::size_t pending_sweeps() const { return coordinator_.pending_sweeps(); }

  /// The coordinator's counters (the fleet is its single-shard case).
  using Stats = ShardCoordinator::Stats;
  Stats stats() const { return coordinator_.stats(); }

 private:
  ShardCoordinator coordinator_;
};

}  // namespace mc::service
