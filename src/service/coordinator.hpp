// ShardCoordinator — the sharded control plane over the SweepEngine.
//
// Layering (top to bottom):
//
//   FleetService (facade)        classic single-shard API, unchanged
//   ShardCoordinator             routing, admission, SLO, chaos re-shard
//   Shard × S                    per-shard SweepQueue + accounting
//   SweepEngine                  pools, event state, sinks, run execution
//
// Routing.  Pools are assigned to shards by a consistent-hash ring over
// the live shard set (util/hash_ring.hpp): every run of a sweep lands on
// the shard owning its pool, so one pool's runs never race each other
// across shards and the per-pool warm caches stay hot on one queue.  When
// the shard count changes — chaos kills one — only the dead shard's pools
// move; survivors keep their assignments (the ring property).
//
// Admission.  Every push goes through the target shard's bounded queue via
// the AdmissionPolicy (service/admission.hpp): recurring ticks are shed
// before the bound breaks, one-shot and alerted sweeps are never dropped.
//
// SLO + rebalancing.  The coordinator tracks a simulated frontier (max due
// time of any completed run — no host clocks, so the accounting is
// deterministic and lint-clean).  A run popped more than `slo_lag` behind
// the frontier counts a deadline miss; an idle shard's worker steals from
// the sibling whose oldest pending run lags the most (subject to
// `steal_lag`), so a hot pool's backlog spreads instead of aging.
//
// Chaos.  ChaosConfig arms a deterministic shard death: a seeded RNG picks
// the victim at start(), and the victim's worker kills its own shard after
// its Nth completed run.  The kill drains the dead queue and re-emits
// every pending run onto the survivors (flagged rescheduled_from_shard in
// the report JSON) — no sweep is lost, and because all warm state lives in
// the engine below the shard layer, per-pool scan costs are unchanged.
// Two runs with the same seed replay identically under SimClock.
//
// Failed runs.  An exception escaping a run (a throwing module hook or
// sink) fails that run alone: the worker counts it (Stats::failed_runs),
// releases its in-flight accounting so drain() still returns, and keeps
// looping.  The run is not retried and its recurrence chain ends.
//
// Worker wake protocol.  Workers poll queues with try_pop (own shard
// first, then steal) and park on one coordinator-wide condition variable;
// every push/close/kill notifies under the wake mutex, so a wakeup can
// never be lost between a worker's last poll and its wait.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "service/admission.hpp"
#include "service/engine.hpp"
#include "service/shard.hpp"
#include "util/hash_ring.hpp"
#include "util/thread_pool.hpp"

namespace mc::service {

/// Deterministic shard-death injection (off by default).
struct ChaosConfig {
  bool enabled = false;
  /// Seeds the victim selection; same seed + same submissions = same
  /// replay (kills are triggered by completion counts, not wall time).
  std::uint64_t seed = 0;
  /// The victim shard dies after its workers complete this many runs.
  std::uint64_t kill_after_completions = 3;
};

struct CoordinatorConfig {
  /// Worker shards (>= 1).  1 = the classic FleetService topology.
  std::size_t shards = 1;
  /// Worker threads per shard (>= 1).
  std::size_t workers_per_shard = 2;
  /// Virtual nodes per shard on the routing ring.
  std::size_t virtual_nodes = 64;
  AdmissionPolicy admission;
  ChaosConfig chaos;
  /// Registry backing the coordinator's and engine's counters (null =
  /// process default).
  telemetry::MetricRegistry* metrics = nullptr;
  telemetry::TraceRecorder* tracer = nullptr;
  /// Attach a registry snapshot to every SweepReport ("telemetry" field).
  bool emit_telemetry = false;
};

class ShardCoordinator {
 public:
  explicit ShardCoordinator(CoordinatorConfig config = {});

  /// Stops the coordinator (dropping any backlog) if still running.
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// Registers a pool of VMs on one hypervisor; returns the index
  /// SweepSpec::pool_index refers to.  Call before start().
  std::size_t add_pool(const vmm::Hypervisor& hypervisor,
                       std::vector<vmm::DomainId> vms,
                       core::ModCheckerConfig config = {});

  /// Registers a report sink.  Call before start().
  void add_sink(std::shared_ptr<SweepSink> sink);

  /// Observability hook invoked before each module scan of each run
  /// (sweep id, run index, module).  Call before start(); may be invoked
  /// concurrently from several workers.
  void set_module_hook(
      std::function<void(SweepId, std::size_t, const std::string&)> hook);

  /// Spins up the shard workers.  Sweeps submitted before start() sit in
  /// their shards' queues and run in priority order once workers exist.
  void start();

  /// Enqueues a sweep on its pool's shard; returns its id, or 0 if the
  /// coordinator is draining / stopped or admission shed the sweep at the
  /// door.  Validates pool_index and modules.
  SweepId submit(SweepSpec spec);

  /// Cancels a sweep: pending runs are struck from every shard's queue, an
  /// in-flight run stops before its next module scan (its report carries
  /// cancelled = true), and recurrences stop.  Returns true if a pending
  /// run was struck; an in-flight run is stopped asynchronously either
  /// way.
  bool cancel(SweepId id);

  /// Graceful drain: refuse new submissions, run every queued sweep —
  /// including the remaining runs of finite repeat chains — to
  /// completion, then join the workers.
  void drain();

  /// Fast stop: drop the backlog, let in-flight module scans finish, join
  /// the workers.
  void stop();

  std::size_t pool_count() const { return engine_.pool_count(); }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t live_shards() const;
  std::size_t pending_sweeps() const;

  /// The shard currently owning `pool_index` on the routing ring.
  std::size_t shard_of(std::size_t pool_index) const;

  /// Fleet-wide counters (the classic eight plus the coordinator's own).
  // mc-lint: allow(adhoc-stats)
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed_runs = 0;
    std::uint64_t cancelled_runs = 0;
    /// Runs ended by an exception escaping the engine (a throwing module
    /// hook or sink, say); each ends its sweep's recurrence chain.
    std::uint64_t failed_runs = 0;
    std::uint64_t dropped_pending = 0;
    std::uint64_t quarantine_events = 0;
    std::uint64_t exhausted_runs = 0;
    std::uint64_t sweeps_skipped_clean = 0;
    std::uint64_t event_runs = 0;
    /// Runs an idle shard lifted off a lagging sibling's queue.
    std::uint64_t steals = 0;
    /// Recurring ticks dropped by admission (shed at the door or evicted
    /// from a full queue).  Always 0 with an unbounded policy.
    std::uint64_t load_shed = 0;
    /// Unsheddable sweeps admitted past a full queue's capacity.
    std::uint64_t overflow = 0;
    /// Chaos shard deaths executed.
    std::uint64_t reshards = 0;
    /// Runs rescued off dead shards and re-emitted onto survivors.
    std::uint64_t rescheduled = 0;
    /// Runs popped more than AdmissionPolicy::slo_lag behind the frontier.
    std::uint64_t deadline_misses = 0;
  };
  Stats stats() const;

  /// Per-shard accounting (index-ordered; dead shards included).
  std::vector<ShardStats> shard_stats() const;

  /// Max simulated due time of any completed run (the SLO reference
  /// point).
  SimNanos frontier() const {
    return static_cast<SimNanos>(frontier_.load(std::memory_order_relaxed));
  }

 private:
  /// True when any sharded-mode machinery is armed (shards > 1, a bounded
  /// admission policy, or chaos): gates the coordinator.* and shard<i>.*
  /// metric names so classic single-shard runs keep the historical
  /// registry namespace byte-identical.
  bool sharded_mode() const;

  void worker_loop(std::size_t shard_index);
  /// Routes one run to its pool's live shard through admission; stamps the
  /// dirty hint.  Returns the admission outcome; `routed_to` (optional)
  /// receives the shard that took the run.
  AdmitResult route(QueuedSweep run, std::size_t* routed_to = nullptr);
  /// Steal scan for an idle worker of `thief`: the eligible sibling whose
  /// oldest pending run lags the most.  Returns the victim's index, or
  /// nullopt when nothing is stealable.
  std::optional<std::size_t> pick_steal_victim(std::size_t thief) const;
  /// Chaos: kill `victim`, re-shard its backlog onto the survivors.
  void kill_shard(std::size_t victim);
  bool is_cancelled_anywhere(SweepId id) const;
  void notify_workers();
  std::size_t total_pending() const;
  void join_workers();

  CoordinatorConfig config_;
  SweepEngine engine_;

  // "service.*" cells — same names the classic FleetService used, so the
  // shards=1 registry namespace (and emit_telemetry JSON) is unchanged.
  telemetry::OwnedCounter submitted_;
  telemetry::OwnedCounter dropped_pending_;
  telemetry::OwnedCounter failed_runs_;
  telemetry::Gauge queue_depth_;
  telemetry::Gauge sweeps_in_flight_;
  // "coordinator.*" cells — detached in classic mode (see sharded_mode()).
  telemetry::OwnedCounter steals_;
  telemetry::OwnedCounter load_shed_;
  telemetry::OwnedCounter overflow_;
  telemetry::OwnedCounter reshards_;
  telemetry::OwnedCounter rescheduled_;
  telemetry::OwnedCounter deadline_misses_;

  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex ring_mutex_;  // guards ring_ (chaos mutates it)
  HashRing ring_;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;

  std::atomic<std::uint64_t> frontier_{0};

  std::unique_ptr<ThreadPool> workers_;
  std::vector<std::future<void>> worker_futures_;

  std::size_t chaos_victim_ = kNoShard;
  std::atomic<bool> chaos_fired_{false};

  mutable std::mutex mutex_;  // guards next_id_, started_, draining_
  SweepId next_id_ = 1;
  bool started_ = false;
  bool draining_ = false;
};

}  // namespace mc::service
