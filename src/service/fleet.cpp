#include "service/fleet.hpp"

#include "util/error.hpp"

namespace mc::service {

namespace {

CoordinatorConfig classic_topology(const FleetConfig& config) {
  MC_CHECK(config.workers >= 1, "FleetService needs at least one worker");
  CoordinatorConfig out;
  out.shards = 1;  // the classic single-queue topology
  out.workers_per_shard = config.workers;
  out.metrics = config.metrics;
  out.tracer = config.tracer;
  out.emit_telemetry = config.emit_telemetry;
  return out;
}

}  // namespace

FleetService::FleetService(FleetConfig config)
    : coordinator_(classic_topology(config)) {}

}  // namespace mc::service
