// mc_perfbench — end-to-end benchmark driver for ModChecker.
//
//   mc_perfbench --workload <full_sweep|event_ticks|fleet_drain>
//                --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints human-readable notes (sample counts and the like) and every metric
// the workload measured, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status 0 when the run completed (even if a verdict was wrong:
// that is reported as correct=false), 2 on a usage error, 1 on any other
// error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "util/log.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "mc_perfbench: %s\nusage: mc_perfbench --workload "
               "<full_sweep|event_ticks|fleet_drain> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (arg == "--out-dir") {
        opt.out_dir = value;
      } else {
        usage(("unknown option " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) {
    usage("--workload is required");
  }
  if (!(opt.seconds > 0.0) || opt.seconds > 600.0) {
    usage("--seconds must be in (0, 600]");
  }
  return opt;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  mc::set_log_level(mc::LogLevel::kWarn);

  Result result;
  SpanRecorder rec;
  try {
    if (opt.workload == "full_sweep") {
      result = run_full_sweep(opt, rec);
    } else if (opt.workload == "event_ticks") {
      result = run_event_ticks(opt, rec);
    } else if (opt.workload == "fleet_drain") {
      result = run_fleet_drain(opt, rec);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mc_perfbench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }

  if (opt.trace) {
    result.set("failed_share",
               ratio(static_cast<double>(result.failed),
                     static_cast<double>(result.attempted)),
               "ratio");
    const std::string path = opt.out_dir + "/trace-" + opt.workload + ".json";
    std::map<std::string, double> flat;
    for (const auto& [name, metric] : result.metrics) {
      flat[name] = metric.value;
    }
    if (!rec.write(path, flat)) {
      std::fprintf(stderr, "mc_perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    result.note("spans written to " + path);
  }
  for (const std::string& line : result.notes) {
    std::printf("# %s\n", line.c_str());
  }
  std::printf("# %s seed=%llu attempted=%llu failed=%llu failed_share=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              json_number(ratio(static_cast<double>(result.failed),
                                static_cast<double>(result.attempted)))
                  .c_str());

  std::string json = "{\"correct\": ";
  const bool correct =
      result.failed == 0 && result.checks_passed && result.attempted > 0;
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "mc_perfbench: metric %s is not finite\n",
                   name.c_str());
      return 1;
    }
    std::printf("# %-36s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + json_number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
