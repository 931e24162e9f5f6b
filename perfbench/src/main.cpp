// hdtest_perfbench: runs one benchmark workload and prints its metrics.
//
//   hdtest_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--work-dir DIR] [--dim D] [--tiny]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer table.
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// Exit status 0 when the run completed (correct or not), 2 on bad usage or
// a refused environment.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics, printed by every workload.
constexpr MetricSpec kEndToEnd[] = {
    {"adv_per_min", "1/min"},  {"queries_per_adv", "count"},
    {"avg_l2", "l2"},          {"queries_per_s", "1/s"},
    {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
};

// Per-layer metrics of the traced run. A layer a workload does not run
// reads 0 there.
constexpr MetricSpec kPerLayer[] = {
    {"hdc.encode_delta_us", "us"},
    {"hdc.delta_pixels", "count"},
    {"hdc.encode_full_us", "us"},
    {"hdc.am_sweep_us", "us"},
    {"fuzz.mutate_us", "us"},
    {"fuzz.perturb_us", "us"},
    {"fuzz.select_us", "us"},
    {"fuzz.seed_warmup_us", "us"},
    {"fuzz.stream_p50_ms", "ms"},
    {"fuzz.stream_p99_ms", "ms"},
    {"fuzz.iters_per_stream", "count"},
    {"fuzz.success_rate", "ratio"},
    {"fuzz.discard_ratio", "ratio"},
    {"fuzz.us_per_query", "us"},
    {"shard.busy_share", "ratio"},
    {"shard.overshoot_streams", "count"},
    {"shard.slices", "count"},
    {"shard.stop_cuts", "count"},
    {"shard.sweep_ms", "ms"},
    {"fleet.execute_share", "ratio"},
    {"fleet.protocol_ms", "ms"},
    {"fleet.wall_ms", "ms"},
    {"fleet.streams_executed", "count"},
    {"fleet.useful_stream_ratio", "ratio"},
    {"fleet.commits_accepted", "count"},
    {"fleet.duplicate_commits", "count"},
    {"fleet.leases_reissued", "count"},
    {"fleet.corrupt_frames", "count"},
    {"durable.checkpoints", "count"},
    {"durable.journal_seq", "count"},
    {"durable.checkpoint_ms", "ms"},
    {"durable.fsync_ms", "ms"},
    {"serialize.map_ms", "ms"},
    {"serve.batch_p50_ms", "ms"},
    {"serve.batch_p99_ms", "ms"},
    {"serve.encode_share", "ratio"},
    {"campaign.unattributed_share", "ratio"},
    {"probe.replay_match", "ratio"},
    {"probe.generations", "count"},
    {"trace.spans_dropped", "count"},
    {"trace.overhead", "ratio"},
};

// Environment switches that select code paths the ROADMAP plans to delete;
// a result measured under any of them is not comparable.
constexpr const char* kRefusedEnv[] = {"HDTEST_KERNEL_BACKEND", "HDTEST_DEVICE",
                                       "HDTEST_CODEBOOK"};

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: hdtest_perfbench --workload campaign-gauss|campaign-rand|"
               "fleet-sim|serve-mmap --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--dim D] [--tiny]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Options& options, std::string& error) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      error = "missing value for " + arg;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      options.trace = std::strtoul(value.c_str(), &end, 10) != 0;
    } else if (arg == "--dim") {
      options.dim = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      error = "unknown option " + arg;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      error = "bad value for " + arg + ": " + value;
      return false;
    }
  }
  if (options.workload.empty() || !have_seed) {
    error = "--workload and --seed are required";
    return false;
  }
  if (!(options.seconds > 0.0)) {
    error = "--seconds must be positive";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!parse(argc, argv, options, error)) return usage(error.c_str());
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "error: %s is set; results under a forced backend, device "
                   "or codebook mode are not comparable — unset it\n",
                   name);
      return 2;
    }
  }

  const std::map<std::string, std::function<Report()>> workloads = {
      {"campaign-gauss",
       [&] { return perfbench::run_campaign_workload(options, "gauss", 4096); }},
      {"campaign-rand",
       [&] { return perfbench::run_campaign_workload(options, "rand", 16384); }},
      {"fleet-sim", [&] { return perfbench::run_fleet_workload(options); }},
      {"serve-mmap", [&] { return perfbench::run_serve_workload(options); }},
  };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) return usage("unknown workload");

  Report report;
  try {
    report = it->second();
  } catch (const std::exception& e) {
    report.fail(std::string("workload aborted: ") + e.what());
    report.attempted = std::max<std::size_t>(report.attempted, 1);
    report.failed = std::max<std::size_t>(report.failed, 1);
  }

  std::string json;
  const auto add = [&](const MetricSpec& spec) {
    double value = 0.0;
    if (const auto found = report.metrics.find(spec.name);
        found != report.metrics.end()) {
      value = found->second;
    }
    if (!std::isfinite(value)) {
      report.fail(std::string(spec.name) + " is not finite");
      value = 0.0;
    }
    std::printf("  %-30s %20.6f %s\n", spec.name, value, spec.unit);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", spec.name, value, spec.unit);
    json += buf;
  };
  std::printf("%s metrics (%s):\n", options.trace ? "per-layer" : "end-to-end",
              options.workload.c_str());
  if (options.trace) {
    for (const auto& spec : kPerLayer) add(spec);
  } else {
    for (const auto& spec : kEndToEnd) {
      if (report.metrics.count(spec.name) == 0) {
        report.fail(std::string(spec.name) + " was not measured");
      }
      add(spec);
    }
  }
  std::printf("ops: %zu attempted, %zu failed; checks %s\n", report.attempted,
              report.failed, report.correct ? "passed" : "FAILED");
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false", report.attempted,
              report.failed, json.c_str());
  return 0;
}
