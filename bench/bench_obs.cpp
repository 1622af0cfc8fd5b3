// Observability overhead (DESIGN.md §6h): run_fleet_scale with per-shard
// capture domains OFF vs ON.
//
// Three committed tables:
//   * A capture-determinism table (frames, trace events, open spans,
//     metric keys, and FNV-1a hashes of the merged trace.json and
//     metrics.jsonl per fleet size, plus whether the digest matched the
//     capture-off run) — every cell is a pure function of (seed, config),
//     independent of the shard/thread counts used to produce it. The
//     hashes pin the exported bytes across commits.
//   * The same columns for run_fleet's full platforms under a compute
//     outlier plus uplink chaos (the perfbench fleet_platform plan): its
//     trace carries the args of every recording layer (elastic, dsf,
//     health, ddi, faults, net), so the hashes pin those bytes too. On
//     this path capture depends on the shard count (fleet.hpp), so the
//     shard count is fixed and only the thread count is free.
//   * A wall-plane capture-overhead table: the median capture-on /
//     capture-off wall-clock RATIO of 15 alternating pairs
//     (bench::record_overhead). Absolute wall times are never committed —
//     the ratio is unit-free, and the gate's 15% wall-plane tolerance is
//     the overhead budget the sharded capture path has to keep.
//
// When VDAP_OBS_ARTIFACTS names a directory, the capture-on run's merged
// trace.json / metrics.jsonl / shards.jsonl are written there so the CI
// bench-gate job can upload them for offline inspection with
// `vdap-report` (check.sh exports it under build/bench-results/).
#include "bench_output.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/fleet.hpp"
#include "core/fleet_scale.hpp"
#include "sim/thread_pool.hpp"
#include "telemetry/export.hpp"
#include "util/stats.hpp"

namespace {

using namespace vdap;
using core::FleetScaleConfig;
using core::FleetScaleOutcome;

FleetScaleConfig obs_config(int vehicles, bool capture) {
  FleetScaleConfig cfg;
  cfg.vehicles = vehicles;
  cfg.seed = 7;
  // Deterministic columns are shard/thread-count independent (the obs
  // sweep test proves it), so run the fast configuration.
  cfg.shards = 8;
  cfg.threads = sim::ThreadPool::hardware_threads();
  cfg.epoch = sim::seconds(1);
  cfg.sample_period = sim::seconds(2);
  cfg.samples_per_tick = 2;
  cfg.run_until = sim::seconds(4);
  cfg.drain = sim::seconds(4);
  cfg.shipper.flush_period = sim::seconds(2);
  cfg.capture = capture;
  return cfg;
}

void print_capture_table() {
  util::TextTable table(
      "sharded capture determinism — merged exports, seed 7 "
      "(shard/thread-count independent)");
  table.set_header({"vehicles", "frames", "trace events", "open spans",
                    "metric keys", "trace fnv", "metrics fnv",
                    "digest match"});
  for (int n : {1000, 10000}) {
    FleetScaleOutcome off = core::run_fleet_scale(obs_config(n, false));
    FleetScaleOutcome on = core::run_fleet_scale(obs_config(n, true));
    table.add_row({std::to_string(n), std::to_string(on.frames_delivered),
                   std::to_string(on.trace_events),
                   std::to_string(on.open_spans),
                   std::to_string(on.metric_keys),
                   bench::fnv_hex(on.chrome_trace),
                   bench::fnv_hex(on.metrics_jsonl),
                   on.digest == off.digest ? "yes" : "NO"});
  }
  bench::BenchOutput::record(table);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "Expected shape: trace events scale with frames; open spans drain to\n"
      "0; the digest never moves when capture toggles (the capture plane\n"
      "observes the run, it must not perturb it).\n\n");
}

void print_platform_capture_table() {
  constexpr int kVehicles = 16;
  constexpr int kImpaired = 3;
  sim::FaultPlan plan = core::fleet_compute_outlier_plan(kImpaired);
  const sim::FaultPlan chaos = core::fleet_uplink_chaos_plan();
  plan.name += "+" + chaos.name;
  plan.faults.insert(plan.faults.end(), chaos.faults.begin(),
                     chaos.faults.end());
  core::FleetConfig cfg;
  cfg.vehicles = kVehicles;
  cfg.seed = 7;
  cfg.shards = 2;
  cfg.threads = 2;
  cfg.dir_tag = "bench-obs-platform";
  cfg.capture = true;
  const core::FleetOutcome out = core::run_fleet(plan, cfg);
  util::TextTable table(
      "platform capture determinism — run_fleet, 16 vehicles on 2 shards, "
      "seed 7, compute outlier + uplink chaos (thread-count independent)");
  table.set_header({"vehicles", "frames", "trace events", "open spans",
                    "metric keys", "trace fnv", "metrics fnv"});
  table.add_row({std::to_string(kVehicles),
                 std::to_string(out.frames_ingested),
                 std::to_string(out.trace_events),
                 std::to_string(out.open_spans),
                 std::to_string(out.metric_keys),
                 bench::fnv_hex(out.chrome_trace),
                 bench::fnv_hex(out.metrics_jsonl)});
  bench::BenchOutput::record(table);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "Expected shape: open spans drain to 0; the fnv cells move only when\n"
      "a layer records different trace args or metrics.\n\n");
}

void write_artifacts(const FleetScaleOutcome& on) {
  const char* dir = std::getenv("VDAP_OBS_ARTIFACTS");
  if (dir == nullptr || *dir == '\0') return;
  const std::string base(dir);
  if (telemetry::write_text_file(base + "/trace.json", on.chrome_trace) &&
      telemetry::write_text_file(base + "/metrics.jsonl", on.metrics_jsonl) &&
      telemetry::write_text_file(base + "/shards.jsonl", on.shards_jsonl)) {
    std::printf("obs artifacts (trace.json, metrics.jsonl, shards.jsonl) "
                "written under %s\n\n", dir);
  } else {
    std::fprintf(stderr,
                 "warning: VDAP_OBS_ARTIFACTS=%s is not writable — "
                 "skipping artifact dump\n", dir);
  }
}

void print_overhead_table() {
  constexpr int n = 10000;
  const FleetScaleOutcome on = bench::record_overhead(
      "capture overhead — 10k vehicles, capture-on / capture-off wall ratio",
      n, [](bool capture) {
        return core::run_fleet_scale(obs_config(n, capture));
      });
  write_artifacts(on);
}

}  // namespace

int main() {
  vdap::bench::BenchOutput bench_out("obs");
  print_capture_table();
  print_platform_capture_table();
  print_overhead_table();
  return 0;
}
