// Continuous-profiling overhead (DESIGN.md §6j): run_fleet_scale with
// the tag-stack sampling profiler OFF vs ON (per-thread seqlock stacks,
// ~1 kHz background sampler folding collapsed stacks per slot).
//
// Two committed tables:
//   * A prof-determinism table: sampler ticks > 0, truncation count, and
//     whether the sim digest matched the sampler-off run. Tick counts are
//     wall-clock and never committed as numbers — only the "sampled at
//     all" / "digest match" booleans are, because those are the contract:
//     the profiler observes the run through seqlock snapshots and must
//     not perturb a single deterministic byte (the `prof` sweep test
//     proves it across the shard × thread matrix).
//   * A wall-plane prof-overhead table: the median sampler-on /
//     sampler-off wall-clock RATIO of 15 alternating pairs
//     (bench::record_overhead). Absolute wall times are never committed —
//     the ratio is unit-free, and the gate's 15% wall-plane tolerance is
//     the overhead budget the hot-path push/pop and the sampler thread
//     have to keep.
//
// The last sampler-on run's profile.jsonl is attached to the bench output
// as BENCH_prof.profile.jsonl (BenchOutput::record_profile). The gate
// does not compare it; when the gate fails, scripts/check.sh renders it
// against the committed one with `vdap-report --profile --diff`.
#include "bench_output.hpp"

#include <cstdio>
#include <string>

#include "core/fleet_scale.hpp"
#include "sim/thread_pool.hpp"
#include "util/stats.hpp"

namespace {

using namespace vdap;
using core::FleetScaleConfig;
using core::FleetScaleOutcome;

FleetScaleConfig prof_config(int vehicles, bool prof) {
  FleetScaleConfig cfg;
  cfg.vehicles = vehicles;
  cfg.seed = 7;
  // The digest is shard/thread-count independent, so run the fast
  // configuration; the prof sweep test covers the full matrix.
  cfg.shards = 8;
  cfg.threads = sim::ThreadPool::hardware_threads();
  cfg.epoch = sim::seconds(1);
  cfg.sample_period = sim::seconds(2);
  cfg.samples_per_tick = 2;
  cfg.run_until = sim::seconds(4);
  cfg.drain = sim::seconds(4);
  cfg.shipper.flush_period = sim::seconds(2);
  // The ingest backend adds the decode/detect PROF_SCOPE sites to the hot
  // path, so the ratio prices the fully instrumented pipeline.
  cfg.ingest_backend = true;
  cfg.prof = prof;
  // Pin the interval: the committed tables must not move with the
  // environment (VDAP_PROF_INTERVAL_US is for interactive runs).
  cfg.prof_opts.interval_us = 1000;
  return cfg;
}

void print_determinism_table() {
  util::TextTable table(
      "prof determinism — sampler on vs off, seed 7 (tick counts are "
      "wall-clock; only the booleans are the contract)");
  table.set_header({"vehicles", "sampled", "truncated", "digest match"});
  for (int n : {1000, 10000}) {
    FleetScaleOutcome off = core::run_fleet_scale(prof_config(n, false));
    FleetScaleOutcome on = core::run_fleet_scale(prof_config(n, true));
    // The profile text carries the truncation counter on its meta line;
    // any non-zero value means a tag stack outgrew kMaxProfDepth.
    const bool truncated =
        on.profile_jsonl.find("\"truncated\":0}") == std::string::npos;
    table.add_row({std::to_string(n), on.prof_samples > 0 ? "yes" : "NO",
                   truncated ? "YES" : "no",
                   on.digest == off.digest ? "yes" : "NO"});
  }
  bench::BenchOutput::record(table);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "Expected shape: the sampler always ticks (sampled=yes), no stack\n"
      "outgrows the fixed depth (truncated=no), and the sim digest never\n"
      "moves when the sampler toggles (profiles are wall-plane only).\n\n");
}

void print_overhead_table() {
  constexpr int n = 10000;
  const FleetScaleOutcome on = bench::record_overhead(
      "prof overhead — 10k vehicles, sampler-on / sampler-off wall ratio", n,
      [](bool prof) { return core::run_fleet_scale(prof_config(n, prof)); });
  bench::BenchOutput::record_profile(on.profile_jsonl);
}

}  // namespace

int main() {
  vdap::bench::BenchOutput bench_out("prof");
  print_determinism_table();
  print_overhead_table();
  return 0;
}
