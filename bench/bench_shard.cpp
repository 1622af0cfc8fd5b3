// Sharded-simulator scaling (DESIGN.md §6f): run_fleet_scale fleets from
// 1k to 100k vehicles on the lock-step sharded runner.
//
// One committed table: frames, samples, wire MB, drops and the FNV digest
// per fleet size — byte-stable per seed and INDEPENDENT of the
// shard/thread counts used to produce it. Any nondeterminism in the
// sharded core shows up here as a baseline diff.
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

FleetScaleConfig scale_config(int vehicles) {
  FleetScaleConfig cfg;
  cfg.vehicles = vehicles;
  cfg.seed = 7;
  // Run on many shards with every core: the digest is identical at 1/1
  // (the sweep test proves it), so use the fast configuration.
  cfg.shards = 8;
  cfg.threads = sim::ThreadPool::hardware_threads();
  cfg.epoch = sim::seconds(1);
  // Light per-vehicle schedule: the point is fleet WIDTH (100k calendar
  // queues' worth of events), not per-vehicle depth.
  cfg.sample_period = sim::seconds(2);
  cfg.samples_per_tick = 2;
  cfg.run_until = sim::seconds(4);
  cfg.drain = sim::seconds(4);
  cfg.shipper.flush_period = sim::seconds(2);
  return cfg;
}

void print_digest_table() {
  util::TextTable table(
      "sharded fleet-scale digests — 4 s load + 4 s drain, seed 7 "
      "(shard/thread-count independent)");
  table.set_header({"vehicles", "frames", "samples", "wire MB", "dropped",
                    "digest"});
  for (int n : {1000, 10000, 100000}) {
    FleetScaleOutcome r = core::run_fleet_scale(scale_config(n));
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(r.digest));
    table.add_row({std::to_string(n), std::to_string(r.frames_delivered),
                   std::to_string(r.samples_delivered),
                   std::to_string(r.wire_bytes / (1024 * 1024)),
                   std::to_string(r.frames_dropped), digest});
  }
  bench::BenchOutput::record(table);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "Expected shape: frames and samples scale linearly with fleet size;\n"
      "digests are a pure function of (seed, config) — byte-identical no\n"
      "matter how many shards or threads produced them.\n\n");
}

}  // namespace

int main() {
  vdap::bench::BenchOutput bench_out("shard");
  print_digest_table();
  return 0;
}
