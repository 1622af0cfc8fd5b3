// Flight-recorder overhead (DESIGN.md §6i): run_fleet_scale with the
// always-on black-box recorder OFF vs ON (metric + span mirroring into
// per-domain fixed rings, fold at every barrier, one scripted incident
// bundle snapshotted in memory).
//
// Two committed tables:
//   * A flight-determinism table (folded records, triggers, scratch
//     drops, FNV-1a of the serialized master ring, and whether the sim
//     digest matched the recorder-off run) — every cell is a pure
//     function of (seed, config), independent of the shard/thread
//     counts used to produce it (the flight sweep test proves it).
//   * A wall-plane flight-overhead table: the median recorder-on /
//     recorder-off wall-clock RATIO of 15 alternating pairs
//     (bench::record_overhead). Absolute wall times are never committed —
//     the ratio is unit-free, and the gate's 15% wall-plane tolerance is
//     the overhead budget the O(1)-append hot path has to keep: if the
//     black box stops being cheap enough to leave on, this row catches it.
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

FleetScaleConfig flight_config(int vehicles, bool flight) {
  FleetScaleConfig cfg;
  cfg.vehicles = vehicles;
  cfg.seed = 7;
  // Flight columns are shard/thread-count independent (the flight sweep
  // test proves it), so run the fast configuration.
  cfg.shards = 8;
  cfg.threads = sim::ThreadPool::hardware_threads();
  cfg.epoch = sim::seconds(1);
  cfg.sample_period = sim::seconds(2);
  cfg.samples_per_tick = 2;
  cfg.run_until = sim::seconds(4);
  cfg.drain = sim::seconds(4);
  cfg.shipper.flush_period = sim::seconds(2);
  // The backend's per-epoch metric stream is part of what gets mirrored;
  // keeping it on matches the sweep test's byte-identity configuration.
  cfg.ingest_backend = true;
  cfg.flight = flight;
  // One scripted incident mid-run so the bundle snapshot path (manifest
  // + rings serialization) is part of what the ratio prices. Options::dir
  // stays empty: bundles are kept in memory, no filesystem I/O.
  cfg.flight_incident_at = sim::seconds(3);
  return cfg;
}

void print_determinism_table() {
  util::TextTable table(
      "flight determinism — folded master ring, seed 7 "
      "(shard/thread-count independent)");
  table.set_header({"vehicles", "folded", "triggers", "dropped",
                    "rings fnv", "digest match"});
  for (int n : {1000, 10000}) {
    FleetScaleOutcome off = core::run_fleet_scale(flight_config(n, false));
    FleetScaleOutcome on = core::run_fleet_scale(flight_config(n, true));
    table.add_row({std::to_string(n), std::to_string(on.flight_folded),
                   std::to_string(on.flight_triggers),
                   std::to_string(on.flight_scratch_dropped),
                   bench::fnv_hex(on.flight_rings),
                   on.digest == off.digest ? "yes" : "NO"});
  }
  bench::BenchOutput::record(table);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "Expected shape: folded records scale with vehicles; scratch drops\n"
      "stay 0 (byte-identity is conditional on them); the sim digest never\n"
      "moves when the recorder toggles (the black box observes the run, it\n"
      "must not perturb it).\n\n");
}

void print_overhead_table() {
  constexpr int n = 10000;
  bench::record_overhead(
      "flight overhead — 10k vehicles, recorder-on / recorder-off wall ratio",
      n, [](bool flight) {
        return core::run_fleet_scale(flight_config(n, flight));
      });
}

}  // namespace

int main() {
  vdap::bench::BenchOutput bench_out("flight");
  print_determinism_table();
  print_overhead_table();
  return 0;
}
