// Multi-vehicle fleet scenario (DESIGN.md §6e/§6g): N OpenVdap platforms
// in one simulator, each running the same staggered service schedule and
// shipping its telemetry (latency samples, run counters, health events,
// location fixes) through a per-vehicle TelemetryShipper over one SHARED
// shipping net::Topology to a sharded columnar ingest backend at the
// cloud tier — the paper's XEdge/cloud observing a fleet at once (§III,
// Fig. 1). Each vehicle's ingest shard is co-hosted with its sim shard,
// so frames are absorbed on the shard thread that delivered them; MAD
// anomaly detection runs unthrottled at every epoch barrier.
//
// Fault plans address two surfaces:
//   * "cav-<i>/proc:<j>" processor faults hit one vehicle's board (the
//     compute-outlier experiment);
//   * plain tier names ("cloud", "basestation-edge") hit the shared
//     shipping topology via one ImpairmentController — everybody's
//     frames suffer together (the shipper-accounting experiment).
// Everything is driven by the sim clock and named RNG streams, so a
// (seed, plan) pair reproduces the outcome — frames, tables, anomalies —
// byte for byte; the `fleet` ctest label asserts it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/faults.hpp"
#include "telemetry/fleet/ingest.hpp"
#include "telemetry/fleet/shipper.hpp"
#include "telemetry/planes.hpp"

namespace vdap::core {

/// The observability planes come from telemetry::ObsOptions (DESIGN.md
/// §6h–§6j), with these contracts on this path:
///   * capture — the full platform duplicates some instrumentation per
///     shard world (shared shipping topology, tier links), so exports are
///     byte-identical across *thread* counts for a fixed shard count, but
///     scale with the shard count; frames and tables stay
///     geometry-invariant regardless.
///   * flight — for the same reason this path turns the flight mirror off
///     and records the entity-partitioned streams instead: health edges
///     (one per vehicle), fault activations (shard 0's injector only —
///     every injector is armed with the same plan, so its trace IS the
///     trace) and explicit incidents. The bundle bytes are then
///     geometry-invariant per (seed, plan) whenever
///     flight_scratch_dropped == 0.
///   * prof — wall plane only; every deterministic output is
///     byte-identical with the sampler on or off.
struct FleetConfig : telemetry::ObsOptions {
  FleetConfig() { flight_opts.mirror = false; }

  int vehicles = 6;
  std::uint64_t seed = 7;
  /// Sharded execution (DESIGN.md §6f): vehicles are partitioned
  /// round-robin over `shards` per-shard simulators (each owning its
  /// vehicles, their links and a copy of the shipping topology) advancing
  /// in `epoch`-long lock-step epochs on `threads` worker threads.
  /// Telemetry frames cross shards only at epoch boundaries, merged in
  /// (time, vehicle, seq) order — so the outcome is byte-identical across
  /// shard AND thread counts per (seed, plan).
  int shards = 1;
  int threads = 1;
  sim::SimDuration epoch = sim::seconds(1);
  /// Distinguishes DDI temp dirs of concurrently running scenarios.
  std::string dir_tag = "fleet";
  /// Services every vehicle releases round-robin.
  std::vector<std::string> services = {"license-plate", "obd-diagnostics"};
  sim::SimDuration release_period = sim::seconds(2);
  /// Stop releasing load here (runs in flight still finish)...
  sim::SimTime load_until = sim::seconds(150);
  /// ...keep the fleet (and the fault plan) running until here...
  sim::SimTime run_until = sim::minutes(3);
  /// ...then heal, flush every shipper and drain this much longer.
  sim::SimDuration drain = sim::seconds(45);
  /// On-board-only compute (no private remote tiers): a processor fault
  /// shows up in the vehicle's service latency instead of being offloaded
  /// around.
  bool remote_tiers = false;
  /// Per-vehicle closed-loop SLO health; its events ride the wire frames.
  bool health = true;
  /// Vehicles report deterministic loc.x/loc.y fixes on this period (0
  /// disables) — the channel `near` queries resolve against.
  sim::SimDuration location_period = sim::seconds(5);
  telemetry::fleet::TelemetryShipper::Options shipper;
  /// Cloud-side ingest knobs. `shards`/`threads` are overridden by the
  /// runner: one ingest shard per sim shard, driven by the sim threads.
  telemetry::fleet::IngestOptions ingest;
  /// DDI-style query lines (see telemetry/fleet/query.hpp) executed
  /// against the fused store after the drain; rendered tables land in
  /// FleetOutcome::query_results in the same order.
  std::vector<std::string> queries;
};

struct FleetVehicleStats {
  std::uint64_t frames_enqueued = 0;
  std::uint64_t frames_acked = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t send_attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t releases = 0;
  std::uint64_t reports = 0;
  std::uint64_t completed_ok = 0;
};

/// The observability artifacts come from telemetry::ObsArtifacts; see
/// FleetConfig for their invariance contracts.
struct FleetOutcome : telemetry::ObsArtifacts {
  // Aggregator-side report (byte-identical per (seed, plan)).
  std::string rollup_table;
  std::string anomaly_table;
  std::string vehicle_table;
  std::vector<telemetry::fleet::FleetAnomaly> anomalies;
  std::vector<std::string> anomalous_vehicles;
  /// Every delivered frame, in delivery order, one JSON line each —
  /// feed it to `vdap-report --fleet`.
  std::string frames_jsonl;
  /// Rendered tables for FleetConfig::queries (parse errors inline).
  std::vector<std::string> query_results;

  // Transport accounting.
  std::map<std::string, FleetVehicleStats> vehicles;
  std::uint64_t frames_ingested = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reordered = 0;
  std::uint64_t lost_frames = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t samples_ingested = 0;
  std::uint64_t detect_passes = 0;
  std::uint64_t detect_scanned = 0;

  // Run accounting + determinism evidence.
  std::uint64_t releases = 0;
  std::uint64_t reports = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t epochs = 0;        // lock-step barriers crossed
  std::uint64_t epoch_batches = 0; // non-empty cross-shard frame batches
  std::vector<std::string> fault_trace;
};

/// Canned plan: slow every processor of vehicle `vehicle_index` to
/// `severity` of its speed for a mid-run window — the one-sick-vehicle
/// experiment the fleet ctest runs.
sim::FaultPlan fleet_compute_outlier_plan(int vehicle_index,
                                          double severity = 0.45);

/// Canned plan: outage + degradation windows on the shared shipping
/// uplink, forcing shipper retries, backoff and queue-overflow drops.
sim::FaultPlan fleet_uplink_chaos_plan();

FleetOutcome run_fleet(const sim::FaultPlan& plan, const FleetConfig& config);

}  // namespace vdap::core
