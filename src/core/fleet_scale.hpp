// Fleet-at-scale scenario (DESIGN.md §6f): the 100k-vehicle stress path
// for the sharded simulator. Unlike run_fleet (full OpenVdap platforms,
// DDI on disk, elastic managers — heavyweight per vehicle), each vehicle
// here is just a synthetic latency producer feeding a REAL
// TelemetryShipper over a REAL net::Link, so the hot loop exercises the
// calendar queue, the RNG streams, the wire codec and the transport —
// the parts whose scaling the bench gate tracks.
//
// Aggregation is shard-local by design: the deliver callback folds each
// wire frame's bytes into its vehicle's running FNV-1a digest on the
// shard's own worker thread (a vehicle lives entirely on one shard, so no
// locking), and hands the line to the hosted ingest backend when there is
// one, the only place a frame is decoded. The committed outcome —
// per-vehicle digests combined in vehicle-index order plus the shippers'
// summed transport stats — is therefore a pure function of (seed,
// config), byte-identical across shard AND thread counts;
// tests/sharded_test.cpp sweeps both to prove it, and bench_shard.cpp
// commits the digest for 1k..100k fleets.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "telemetry/fleet/ingest.hpp"
#include "telemetry/fleet/shipper.hpp"
#include "telemetry/planes.hpp"

namespace vdap::sim {
class ShardedSimulator;
}  // namespace vdap::sim

namespace vdap::core {

/// The observability planes come from telemetry::ObsOptions (DESIGN.md
/// §6h–§6j). On this path every deterministic plane export — the capture
/// trace and metrics, the flight rings and sim-clock-triggered bundles
/// (while flight_scratch_dropped == 0) — is byte-identical across the
/// shard × thread matrix per (seed, rest-of-config), and no plane moves
/// the digest.
struct FleetScaleConfig : telemetry::ObsOptions {
  int vehicles = 1000;
  std::uint64_t seed = 7;
  /// Sharded execution knobs (see FleetConfig): output is byte-identical
  /// across shards/threads per (seed, rest-of-config).
  int shards = 1;
  int threads = 1;
  sim::SimDuration epoch = sim::seconds(1);
  /// Every vehicle draws `samples_per_tick` latency samples from its own
  /// "scale.load/<i>" stream each `sample_period`.
  sim::SimDuration sample_period = sim::msec(500);
  int samples_per_tick = 4;
  /// Stop producing here, then drain the shipper queues this much longer.
  sim::SimTime run_until = sim::seconds(10);
  sim::SimDuration drain = sim::seconds(10);
  telemetry::fleet::TelemetryShipper::Options shipper;
  /// Also feed every delivered frame into a hosted ShardedIngestBackend
  /// (one ingest shard per sim shard, MAD detection at epoch barriers).
  /// OFF by default: the digest path and its committed bench baselines
  /// are byte-for-byte unaffected unless this is set.
  bool ingest_backend = false;
  telemetry::fleet::IngestOptions ingest;
  /// Test hook: runs after all wiring (recorder bound, vehicles built)
  /// and before the first run_until — e.g. the death test arms the
  /// flight recorder's crash dump and schedules a mid-run abort here.
  std::function<void(sim::ShardedSimulator&)> prepare;
};

/// The observability artifacts come from telemetry::ObsArtifacts.
struct FleetScaleOutcome : telemetry::ObsArtifacts {
  int vehicles = 0;
  int shards = 0;
  int threads = 0;
  std::uint64_t epochs = 0;
  std::uint64_t events_fired = 0;

  // Summed transport accounting (shard-order independent: per-vehicle
  // shipper stats summed in vehicle-index order).
  std::uint64_t frames_delivered = 0;  // acked
  std::uint64_t frames_enqueued = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t samples_delivered = 0;  // counted at cut, added when acked
  std::uint64_t decode_errors = 0;  // the hosted backend's; 0 without one

  /// FNV-1a fold of every vehicle's delivery-ordered frame digest, in
  /// vehicle-index order — the one number the byte-identity sweep and the
  /// bench baseline pin down.
  std::uint64_t digest = 0;

  /// One-line deterministic summary (digest + totals).
  std::string summary;

  // Ingest-backend accounting (zero / empty unless config.ingest_backend).
  std::uint64_t frames_ingested = 0;
  std::uint64_t samples_ingested = 0;
  std::uint64_t ingest_anomalies = 0;
  std::uint64_t detect_passes = 0;
  std::uint64_t detect_scanned = 0;
  /// One-line deterministic ingest summary ("" when the backend is off).
  std::string ingest_summary;
};

FleetScaleOutcome run_fleet_scale(const FleetScaleConfig& config);

/// The runtime-plane shards.jsonl of a sharded run: one row per shard from
/// the simulator's runtime statistics and flight rings, plus the hosted
/// ingest backend's counters when there is one.
std::string shards_report(sim::ShardedSimulator& ssim,
                          const telemetry::fleet::ShardedIngestBackend* backend);

}  // namespace vdap::core
