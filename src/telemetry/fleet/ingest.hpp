// Sharded columnar ingest backend (DESIGN.md §6g): the fleet TSDB behind
// the cloud aggregation point, and the one ingest path the fleet runners,
// `vdap-report --fleet` and the benchmarks use.
//
// Architecture: K IngestShards, each single-threaded and lock-free —
// per-vehicle ColumnarStores (encoded sample blocks + streaming
// sketches), exact per-vehicle dedup/reorder/loss accounting by sequence
// number, and O(1)-per-sample window rings that maintain per-(vehicle,
// metric) trailing-window means at 1 s slot granularity. A vehicle maps to
// exactly one shard: FNV-1a(vehicle) % K in standalone mode, or any
// fixed external mapping in hosted mode (core::run_fleet homes a
// vehicle's ingest on its sim shard). All mapping-sensitive state stays
// inside the shard; everything observable — tables, queries, anomalies,
// accounting — is merged across shards in vehicle-name or metric-name
// order, so results are byte-identical across shard AND thread counts.
//
// Anomaly detection costs O(1) ring maintenance per sample plus one
// O(V log V) MAD pass per dirty metric at each barrier. Detection runs at
// barriers with the shards quiesced: every shard gathers its per-vehicle
// window means from the rings (already in name order, its vehicle map's
// order), the coordinator merges the K runs by vehicle name and scores
// them with a modified z-score, a MAD floor and hysteresis. The
// detection parameters are constants (ingest.cpp).
//
// No read sorts the fleet by name: a vehicle-scoped `range` is K map
// lookups (O(K log V)); fleet-wide `range`, `near` and detection's
// window-mean pass run one task per shard and the caller folds the
// per-shard runs in vehicle-name order (DESIGN.md §6g).
//
// Threading contract (ThreadSanitizer-checked by the `ingest` suite):
//   * ingest_batch(), barrier() and run_query()'s fleet-wide reads run one
//     task per shard on an internal ThreadPool (threads > 1) or inline;
//     the pool's barrier gives happens-before between the shard tasks and
//     the caller's fold. A mutex serializes use of the pool, whose run()
//     is not reentrant.
//   * run_query()/run_query_text() are const and read-only: any number of
//     threads may query a quiesced backend at once.
//   * Hosted callers use shard(s)'s ingest methods only from code
//     running shard s (e.g. a deliver callback on its sim shard) and
//     barrier() only with every shard quiesced (an epoch barrier).
//   * The calling thread's bound telemetry domain is touched only at
//     barriers, on the coordinating thread.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "sim/thread_pool.hpp"
#include "sim/time.hpp"
#include "telemetry/fleet/columnar.hpp"
#include "telemetry/fleet/query.hpp"
#include "telemetry/fleet/wire.hpp"

namespace vdap::telemetry::fleet {

/// One outlier transition: `vehicle`'s `metric` deviates from the fleet.
struct FleetAnomaly {
  sim::SimTime at = 0;        // ingest watermark when flagged
  std::string vehicle;
  std::string metric;
  double value = 0.0;         // the vehicle's window mean
  double fleet_median = 0.0;  // median of per-vehicle window means
  double score = 0.0;         // modified z-score
};

struct IngestOptions {
  /// Ingest shards (vehicle-hash partitions).
  int shards = 1;
  /// Worker threads running the per-shard tasks of standalone
  /// ingest_batch(), barrier detection and fleet-wide queries (clamped
  /// to [1, shards]); hosted mode uses 1 and ingests on the caller's
  /// threads instead.
  int threads = 1;
  /// Per-(vehicle, metric) columnar series knobs.
  ColumnarSeries::Options block;
};

/// One single-threaded ingest partition. Hot-path methods (ingest*) may
/// only run on the shard's owning thread; everything else only with the
/// shard quiesced.
class IngestShard {
 public:
  /// Streaming (count, sum) ring of 1 s slots covering the trailing
  /// detect window — O(1) per sample, O(window/slot) per mean query, no
  /// per-detection store scan.
  struct WindowRing {
    std::vector<std::pair<std::uint64_t, double>> slots;
    std::int64_t max_slot = -1;  // newest slot index seen (-1: empty)
  };

  struct Vehicle {
    ColumnarStore store;
    std::map<std::string, std::int64_t> counters;
    std::map<std::string, WindowRing> rings;
    std::uint64_t frames = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t reordered = 0;
    std::uint64_t max_seq = 0;
    std::set<std::uint64_t> seen;
    std::uint64_t health_events = 0;
    std::uint64_t breaches = 0;
  };

  explicit IngestShard(const IngestOptions& options);

  /// Decodes and ingests one wire line, the shard's one entry. Returns
  /// false for decode errors (counted, diagnostic in *error) and duplicates.
  bool ingest_line(std::string_view line, std::string* error = nullptr);

  // --- barrier-side (shard quiesced) ---------------------------------
  sim::SimTime watermark() const { return watermark_; }
  /// Metrics that received samples since the last take_dirty().
  std::set<std::string> take_dirty();
  /// Appends (vehicle, trailing-window mean) for every vehicle of this
  /// shard reporting `metric` within [from, to] (ring-slot granularity),
  /// in vehicle-name order. The names point into vehicles().
  void collect_means(
      const std::string& metric, sim::SimTime from, sim::SimTime to,
      std::vector<std::pair<const std::string*, double>>* out) const;

  const std::map<std::string, Vehicle>& vehicles() const { return vehicles_; }
  const BlockPool& pool() const { return pool_; }

  std::uint64_t frames_ingested() const { return frames_; }
  std::uint64_t duplicates() const { return duplicates_; }
  std::uint64_t reordered() const { return reordered_; }
  std::uint64_t decode_errors() const { return decode_errors_; }
  std::uint64_t samples_ingested() const { return samples_; }
  /// Samples too old for their window ring (still stored columnar-side).
  std::uint64_t ring_late() const { return ring_late_; }
  std::uint64_t lost_frames() const;

 private:
  /// Ingests one decoded frame. Returns false for duplicates.
  bool ingest(const WireFrame& frame);
  void ring_add(WindowRing* ring, sim::SimTime at, double value);

  ColumnarSeries::Options block_;
  BlockPool pool_;
  std::map<std::string, Vehicle> vehicles_;
  std::set<std::string> dirty_;
  sim::SimTime watermark_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t decode_errors_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t ring_late_ = 0;
};

/// The sharded backend: owns the shards, the standalone thread pool, and
/// the barrier-time detection/merge state. See the header comment for
/// the threading contract.
class ShardedIngestBackend {
 public:
  ShardedIngestBackend() : ShardedIngestBackend(IngestOptions{}) {}
  explicit ShardedIngestBackend(IngestOptions options);

  int shards() const { return static_cast<int>(shards_.size()); }
  int threads() const;

  /// Standalone routing contract: FNV-1a over the vehicle key, modulo
  /// the shard count (DESIGN.md §6g).
  int shard_of(std::string_view vehicle_key) const;

  /// Standalone mode: partitions `lines` by wire_peek_vehicle() key,
  /// ingests each partition on its shard (in parallel when configured
  /// with threads > 1), then runs a barrier. Returns frames accepted.
  std::size_t ingest_batch(const std::vector<std::string_view>& lines);
  /// Non-empty batches ingested.
  std::uint64_t batches() const { return batches_; }

  /// Convenience single-line ingest + no barrier (replay/CLI path):
  /// routes via shard_of(wire_peek_vehicle(line)).
  bool ingest_line(std::string_view line, std::string* error = nullptr);

  // --- hosted mode -----------------------------------------------------
  /// Shard `i`, fed only from code running that shard (see threading
  /// contract). Any fixed vehicle→shard mapping is valid as long as each
  /// vehicle always lands on the same shard.
  IngestShard& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }
  const IngestShard& shard(int i) const {
    return *shards_[static_cast<std::size_t>(i)];
  }

  /// Merge watermarks and run MAD detection over every dirty metric; call
  /// with all shards quiesced (standalone ingest_batch does this itself).
  /// Mirrors ingest counters into the telemetry registry (coordinator
  /// thread only).
  void barrier();

  const std::vector<FleetAnomaly>& anomalies() const { return anomalies_; }
  std::vector<std::string> anomalous_vehicles() const;

  std::vector<std::string> vehicles() const;
  std::int64_t counter_total(const std::string& vehicle,
                             const std::string& name) const;

  std::uint64_t frames_ingested() const;
  std::uint64_t duplicates() const;
  std::uint64_t reordered() const;
  std::uint64_t decode_errors() const;
  std::uint64_t lost_frames() const;
  std::uint64_t samples_ingested() const;
  sim::SimTime watermark() const { return watermark_; }
  std::uint64_t detect_passes() const { return detect_passes_; }
  /// Vehicle window-means examined across all detection passes — the
  /// counter the O(V)-cost regression test pins.
  std::uint64_t detect_scanned() const { return detect_scanned_; }

  /// Backpressure watermarks for the sharded runtime report, maintained at
  /// each barrier: the most frames shard `i` decoded between two barriers,
  /// and the farthest (in µs) its watermark ever trailed the merged one.
  std::uint64_t backlog_peak(int i) const {
    return barrier_stats_[static_cast<std::size_t>(i)].backlog_peak;
  }
  std::int64_t lag_us_peak(int i) const {
    return barrier_stats_[static_cast<std::size_t>(i)].lag_us_peak;
  }

  /// Pool + block accounting summed over shards (bench evidence).
  struct PoolStats {
    std::uint64_t column_allocs = 0;
    std::uint64_t column_reuses = 0;
    std::uint64_t buffer_allocs = 0;
    std::uint64_t buffer_reuses = 0;
    std::uint64_t sealed_blocks = 0;
    std::uint64_t evicted_blocks = 0;
    std::uint64_t encoded_bytes = 0;
  };
  PoolStats pool_stats() const;

  /// Report tables (deterministic per ingest sequence, shard/thread-count
  /// invariant).
  std::string rollup_table() const;
  std::string anomaly_table() const;
  std::string vehicle_table() const;

  /// Executes one query against the fused store (shards quiesced).
  QueryResult run_query(const Query& query) const;
  /// Parse + run + render; on parse failure returns "" with *error set.
  std::string run_query_text(std::string_view text,
                             std::string* error = nullptr) const;

 private:
  struct MirrorState {
    std::uint64_t frames = 0;
    std::uint64_t samples = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t decode_errors = 0;
    std::uint64_t passes = 0;
    std::uint64_t scanned = 0;
  };
  struct BarrierStats {
    std::uint64_t frames_last = 0;  // frames_ingested at the last barrier
    std::uint64_t backlog_peak = 0;
    std::int64_t lag_us_peak = 0;
  };

  /// Runs fn(s) for every shard index s: one task per shard on pool_, or
  /// inline when there is no pool. Returns when every task finished.
  void for_each_shard(const std::function<void(std::size_t)>& fn) const;
  /// Scores one metric's window means (vehicle-name order) and updates
  /// the hysteresis state.
  void detect(const std::string& metric,
              const std::vector<std::pair<const std::string*, double>>& means);
  void mirror_metrics();
  /// (name, vehicle) pairs across shards in vehicle-name order (a merge
  /// of the shards' maps).
  std::vector<std::pair<const std::string*, const IngestShard::Vehicle*>>
  sorted_vehicles() const;

  IngestOptions opts_;
  std::vector<std::unique_ptr<IngestShard>> shards_;
  std::unique_ptr<sim::ThreadPool> pool_;
  mutable std::mutex pool_mu_;  // held around pool_->run
  std::vector<FleetAnomaly> anomalies_;
  /// Hysteresis: metric → currently flagged vehicles.
  std::map<std::string, std::set<std::string>> active_;
  sim::SimTime watermark_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t detect_passes_ = 0;
  std::uint64_t detect_scanned_ = 0;
  MirrorState mirrored_;
  std::vector<BarrierStats> barrier_stats_;  // one per shard
};

}  // namespace vdap::telemetry::fleet
