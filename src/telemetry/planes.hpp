// One observability spine for a sharded run (DESIGN.md §6h–§6j): the
// capture domains, the flight recorder and the sampling profiler behind
// one object sized from the run's geometry.
//
// sim::ShardedSimulator owns a Planes built from its Options::obs. Every
// thread that records — a shard task, the coordinator at an epoch
// barrier, a runner's quiesced section — installs one Binding through a
// BindScope. A plane that is off contributes a null pointer, so a
// binding always shadows whatever the thread had bound before: shard
// work never records into the calling thread's own capture. At every
// barrier, barrier() merges the domains and folds the flight rings; at
// the end of a run, collect() exports every plane into one ObsArtifacts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"
#include "telemetry/domains.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/prof/profiler.hpp"
#include "telemetry/telemetry.hpp"

namespace vdap::telemetry {

/// The plane switches of a sharded run; every plane is off by default.
struct ObsOptions {
  /// Per-shard capture domains, merged at every epoch barrier (§6h).
  bool capture = false;
  /// Always-on flight recorder: one scratch ring per shard plus the
  /// coordinator ring, folded at every epoch barrier (§6i).
  bool flight = false;
  FlightRecorder::Options flight_opts;
  /// Schedule telemetry::incident("scripted") on shard 0 at this sim time
  /// (0 = off). The runner schedules it; a sim-clock trigger snapshots
  /// the same bundle on every shard × thread geometry.
  sim::SimTime flight_incident_at = 0;
  /// Sampling profiler (§6j). Wall plane only: every deterministic output
  /// is byte-identical with it on or off.
  bool prof = false;
  prof::ProfOptions prof_opts;
};

/// Every plane's end-of-run export. A plane that was off leaves its
/// fields empty / zero.
struct ObsArtifacts {
  // Capture plane: merged Chrome trace and one end-of-run metrics line.
  std::string chrome_trace;
  std::string metrics_jsonl;
  std::uint64_t trace_events = 0;
  std::uint64_t open_spans = 0;  // must drain to 0
  std::uint64_t metric_keys = 0;

  /// Runtime-plane shard report (always produced by the fleet runners;
  /// wall-clock derived — see telemetry/shard_report.hpp).
  std::string shards_jsonl;

  // Flight plane. The master rings and the bundles' manifest + rings are
  // deterministic whenever flight_scratch_dropped == 0; runtime.jsonl
  // inside a bundle is wall plane.
  std::uint64_t flight_folded = 0;
  std::uint64_t flight_triggers = 0;
  std::uint64_t flight_scratch_dropped = 0;
  std::string flight_rings;  // VFR1 serialization of the master ring
  std::vector<FlightRecorder::Bundle> flight_bundles;

  // Profiling plane: wall-clock sampled, diagnostic only.
  std::string profile_jsonl;   // meta line + per-slot collapsed stacks
  std::string profile_folded;  // merged flamegraph.pl input
  std::uint64_t prof_samples = 0;
};

/// What one thread records into. A null member turns that plane off on
/// the thread.
struct Binding {
  Domain* domain = nullptr;
  FlightRing* flight = nullptr;
  prof::ProfSlot* prof = nullptr;
};

/// Installs a Binding on the calling thread for the scope's lifetime and
/// restores the previous one on exit, so scopes nest.
class BindScope {
 public:
  explicit BindScope(const Binding& b)
      : prev_{bind_domain(b.domain), bind_flight(b.flight),
              prof::bind_prof(b.prof)} {}
  ~BindScope() {
    bind_domain(prev_.domain);
    bind_flight(prev_.flight);
    prof::bind_prof(prev_.prof);
  }
  BindScope(const BindScope&) = delete;
  BindScope& operator=(const BindScope&) = delete;

 private:
  Binding prev_;
};

class Planes {
 public:
  /// Builds the planes `opts` turns on for `shards` shards driven by
  /// `threads` threads, and starts the profiler. Prof slot layout: shard
  /// i is slot i, the coordinator slot `shards`, pool worker w slot
  /// shards + 1 + w.
  Planes(const ObsOptions& opts, int shards, int threads);

  DomainSet* capture() { return capture_.get(); }
  FlightRecorder* flight() { return flight_.get(); }
  prof::Profiler* prof() { return prof_.get(); }

  /// Shard i's binding: its domain, its scratch ring and its prof slot.
  Binding shard(int i);
  /// The coordinator's binding, for barriers and quiesced sections.
  /// Hints the coordinator ring with `now`, the time its records carry.
  Binding coordinator(sim::SimTime now);
  /// Pool worker w's prof slot (nullptr with the profiler off).
  prof::ProfSlot* worker_slot(std::size_t w);
  /// The coordinator's prof slot (nullptr with the profiler off).
  prof::ProfSlot* coordinator_slot();

  /// Epoch barrier, every shard quiesced: merges the capture domains and
  /// folds the flight rings, servicing any incident trigger.
  void barrier(sim::SimTime epoch_end);

  /// End of run: a last barrier at `now`, then every plane's export into
  /// `out` (all but shards_jsonl), sampled on the coordinator's prof slot
  /// (the capture export as "capture/export"). Stops the profiler.
  void collect(sim::SimTime now, ObsArtifacts& out);

 private:
  int shards_;
  std::unique_ptr<DomainSet> capture_;
  std::unique_ptr<FlightRecorder> flight_;
  std::unique_ptr<prof::Profiler> prof_;
};

/// Samples calling-thread work outside the epoch loop (world setup) as one
/// `tag` frame on the coordinator's prof slot, as collect() samples the
/// exports. Only the prof binding changes, so the work stays unbound for
/// capture and flight. end(), or the destructor, pops the frame and
/// restores the previous prof binding. A no-op with the profiler off.
class CoordinatorProfScope {
 public:
  CoordinatorProfScope(Planes& planes, std::string_view tag);
  ~CoordinatorProfScope() { end(); }
  CoordinatorProfScope(const CoordinatorProfScope&) = delete;
  CoordinatorProfScope& operator=(const CoordinatorProfScope&) = delete;

  void end();

 private:
  prof::ProfSlot* slot_;  // nullptr once ended
  prof::ProfSlot* prev_ = nullptr;
};

}  // namespace vdap::telemetry
