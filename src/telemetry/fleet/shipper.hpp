// Per-vehicle telemetry shipper (DESIGN.md §6e): batches the vehicle's
// metric deltas and health events into sequence-numbered wire frames and
// ships them over its own net::Link toward the cloud aggregation tier.
//
// Transport behavior under net::ImpairmentController faults:
//   * the link spec is refreshed from the shared Topology before every
//     transmission, so degradations bite mid-flight and an unavailable
//     tier fails the attempt outright;
//   * failed attempts retry with doubling backoff, capped at 8 s, up to
//     max_attempts, after which the frame is dropped;
//   * the outbound queue is bounded; overflow drops the OLDEST queued
//     frame (fresh telemetry is worth more than stale telemetry), as do
//     the pending buffers between cuts (constants in shipper.cpp).
// Every drop path is accounted: after a drain,
//   frames_enqueued − frames_acked == frames_dropped
// exactly — the invariant the fleet chaos test asserts. While the calling
// thread has a telemetry domain bound, the same accounting is mirrored
// into its registry as fleet.shipper.* counters labeled by vehicle.
//
// Each shipper draws its loss randomness from the link's own named RNG
// stream ("link.ship/<vehicle>"), so a fleet of shippers is deterministic
// per (seed, plan) and vehicles' streams are independent.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/link.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "telemetry/analysis/slo.hpp"
#include "telemetry/fleet/wire.hpp"
#include "util/fifo.hpp"

namespace vdap::telemetry::fleet {

class TelemetryShipper {
 public:
  struct Options {
    /// Frame cut cadence; empty intervals cut no frame.
    sim::SimDuration flush_period = sim::seconds(1);
    /// Outbound frames queued behind the one in flight; overflow drops
    /// the oldest queued frame.
    std::size_t max_queue = 64;
    /// Transmission attempts per frame before it is dropped.
    int max_attempts = 5;
    sim::SimDuration backoff_base = sim::msec(250);
  };

  struct Stats {
    std::uint64_t frames_enqueued = 0;
    std::uint64_t frames_acked = 0;
    std::uint64_t samples_acked = 0;   // samples in the acked frames
    std::uint64_t frames_dropped = 0;  // queue overflow + attempts exhausted
    std::uint64_t send_attempts = 0;
    std::uint64_t retries = 0;
    std::uint64_t wire_bytes = 0;      // bytes put on the wire (per attempt)
    std::uint64_t samples_recorded = 0;
    std::uint64_t samples_dropped = 0; // pending-buffer overflow
  };

  /// `deliver` fires on every frame the transport delivered, with the
  /// frame's encoded bytes — the aggregator's ingest point.
  using DeliverFn = std::function<void(const std::string& bytes)>;

  TelemetryShipper(sim::Simulator& sim, std::string vehicle,
                   net::Topology& topo, DeliverFn deliver, Options options);
  TelemetryShipper(sim::Simulator& sim, std::string vehicle,
                   net::Topology& topo, DeliverFn deliver)
      : TelemetryShipper(sim, std::move(vehicle), topo, std::move(deliver),
                         Options()) {}
  ~TelemetryShipper();

  TelemetryShipper(const TelemetryShipper&) = delete;
  TelemetryShipper& operator=(const TelemetryShipper&) = delete;

  // --- producer side (the vehicle's instrumentation feeds these) ----------
  void count(std::string_view name, std::int64_t by = 1);
  void gauge(std::string_view name, double value);
  /// Records a sample timestamped sim.now(). Non-finite values ignored.
  void observe(std::string_view name, double value);
  /// Forwards a HealthEvent (core::HealthController::set_event_sink).
  void on_health_event(const analysis::HealthEvent& event);

  /// Starts the periodic flush schedule.
  void start();
  /// Stops cutting new frames (queued frames keep draining).
  void stop();
  /// Cuts and enqueues a frame immediately if any payload is pending.
  void flush_now();

  const Stats& stats() const { return stats_; }
  const std::string& vehicle() const { return vehicle_; }
  /// Frames still queued or in flight.
  std::size_t backlog() const {
    return queue_.size() + (inflight_.has_value() ? 1 : 0);
  }
  bool idle() const { return backlog() == 0; }

 private:
  struct Outbound {
    std::uint64_t samples = 0;
    std::string bytes;
  };

  void cut_frame();
  void enqueue(Outbound frame);
  void maybe_send();
  void attempt();
  void settle(bool delivered);
  void drop_frame(std::uint64_t count);
  sim::SimDuration backoff(int attempt) const;
  void mirror_count(std::string_view name, std::int64_t by);

  sim::Simulator& sim_;
  std::string vehicle_;
  net::Topology& topo_;
  DeliverFn deliver_;
  Options opts_;
  std::unique_ptr<net::Link> link_;

  // Payload pending the next cut. The entries stay resident across cuts:
  // the producer finds them by string_view, and each cut writes the
  // touched ones through a WireWriter and resets them in place, so a
  // sample vector keeps its capacity and a steady producer allocates
  // nothing per frame. An entry untouched since the last cut is left out
  // of the frame; a counter touched with 0 is not.
  struct PendingCounter {
    std::int64_t delta = 0;
    bool touched = false;
  };
  struct PendingGauge {
    double value = 0.0;
    bool touched = false;
  };
  std::map<std::string, PendingCounter, std::less<>> pending_counters_;
  std::map<std::string, PendingGauge, std::less<>> pending_gauges_;
  /// A series is touched while it holds samples.
  std::map<std::string, std::vector<WireSample>, std::less<>> pending_samples_;
  std::vector<WireHealthEvent> pending_events_;
  bool pending_ = false;  // anything recorded since the last cut

  /// Frames waiting behind the in-flight one, at most max_queue. An
  /// empty queue allocates nothing, so an idle vehicle pays for none.
  util::Fifo<Outbound> queue_;
  std::optional<Outbound> inflight_;
  int attempts_ = 0;      // transmissions tried for the in-flight frame
  bool waiting_ = false;  // a backoff retry or link completion is pending

  std::uint64_t seq_ = 0;
  Stats stats_;
  sim::Simulator::PeriodicHandle flusher_;
  bool started_ = false;
  /// Guards backoff retries against firing after this shipper is
  /// destroyed. Flush ticks stop with flusher_, and link completions run
  /// inside `link_`, which dies with the shipper.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace vdap::telemetry::fleet
