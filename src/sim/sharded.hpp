// Sharded discrete-event simulation: K independent sim::Simulators
// advancing in deterministic lock-step epochs on a thread pool
// (DESIGN.md §6f).
//
// Model
//   * Each shard owns a Simulator (clock + calendar queue + named RNG
//     streams, all derived from the same root seed) plus whatever state
//     the caller builds on it — vehicles, links, fault injectors. Within
//     an epoch, shards run with NO shared mutable state; one worker thread
//     drives one shard at a time.
//   * Cross-shard communication happens only at epoch boundaries: during
//     an epoch a shard appends ShardMessages to its private outbox; at the
//     barrier the runner merges all outboxes into one batch ordered by
//     (at, key, emit order) and hands it to the epoch sink on the calling
//     thread. The sink may mutate any shard (e.g. schedule next-epoch
//     events, retarget impairment plans) — everything is quiesced.
//
// Determinism
//   * Thread count: a shard's epoch depends only on its own state, so the
//     worker-to-shard assignment (the only thing scheduling changes) is
//     invisible. Byte-identical output for 1..N threads.
//   * Shard count: holds whenever per-entity state and RNG streams are
//     partitioned by entity (per-vehicle stream names, per-shard link
//     instances) and every message key is emitted by exactly one shard —
//     then the merged batch order is a pure function of (seed, plan).
//     tests/sharded_test.cpp sweeps shard counts 1/2/8 x thread counts to
//     prove both properties for the fleet scenarios.
//   * Observability: the simulator owns a telemetry::Planes built from
//     Options::obs (capture domains, flight recorder, profiler). Every
//     shard task runs under its shard's BindScope and every barrier under
//     the coordinator's, so shard i records into its own domain, ring and
//     prof slot, merged deterministically at every barrier — captured
//     exports stay byte-identical across the shard × thread matrix
//     (DESIGN.md §6h). A plane that is off binds null, so shard work never
//     records into the calling thread's own binding (its own capture
//     domain or flight ring, say).
//
// Beyond the planes, the runner always keeps per-shard *runtime* statistics
// (wall-clock busy/wait at barriers, event-queue occupancy peaks) — see
// runtime(); these are diagnostic and never part of the deterministic
// surface.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/thread_pool.hpp"
#include "telemetry/planes.hpp"

namespace vdap::sim {

/// One cross-shard message. `key` orders messages from different shards
/// deterministically (e.g. a global vehicle index); messages with the same
/// (at, key) keep their emit order.
struct ShardMessage {
  SimTime at = 0;
  std::uint64_t key = 0;
  std::string payload;
};

class ShardedSimulator {
 public:
  struct Options {
    int shards = 1;
    /// Worker threads driving the shards (clamped to [1, shards]).
    int threads = 1;
    /// Lock-step epoch length; cross-shard messages are exchanged at
    /// multiples of this.
    SimDuration epoch_length = seconds(1);
    /// Observability planes, sized to the shard and thread counts above.
    telemetry::ObsOptions obs;
  };

  /// Called once per epoch barrier with all messages the epoch produced,
  /// merged in (at, key, emit) order. Runs on the calling thread.
  using EpochSink =
      std::function<void(SimTime epoch_end, std::vector<ShardMessage>&& batch)>;

  ShardedSimulator(std::uint64_t seed, Options options);

  int shards() const { return static_cast<int>(shards_.size()); }
  int threads() const { return opts_.threads; }
  SimDuration epoch_length() const { return opts_.epoch_length; }
  std::uint64_t seed() const { return seed_; }

  Simulator& shard(int i) { return *shards_[static_cast<std::size_t>(i)].sim; }

  /// Deterministic home shard for a dense entity index (round-robin).
  int shard_of(std::uint64_t entity) const {
    return static_cast<int>(entity % shards_.size());
  }

  /// Appends a message to `from_shard`'s outbox. Must be called either
  /// from code running on that shard (inside its epoch) or between epochs.
  void post(int from_shard, SimTime at, std::uint64_t key,
            std::string payload);

  void set_epoch_sink(EpochSink sink) { sink_ = std::move(sink); }

  /// The run's observability planes. Shard i's epoch work records into
  /// planes().shard(i); the exchange, epoch sink and barrier merge into
  /// planes().coordinator(). Quiesced code between run_until calls binds
  /// the coordinator itself.
  telemetry::Planes& planes() { return *planes_; }

  /// Per-shard runtime statistics, accumulated across every run_until call
  /// (wall-clock derived — diagnostic only, never deterministic).
  struct ShardRuntime {
    std::uint64_t events = 0;      // events fired by this shard
    double busy_s = 0.0;           // wall seconds inside epoch work
    double wait_s = 0.0;           // wall seconds stalled at barriers
    std::size_t queue_peak = 0;    // live pending events, peak
    std::size_t wheel_peak = 0;    // calendar-wheel entries, peak
    std::size_t overflow_peak = 0; // overflow-heap entries, peak
  };
  const std::vector<ShardRuntime>& runtime() const { return runtime_; }

  /// Runs every shard to `until` in lock-step epochs (the final epoch may
  /// be shorter), exchanging messages at each boundary. `until` must be
  /// finite (an idle shard still reaches every barrier). Returns the total
  /// number of events fired across all shards.
  std::size_t run_until(SimTime until);

  /// The last epoch boundary every shard has reached.
  SimTime now() const { return now_; }
  std::uint64_t epochs_run() const { return epochs_; }
  /// True when no shard has pending events.
  bool idle() const;

 private:
  struct Shard {
    std::unique_ptr<Simulator> sim;
    std::vector<ShardMessage> outbox;
    std::size_t fired = 0;
    // Wall seconds this shard's last epoch took; written by the worker
    // task, read by the coordinator after the barrier.
    double epoch_busy = 0.0;
  };

  void exchange(SimTime epoch_end);
  void collect_runtime();

  std::uint64_t seed_;
  Options opts_;
  std::vector<Shard> shards_;
  std::vector<ShardRuntime> runtime_;
  // Declared before pool_ so the pool joins first: parked workers hold
  // "pool/wait" scopes that point into the profiler's slots.
  std::unique_ptr<telemetry::Planes> planes_;
  std::unique_ptr<ThreadPool> pool_;
  EpochSink sink_;
  SimTime now_ = kTimeZero;
  std::uint64_t epochs_ = 0;
};

}  // namespace vdap::sim
