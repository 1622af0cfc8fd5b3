#include "sim/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

namespace vdap::sim {

ShardedSimulator::ShardedSimulator(std::uint64_t seed, Options options)
    : seed_(seed), opts_(options) {
  if (opts_.shards < 1) opts_.shards = 1;
  if (opts_.epoch_length <= 0) {
    throw std::invalid_argument("sharded: epoch_length must be > 0");
  }
  opts_.threads = std::clamp(opts_.threads, 1, opts_.shards);
  shards_.reserve(static_cast<std::size_t>(opts_.shards));
  for (int i = 0; i < opts_.shards; ++i) {
    // Every shard derives RNG streams from the SAME root seed: a stream
    // named per entity ("veh.17", "link.ship/cav-17") draws the same
    // sequence no matter which shard hosts the entity — the keystone of
    // shard-count-independent output.
    shards_.push_back(Shard{std::make_unique<Simulator>(seed), {}, 0, 0.0});
  }
  runtime_.resize(shards_.size());
  planes_ = std::make_unique<telemetry::Planes>(opts_.obs, opts_.shards,
                                                opts_.threads);
  if (telemetry::FlightRecorder* flight = planes_->flight()) {
    // Scratch ring i reads shard i's live clock so metric mirrors (which
    // have no caller timestamp) stay precise and deterministic.
    for (int i = 0; i < shards(); ++i) {
      flight->ring(i).set_clock(
          shards_[static_cast<std::size_t>(i)].sim->now_ptr());
    }
  }
}

void ShardedSimulator::post(int from_shard, SimTime at, std::uint64_t key,
                            std::string payload) {
  shards_[static_cast<std::size_t>(from_shard)].outbox.push_back(
      ShardMessage{at, key, std::move(payload)});
}

bool ShardedSimulator::idle() const {
  for (const Shard& s : shards_) {
    if (!s.sim->idle()) return false;
  }
  return true;
}

void ShardedSimulator::exchange(SimTime epoch_end) {
  std::vector<ShardMessage> batch;
  std::size_t total = 0;
  for (const Shard& s : shards_) total += s.outbox.size();
  batch.reserve(total);
  for (Shard& s : shards_) {
    for (ShardMessage& m : s.outbox) batch.push_back(std::move(m));
    s.outbox.clear();
  }
  // Stable: same-(at, key) messages — one producer by contract — keep
  // their emit order regardless of how entities are spread over shards.
  std::stable_sort(batch.begin(), batch.end(),
                   [](const ShardMessage& a, const ShardMessage& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return a.key < b.key;
                   });
  if (sink_) sink_(epoch_end, std::move(batch));
}

void ShardedSimulator::collect_runtime() {
  // Runs at the barrier with every shard quiesced. A shard's barrier wait
  // is "how much sooner than the slowest shard it finished" — the epoch
  // ends for everyone when the slowest worker arrives.
  double max_busy = 0.0;
  for (const Shard& s : shards_) max_busy = std::max(max_busy, s.epoch_busy);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = shards_[i];
    ShardRuntime& rt = runtime_[i];
    rt.busy_s += s.epoch_busy;
    rt.wait_s += max_busy - s.epoch_busy;
    rt.queue_peak = std::max(rt.queue_peak, s.sim->pending_events());
    rt.wheel_peak = std::max(rt.wheel_peak, s.sim->queue().wheel_entries());
    rt.overflow_peak =
        std::max(rt.overflow_peak, s.sim->queue().overflow_entries());
  }
  if (telemetry::FlightRecorder* flight = planes_->flight()) {
    // Shard-runtime snapshots land in the recorder's wall-clock ring —
    // rendered as runtime.jsonl in incident bundles, never part of the
    // deterministic rings.vfr surface.
    telemetry::FlightRing& rt = flight->runtime_ring();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      rt.append(telemetry::make_flight_record(
          telemetry::FlightKind::kRuntime, now_,
          "shard-" + std::to_string(i), "runtime", "epoch_busy_s",
          static_cast<std::int64_t>(shards_[i].sim->pending_events()),
          shards_[i].epoch_busy));
    }
  }
}

std::size_t ShardedSimulator::run_until(SimTime until) {
  if (until == kTimeMax) {
    // Lock-step epochs need a finite horizon (an idle shard still has to
    // reach every barrier); callers drain with explicit horizons instead.
    throw std::invalid_argument("sharded: run_until needs a finite horizon");
  }
  if (pool_ == nullptr) {
    // Worker-registration hooks give each spawned worker its own prof
    // slot, so barrier waits ("pool/wait") show up in sampled profiles.
    ThreadPool::WorkerHooks hooks;
    hooks.on_start = [this](std::size_t w) {
      telemetry::prof::bind_prof(planes_->worker_slot(w));
    };
    hooks.on_exit = [](std::size_t) { telemetry::prof::bind_prof(nullptr); };
    pool_ = std::make_unique<ThreadPool>(opts_.threads, std::move(hooks));
  }
  std::size_t fired_total = 0;
  while (now_ < until) {
    SimTime epoch_end = until - now_ < opts_.epoch_length
                            ? until
                            : now_ + opts_.epoch_length;
    std::vector<std::function<void()>> tasks;
    tasks.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard* shard = &shards_[i];
      const telemetry::Binding bind = planes_->shard(static_cast<int>(i));
      tasks.push_back([shard, epoch_end, bind] {
        const auto t0 = std::chrono::steady_clock::now();
        {
          // Bound on every run, null planes included: instrumentation
          // below records into per-shard storage only, never into the
          // running thread's own binding, which the scope restores (the
          // calling thread works tasks too).
          telemetry::BindScope scope(bind);
          PROF_SCOPE("sim/epoch");
          shard->fired += shard->sim->run_until(epoch_end);
        }
        shard->epoch_busy =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
      });
    }
    pool_->run(tasks);
    now_ = epoch_end;
    ++epochs_;
    collect_runtime();
    // The epoch sink mutates shards from the coordinator thread; its
    // records land in the coordinator's domain and ring (timestamped with
    // the epoch end) and are merged with the shards' right after.
    telemetry::BindScope scope(planes_->coordinator(epoch_end));
    {
      PROF_SCOPE("sim/exchange");
      exchange(epoch_end);
    }
    planes_->barrier(epoch_end);
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = shards_[i];
    fired_total += s.fired;
    runtime_[i].events += s.fired;
    s.fired = 0;
  }
  return fired_total;
}

}  // namespace vdap::sim
