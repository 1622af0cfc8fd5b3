// The discrete-event simulator driving every OpenVDAP experiment.
//
// A Simulator owns a clock and an event queue. Components schedule callbacks
// (absolute or relative), periodic tasks, and query `now()`. Determinism
// contract: with the same seed and the same schedule order, two runs produce
// identical traces (integer time, FIFO tie-break, named RNG streams).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace vdap::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : seed_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }
  /// Stable pointer to the clock, for observers that need the current
  /// sim time without a callback (telemetry::FlightRing::set_clock).
  const SimTime* now_ptr() const { return &now_; }
  std::uint64_t seed() const { return seed_; }

  /// Schedules `fn` at absolute time `at` (clamped to now()).
  EventId at(SimTime when, EventFn fn);

  /// Schedules `fn` after `delay` from now.
  EventId after(SimDuration delay, EventFn fn) {
    return at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Cancels a pending event; returns false if it already fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Schedules `fn` every `period`, starting after `first_delay`. The
  /// returned handle cancels future firings. The callback may call
  /// PeriodicHandle::stop() on its own handle. A default-constructed
  /// handle is attached to no task: it is inactive and allocates nothing.
  class PeriodicHandle {
   public:
    void stop() {
      if (alive_) *alive_ = false;
    }
    bool active() const { return alive_ && *alive_; }

   private:
    friend class Simulator;
    std::shared_ptr<bool> alive_;
  };
  PeriodicHandle every(SimDuration period, EventFn fn,
                       SimDuration first_delay = 0);

  /// Runs until the queue drains or `until` is passed. Events scheduled
  /// exactly at `until` still fire. Returns the number of events fired.
  std::size_t run_until(SimTime until = kTimeMax);

  bool idle() { return queue_.empty(); }
  std::size_t pending_events() { return queue_.size(); }
  /// Calendar-queue occupancy introspection (the sharded runtime report).
  const EventQueue& queue() const { return queue_; }

  /// Named deterministic RNG stream derived from the simulation seed.
  /// Streams are created on first use and owned by the simulator.
  util::RngStream& rng(std::string_view name);

 private:
  /// A periodic task, owned here at a stable address: the one event a
  /// task keeps queued is `[this, slot]`, trivially copyable and small
  /// enough for std::function's local buffer, so a firing allocates
  /// nothing. A callback may call every(), which may grow `periodics_`,
  /// so a running task is reached through its own pointer, never through
  /// the vector. A stopped task's slot is reused by the next every().
  struct Periodic {
    SimDuration period = 0;
    EventFn fn;
    std::shared_ptr<bool> alive;
  };
  void fire_periodic(std::uint32_t slot);

  /// Stream names hash as string_views, so a lookup builds no string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::uint64_t seed_;
  SimTime now_ = kTimeZero;
  EventQueue queue_;
  std::unordered_map<std::string, std::unique_ptr<util::RngStream>, NameHash,
                     std::equal_to<>>
      streams_;
  std::vector<std::unique_ptr<Periodic>> periodics_;
  std::vector<std::uint32_t> free_periodics_;
};

}  // namespace vdap::sim
