#include "sim/simulator.hpp"

#include <cassert>
#include <stdexcept>

namespace vdap::sim {

EventId Simulator::at(SimTime when, EventFn fn) {
  if (when < now_) when = now_;
  return queue_.push(when, std::move(fn));
}

Simulator::PeriodicHandle Simulator::every(SimDuration period, EventFn fn,
                                           SimDuration first_delay) {
  if (period <= 0) throw std::invalid_argument("periodic: period must be > 0");
  PeriodicHandle handle;
  handle.alive_ = std::make_shared<bool>(true);
  std::uint32_t slot;
  if (!free_periodics_.empty()) {
    slot = free_periodics_.back();
    free_periodics_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(periodics_.size());
    periodics_.push_back(std::make_unique<Periodic>());
  }
  *periodics_[slot] = Periodic{period, std::move(fn), handle.alive_};
  after(first_delay, [this, slot]() { fire_periodic(slot); });
  return handle;
}

void Simulator::fire_periodic(std::uint32_t slot) {
  // Each firing checks liveness, runs the callback, then re-arms: exactly
  // one queued event per live task, pushed where the callback returns.
  Periodic& task = *periodics_[slot];
  if (*task.alive) {
    task.fn();
    if (*task.alive) {
      after(task.period, [this, slot]() { fire_periodic(slot); });
      return;
    }
  }
  task = Periodic{};  // releases the callback and the liveness flag
  free_periodics_.push_back(slot);
}

std::size_t Simulator::run_until(SimTime until) {
  std::size_t fired = 0;
  while (!queue_.empty()) {
    SimTime t = queue_.next_time();
    if (t > until) break;
    auto ev = queue_.pop();
    assert(ev.at >= now_);
    now_ = ev.at;
    ev.fn();
    ++fired;
  }
  if (until != kTimeMax && now_ < until) now_ = until;
  return fired;
}

util::RngStream& Simulator::rng(std::string_view name) {
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    it = streams_
             .emplace(std::string(name),
                      std::make_unique<util::RngStream>(seed_, name))
             .first;
  }
  return *it->second;
}

}  // namespace vdap::sim
