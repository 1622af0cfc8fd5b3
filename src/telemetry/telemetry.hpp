// Platform-wide telemetry: structured span tracing timestamped on the sim
// clock plus a metrics registry (counters / gauges / histograms with label
// support), recorded into the Domain the calling thread has bound.
//
// Design constraints (DESIGN.md §6c):
//   * Determinism — telemetry must never perturb a run. No wall-clock
//     reads, no RNG draws; every event is timestamped by the caller with
//     sim::Simulator::now(). Two runs of the same (seed, plan) therefore
//     produce byte-identical exported traces — the `trace` test suite
//     enforces this.
//   * Near-zero disabled cost — every instrumentation site is guarded by
//     `if (telemetry::on())`, a single branch on a thread-local pointer; no
//     argument marshalling, no allocation, no virtual dispatch on the cold
//     path. Each simulator shard is single-threaded, so no atomics are
//     needed inside a Domain.
//   * Domain-scoped capture — instrumentation records into the Domain
//     (tracer + registry pair) bound to the *current thread*, always
//     through a telemetry::BindScope (planes.hpp). A single simulator's
//     run binds one Domain for its duration and exports it with
//     chrome_trace_json() and one end-of-run metrics_snapshot_json() line
//     (export.hpp); sim::ShardedSimulator binds one Domain per worker
//     shard for the duration of each epoch and merges them
//     deterministically at the barrier (planes.hpp, domains.hpp,
//     DESIGN.md §6h).
//
// The trace model follows the Chrome trace-event format so exports load
// directly into Perfetto / chrome://tracing (see export.hpp):
//   * complete slices ('X'): an operation whose duration is known at
//     record time (a network transfer, a task execution);
//   * async span pairs ('b'/'e'): operations that overlap freely on one
//     track (service runs, fault windows, sync batches) — begin() returns
//     an id that end() closes, and open_spans() counts the unclosed ones
//     (the chaos suites assert it drains to zero). A span is a window of
//     sim time, not CPU work on one thread, so it never enters the
//     profiler's tag stacks (telemetry/prof/profiler.hpp);
//   * instants ('i'): decision points (offload choice, failover, hang);
//   * counter samples ('C'): numeric series (backlog depth, bandwidth).
#pragma once

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace vdap::telemetry {

/// One recorded trace event. `tid` indexes Tracer::tracks().
struct TraceEvent {
  char ph = 'X';            // 'X','b','e','i','C'
  sim::SimTime ts = 0;      // µs on the sim clock
  sim::SimDuration dur = 0; // 'X' only
  std::uint64_t id = 0;     // 'b'/'e' async span id, 0 otherwise
  std::uint32_t tid = 0;    // track index
  std::string cat;          // category: "task","offload","ddi","net","fault",...
  std::string name;
  // The args object as its compact JSON text (TraceArgs below), written
  // once at record time; empty when the event has no args.
  std::string args;

  /// The args parsed back into an object ({} for empty text). Throws
  /// std::runtime_error on text args_text could not have written.
  json::Object args_object() const;
};

/// The args text json::Value(args).dump() writes (keys in std::map order,
/// non-finite doubles as null), or "" when `args` has no members.
std::string args_text(json::Object args);

/// A trace event's args as args_text() writes them, appended member by
/// member. Keys must come in strictly ascending (std::map) order; an
/// out-of-order or repeated key throws std::logic_error.
class TraceArgs {
 public:
  TraceArgs& add(std::string_view key, const json::Value& value) &;
  TraceArgs&& add(std::string_view key, const json::Value& value) && {
    return std::move(add(key, value));
  }
  /// The finished text; "" when nothing was added.
  std::string text() &&;

 private:
  std::string text_;
  std::string last_key_;
};

/// Append-only event log with interned track names. All methods assume the
/// caller already checked telemetry::on() — the Tracer itself never
/// branches on the enabled flag.
class Tracer {
 public:
  /// Interns a track name ("dsf", "net/cloud", "faults/rsu-flap", ...) and
  /// returns its stable index. First-use order is deterministic because
  /// the simulation is.
  std::uint32_t track(std::string_view name);

  /// Records a complete slice: [ts, ts+dur) on `track`.
  void complete(sim::SimTime ts, sim::SimDuration dur, std::string_view cat,
                std::string_view name, std::string_view track,
                TraceArgs args = {});

  /// Opens an async span; returns the id end() closes. Spans on one track
  /// may overlap freely (they render as async tracks in Perfetto).
  std::uint64_t begin(sim::SimTime ts, std::string_view cat,
                      std::string_view name, std::string_view track,
                      TraceArgs args = {});

  /// Closes an async span; extra args are attached to the end event.
  /// Unknown / already-closed ids are ignored (id 0 — a begin() recorded
  /// while telemetry was off — is always safe to pass).
  void end(sim::SimTime ts, std::uint64_t id, TraceArgs args = {});

  /// Records an instant event (a point-in-time decision).
  void instant(sim::SimTime ts, std::string_view cat, std::string_view name,
               std::string_view track, TraceArgs args = {});

  /// Records a counter sample (numeric time series).
  void counter(sim::SimTime ts, std::string_view track, std::string_view name,
               double value);

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<std::string>& tracks() const { return tracks_; }
  /// Spans opened but not yet closed — the leak the chaos suites check.
  std::size_t open_spans() const { return open_.size(); }

  /// Moves out every recorded event, leaving interned tracks, open-span
  /// bookkeeping and the span-id counter in place — the incremental drain
  /// DomainSet::merge_epoch runs at each epoch barrier.
  std::vector<TraceEvent> take_events();

  /// Appends an event formed elsewhere, its `tid`, `id` and args text
  /// already final, moving it once. Regular recording goes through the
  /// typed methods above.
  void absorb(TraceEvent&& ev) { events_.push_back(std::move(ev)); }

 private:
  struct OpenSpan {
    std::string cat;
    std::string name;
    std::uint32_t tid = 0;
  };

  std::vector<TraceEvent> events_;
  std::vector<std::string> tracks_;
  std::map<std::string, std::uint32_t, std::less<>> track_ids_;
  std::map<std::uint64_t, OpenSpan> open_;
  std::uint64_t next_span_ = 1;
};

/// A label set attached to a metric name, canonicalized into the key as
/// `name{k1=v1,k2=v2}` (keys sorted, Prometheus-style).
using Labels =
    std::initializer_list<std::pair<std::string_view, std::string_view>>;

/// Builds the canonical labeled metric key.
std::string labeled(std::string_view name, Labels labels);

/// Named metrics: monotonic counters, last-value gauges and
/// sample histograms (built on util::CounterSet / util::Histogram). Like
/// Tracer, the registry assumes the caller checked telemetry::on().
class MetricsRegistry {
 public:
  /// Histograms are capped at this many stored samples (deterministic
  /// half-thinning; see util::Histogram::set_sample_cap) so soak-length
  /// runs cannot grow telemetry memory without bound.
  static constexpr std::size_t kHistogramSampleCap = 8192;

  void inc(std::string_view name, std::int64_t by = 1) {
    counters_.inc(std::string(name), by);
  }
  void inc(std::string_view name, Labels labels, std::int64_t by = 1) {
    counters_.inc(labeled(name, labels), by);
  }

  void set_gauge(std::string_view name, double value) {
    if (!std::isfinite(value)) return;  // JSON has no NaN/Inf
    gauges_[std::string(name)] = value;
  }
  void set_gauge(std::string_view name, Labels labels, double value) {
    if (!std::isfinite(value)) return;
    gauges_[labeled(name, labels)] = value;
  }

  void observe(std::string_view name, double value);
  void observe(std::string_view name, Labels labels, double value) {
    observe(std::string_view(labeled(name, labels)), value);
  }

  std::int64_t counter_value(const std::string& name) const {
    return counters_.get(name);
  }
  double gauge_value(const std::string& name) const {
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
  }
  const util::Histogram* histogram(const std::string& name) const {
    auto it = hists_.find(name);
    return it == hists_.end() ? nullptr : &it->second;
  }

  const util::CounterSet& counters() const { return counters_; }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, util::Histogram>& histograms() const {
    return hists_;
  }

  /// Folds another registry into this one (multi-vehicle aggregation).
  void merge(const MetricsRegistry& other);

 private:
  util::CounterSet counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, util::Histogram> hists_;
};

/// One capture target: a tracer + metrics registry pair. Threads bind a
/// domain thread-locally (bind_domain below); instrumentation records into
/// whatever domain the calling thread has bound. Domains have no internal
/// locking — the binding discipline (one thread writes a domain at a time)
/// is what makes sharded capture race-free.
class Domain {
 public:
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  Tracer tracer_;
  MetricsRegistry metrics_;
};

class FlightRing;  // flight.hpp

namespace internal {
/// The calling thread's recording target; nullptr = telemetry off on this
/// thread. thread_local is the load-bearing property: a worker binds its
/// shard's domain around each epoch, so instrumented code deep in the
/// layers records into per-shard storage with no shared mutable state.
inline thread_local Domain* tls_domain = nullptr;
/// The calling thread's flight-recorder ring (DESIGN.md §6i); nullptr =
/// no flight recording. Bound independently of tls_domain so the black
/// box stays on when full capture is off.
inline thread_local FlightRing* tls_flight = nullptr;
}  // namespace internal

/// Binds `domain` as the calling thread's recording target and returns the
/// previous binding (so scopes can save/restore). Pass nullptr to turn
/// telemetry off for this thread.
inline Domain* bind_domain(Domain* domain) {
  Domain* prev = internal::tls_domain;
  internal::tls_domain = domain;
  return prev;
}

/// The calling thread's current recording target (nullptr when off).
inline Domain* bound_domain() { return internal::tls_domain; }

/// Binds `ring` as the calling thread's flight-recorder target and
/// returns the previous binding. Pass nullptr to stop flight recording
/// on this thread.
inline FlightRing* bind_flight(FlightRing* ring) {
  FlightRing* prev = internal::tls_flight;
  internal::tls_flight = ring;
  return prev;
}

/// The calling thread's current flight ring (nullptr when off).
inline FlightRing* bound_flight() { return internal::tls_flight; }

// Flight-plane mirrors (out of line in flight.cpp; no-ops when the
// calling thread has no bound ring). The labeled metric helpers mirror
// the UNLABELED base name — the black box wants the aggregate signal,
// not a per-label allocation on the hot path.
void flight_metric(std::string_view name, std::int64_t by);
void flight_observe(std::string_view name, double value);
void flight_gauge(std::string_view name, double value);

// --- instrumentation-site helpers -----------------------------------------

/// The guard every instrumentation site starts with.
inline bool on() { return internal::tls_domain != nullptr; }

/// The bound domain's tracer and registry. Call only after an on() check:
/// with nothing bound there is no domain to return.
inline Tracer& tracer() { return internal::tls_domain->tracer(); }
inline MetricsRegistry& metrics() { return internal::tls_domain->metrics(); }

/// Guarded one-liners for sites that only bump a metric. Each also
/// mirrors the delta into the calling thread's flight ring (when one is
/// bound) — the always-on plane works with full capture off.
inline void count(std::string_view name, std::int64_t by = 1) {
  if (on()) metrics().inc(name, by);
  if (internal::tls_flight != nullptr) flight_metric(name, by);
}
inline void count(std::string_view name, Labels labels, std::int64_t by = 1) {
  if (on()) metrics().inc(name, labels, by);
  if (internal::tls_flight != nullptr) flight_metric(name, by);
}
inline void observe(std::string_view name, double value) {
  if (on()) metrics().observe(name, value);
  if (internal::tls_flight != nullptr) flight_observe(name, value);
}
inline void observe(std::string_view name, Labels labels, double value) {
  if (on()) metrics().observe(name, labels, value);
  if (internal::tls_flight != nullptr) flight_observe(name, value);
}
inline void gauge(std::string_view name, double value) {
  if (on()) metrics().set_gauge(name, value);
  if (internal::tls_flight != nullptr) flight_gauge(name, value);
}

}  // namespace vdap::telemetry
