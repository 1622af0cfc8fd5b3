// One telemetry capture, scoped to one simulation run.
//
// A Session owns a fresh Domain and binds it on the constructing thread;
// destruction unbinds it. Captures must not nest: the constructor refuses
// a thread that already has a domain bound. Periodic JSONL metric
// snapshots ride on Simulator::every, so they land at deterministic sim
// times and appear in the event stream like any other scheduled work.
//
// Header-only on purpose: the telemetry library proper depends only on
// util + sim/time; the Simulator coupling below compiles into the caller,
// which links vdap_sim anyway.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace vdap::telemetry {

class Session {
 public:
  explicit Session(sim::Simulator& sim) : sim_(sim) {
    if (bound_domain() != nullptr) {
      throw std::logic_error(
          "a telemetry domain is already bound on this thread (another "
          "Session or a sharded capture live?) — Session would shadow it");
    }
    bind_domain(&domain_);
  }

  ~Session() {
    stop_snapshots();
    if (flight_prev_set_) bind_flight(flight_prev_);
    if (bound_domain() == &domain_) bind_domain(nullptr);
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Binds a flight ring to this thread for the session's lifetime (the
  /// single-simulator analogue of a sharded run's flight plane): every
  /// instrumentation site below also mirrors into the black box. The
  /// previous binding is restored on destruction. Pass nullptr to detach.
  void attach_flight(FlightRing* ring) {
    if (flight_prev_set_) {
      bind_flight(flight_prev_);
      flight_prev_set_ = false;
    }
    if (ring != nullptr) {
      flight_prev_ = bind_flight(ring);
      flight_prev_set_ = true;
    }
  }

  /// Starts periodic metric snapshots (one JSONL line per period).
  void start_snapshots(sim::SimDuration period) {
    stop_snapshots();
    handle_ = sim_.every(period, [this]() { snapshot(); }, period);
  }
  void stop_snapshots() {
    if (handle_) handle_->stop();
    handle_.reset();
  }

  /// Takes one snapshot now (also called by the periodic schedule).
  void snapshot() {
    lines_.push_back(metrics_snapshot_json(domain_.metrics(), sim_.now()));
  }

  /// JSONL metric snapshots collected so far, one JSON object per line.
  const std::vector<std::string>& snapshot_lines() const { return lines_; }
  std::string snapshots_jsonl() const {
    std::string out;
    for (const std::string& line : lines_) {
      out += line;
      out += '\n';
    }
    return out;
  }

  /// Chrome trace-event JSON of everything recorded so far.
  std::string chrome_trace() const {
    return chrome_trace_json(domain_.tracer());
  }

  /// End-of-run text report (util::TextTable per metric family).
  std::string text_report() const {
    return metrics_text_report(domain_.metrics());
  }

  /// Spans opened but never closed — must be 0 after a full drain.
  std::size_t open_spans() const { return domain_.tracer().open_spans(); }

  bool write_chrome_trace(const std::string& path) const {
    return write_text_file(path, chrome_trace());
  }
  bool write_snapshots(const std::string& path) const {
    return write_text_file(path, snapshots_jsonl());
  }

 private:
  sim::Simulator& sim_;
  Domain domain_;
  std::optional<sim::Simulator::PeriodicHandle> handle_;
  std::vector<std::string> lines_;
  FlightRing* flight_prev_ = nullptr;
  bool flight_prev_set_ = false;
};

}  // namespace vdap::telemetry
