// Deterministic fault injection.
//
// A FaultPlan is data: a named list of fault windows (start, duration,
// optional recurrence) against string-addressed targets. A FaultInjector
// turns an armed plan into simulator events and dispatches each fault
// begin/end to a handler registered per FaultKind. All randomness (flap
// jitter) comes from the simulator's named RNG streams ("fault.<name>"),
// so a (seed, plan) pair replays bit-identically — the property the chaos
// suite (tests/chaos_test.cpp) asserts.
//
// Targets are strings so this layer stays free of net/hw/edgeos types:
// tier names as printed by net::to_string(Tier) ("rsu-edge", "cloud", ...),
// "proc:<index>" for VCU board devices, service names for EdgeOSv faults.
// net::ImpairmentController and the test harness own the actual wiring.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace vdap::sim {

enum class FaultKind {
  kLinkDown,           // tier unreachable for the window
  kLinkFlap,           // tier toggles down/up inside the window
  kLinkDegrade,        // tier bandwidth x severity, +extra_loss
  kCellularCollapse,   // cellular channel x severity (Fig. 2 regimes)
  kProcessorSlowdown,  // board device speed x severity
  kProcessorOffline,   // board device offline for the window
  kDiskWriteError,     // DDI disk writes fail for the window
  kServiceCrash,       // impulse: edge service crashes, reinstall begins
  kServiceCompromise,  // impulse: edge service flagged compromised
};

constexpr std::string_view to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kLinkFlap: return "link-flap";
    case FaultKind::kLinkDegrade: return "link-degrade";
    case FaultKind::kCellularCollapse: return "cellular-collapse";
    case FaultKind::kProcessorSlowdown: return "processor-slowdown";
    case FaultKind::kProcessorOffline: return "processor-offline";
    case FaultKind::kDiskWriteError: return "disk-write-error";
    case FaultKind::kServiceCrash: return "service-crash";
    case FaultKind::kServiceCompromise: return "service-compromise";
  }
  return "unknown";
}

struct FaultSpec {
  std::string name;    // unique within the plan; names the jitter RNG stream
  FaultKind kind = FaultKind::kLinkDown;
  std::string target;  // tier name / "proc:<i>" / service name
  SimTime start = 0;
  SimDuration duration = 0;  // 0 => impulse (begin only, no end event)
  double severity = 1.0;     // bandwidth/speed factor while active
  double extra_loss = 0.0;   // added message loss while active

  // kLinkFlap shape: alternate down_time / up_time inside the window,
  // each phase length jittered by +/- `jitter` fraction.
  SimDuration down_time = seconds(2);
  SimDuration up_time = seconds(5);
  double jitter = 0.0;

  // Recurrence: replay the whole window `repeat` times, `period` apart.
  int repeat = 1;
  SimDuration period = 0;
};

struct FaultPlan {
  std::string name;
  std::vector<FaultSpec> faults;
};

struct FaultTraceEvent {
  SimTime time = 0;
  std::string fault;  // FaultSpec::name
  FaultKind kind = FaultKind::kLinkDown;
  std::string target;
  bool begin = true;  // false = window end / flap up-edge
};

/// Schedules an armed FaultPlan's events on the simulator and dispatches
/// them to per-kind handlers. Also records a trace — the determinism
/// fixture compares traces across runs of the same (seed, plan).
class FaultInjector {
 public:
  /// begin=true when the fault starts biting, false when it lets go.
  /// Impulse faults (duration 0) only ever see begin=true.
  using Handler = std::function<void(const FaultSpec&, bool begin)>;

  explicit FaultInjector(Simulator& sim) : sim_(sim) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Registers (replaces) the handler for one fault kind. Faults with no
  /// handler still appear in the trace.
  void on(FaultKind kind, Handler handler);

  /// Schedules every fault in the plan. May be called once per injector.
  void arm(const FaultPlan& plan);

  const std::string& plan_name() const { return plan_name_; }
  const std::vector<FaultTraceEvent>& trace() const { return trace_; }
  /// One formatted line per trace event — convenient for EXPECT_EQ diffs.
  std::vector<std::string> trace_lines() const;

  /// Windows currently open (impulses never count).
  int active_faults() const { return active_; }
  /// Total begin events fired so far.
  std::size_t applied() const { return applied_; }

  /// Whether fire() mirrors activations into the calling thread's flight
  /// ring (telemetry::flight_fault — records the window edge and raises
  /// an incident trigger on begin). Defaults on. Multi-shard scenarios
  /// that arm every shard's injector with the same plan (core::run_fleet)
  /// keep it on for exactly one injector, so each activation appears
  /// once no matter the shard count.
  void set_flight_recording(bool on) { flight_recording_ = on; }

 private:
  void schedule_window(std::shared_ptr<const FaultSpec> spec, SimTime start);
  void flap_down(std::shared_ptr<const FaultSpec> spec, SimTime window_end);
  SimDuration jittered(const FaultSpec& spec, SimDuration base);
  void fire(const FaultSpec& spec, bool begin);

  Simulator& sim_;
  std::map<FaultKind, Handler> handlers_;
  std::vector<FaultTraceEvent> trace_;
  std::string plan_name_;
  bool armed_ = false;
  bool flight_recording_ = true;
  int active_ = 0;
  std::size_t applied_ = 0;
  // Telemetry span ids for windows currently open, keyed by fault name
  // (recurrence can overlap a fault with itself, hence a stack per name).
  std::map<std::string, std::vector<std::uint64_t>> telem_open_;
};

/// Canned fault plans used by the chaos/soak suites; also reasonable
/// starting points for new scenarios (see DESIGN.md §6b).
namespace plans {
FaultPlan commute_cellular();  // Fig. 2 cellular regimes on a commute
FaultPlan flaky_rsu();         // recurring RSU flap with jitter
FaultPlan cloud_blackout();    // long cloud outage + degraded basestation
FaultPlan edge_attack();       // compromise + crash + processor offline
FaultPlan disk_hiccups();      // recurring DDI disk-write error windows
FaultPlan rolling_chaos();     // a bit of everything, overlapping
std::vector<FaultPlan> all();
}  // namespace plans

}  // namespace vdap::sim
