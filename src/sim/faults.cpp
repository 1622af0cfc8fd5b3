#include "sim/faults.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "telemetry/flight.hpp"
#include "telemetry/telemetry.hpp"

namespace vdap::sim {

void FaultInjector::on(FaultKind kind, Handler handler) {
  handlers_[kind] = std::move(handler);
}

void FaultInjector::arm(const FaultPlan& plan) {
  if (armed_) throw std::logic_error("FaultInjector::arm called twice");
  armed_ = true;
  plan_name_ = plan.name;
  for (const FaultSpec& spec : plan.faults) {
    auto shared = std::make_shared<const FaultSpec>(spec);
    int repeat = std::max(1, spec.repeat);
    for (int r = 0; r < repeat; ++r) {
      schedule_window(shared, spec.start + r * spec.period);
    }
  }
}

void FaultInjector::schedule_window(std::shared_ptr<const FaultSpec> spec,
                                    SimTime start) {
  if (spec->kind == FaultKind::kLinkFlap) {
    SimTime window_end = start + spec->duration;
    sim_.at(start, [this, spec, window_end]() { flap_down(spec, window_end); });
    return;
  }
  sim_.at(start, [this, spec]() { fire(*spec, true); });
  if (spec->duration > 0) {
    sim_.at(start + spec->duration, [this, spec]() { fire(*spec, false); });
  }
}

void FaultInjector::flap_down(std::shared_ptr<const FaultSpec> spec,
                              SimTime window_end) {
  if (sim_.now() >= window_end) return;
  fire(*spec, true);
  SimTime up_at =
      std::min(sim_.now() + jittered(*spec, spec->down_time), window_end);
  sim_.at(up_at, [this, spec, window_end]() {
    fire(*spec, false);
    SimTime down_at = sim_.now() + jittered(*spec, spec->up_time);
    if (down_at < window_end) {
      sim_.at(down_at,
              [this, spec, window_end]() { flap_down(spec, window_end); });
    }
  });
}

SimDuration FaultInjector::jittered(const FaultSpec& spec, SimDuration base) {
  if (spec.jitter <= 0.0) return std::max<SimDuration>(base, usec(1));
  double u = sim_.rng("fault." + spec.name).uniform();
  double factor = 1.0 + spec.jitter * (2.0 * u - 1.0);
  auto d = static_cast<SimDuration>(static_cast<double>(base) * factor);
  return std::max<SimDuration>(d, usec(1));
}

void FaultInjector::fire(const FaultSpec& spec, bool begin) {
  trace_.push_back(
      FaultTraceEvent{sim_.now(), spec.name, spec.kind, spec.target, begin});
  if (begin) {
    ++applied_;
    if (spec.duration > 0) ++active_;
  } else {
    --active_;
  }
  if (flight_recording_) {
    // Flight plane (always-on, independent of telemetry::on()): record
    // the window edge and raise an incident trigger on begin.
    telemetry::flight_fault(sim_.now(), spec.name, spec.target,
                            to_string(spec.kind), begin);
  }
  if (telemetry::on()) {
    telemetry::Tracer& tr = telemetry::tracer();
    if (begin) {
      telemetry::count("faults.applied",
                       {{"kind", to_string(spec.kind)}});
      telemetry::TraceArgs args;
      args.add("kind", to_string(spec.kind))
          .add("severity", spec.severity)
          .add("target", spec.target);
      if (spec.duration > 0) {
        telem_open_[spec.name].push_back(tr.begin(
            sim_.now(), "fault", spec.name, "faults", std::move(args)));
      } else {
        tr.instant(sim_.now(), "fault", spec.name, "faults", std::move(args));
      }
    } else {
      auto it = telem_open_.find(spec.name);
      if (it != telem_open_.end() && !it->second.empty()) {
        tr.end(sim_.now(), it->second.back());
        it->second.pop_back();
        if (it->second.empty()) telem_open_.erase(it);
      }
    }
    telemetry::gauge("faults.active", active_);
  }
  auto it = handlers_.find(spec.kind);
  if (it != handlers_.end() && it->second) it->second(spec, begin);
}

std::vector<std::string> FaultInjector::trace_lines() const {
  std::vector<std::string> lines;
  lines.reserve(trace_.size());
  for (const FaultTraceEvent& ev : trace_) {
    std::ostringstream os;
    os << "t=" << ev.time << (ev.begin ? " begin " : " end ")
       << to_string(ev.kind) << ' ' << ev.fault << " target=" << ev.target;
    lines.push_back(os.str());
  }
  return lines;
}

namespace plans {

// All plans fit comfortably inside a ten-simulated-minute run; the soak
// suite stretches them via FaultSpec recurrence instead of longer windows.

FaultPlan commute_cellular() {
  FaultPlan p;
  p.name = "commute-cellular";
  // Fig. 2: urban commute swings between a healthy cell, a congested one
  // (~0.2 of nominal bandwidth), and near-outage underpasses.
  FaultSpec congested;
  congested.name = "cell-congested";
  congested.kind = FaultKind::kCellularCollapse;
  congested.target = "cellular";
  congested.start = seconds(20);
  congested.duration = seconds(60);
  congested.severity = 0.2;
  congested.extra_loss = 0.05;
  p.faults.push_back(congested);

  FaultSpec underpass;
  underpass.name = "cell-underpass";
  underpass.kind = FaultKind::kCellularCollapse;
  underpass.target = "cellular";
  underpass.start = seconds(100);
  underpass.duration = seconds(8);
  underpass.severity = 0.05;
  underpass.extra_loss = 0.3;
  underpass.repeat = 3;
  underpass.period = seconds(40);
  p.faults.push_back(underpass);

  FaultSpec lte;
  lte.name = "lte-degrade";
  lte.kind = FaultKind::kLinkDegrade;
  lte.target = "basestation-edge";
  lte.start = seconds(150);
  lte.duration = seconds(45);
  lte.severity = 0.5;
  lte.extra_loss = 0.02;
  p.faults.push_back(lte);
  return p;
}

FaultPlan flaky_rsu() {
  FaultPlan p;
  p.name = "flaky-rsu";
  FaultSpec flap;
  flap.name = "rsu-flap";
  flap.kind = FaultKind::kLinkFlap;
  flap.target = "rsu-edge";
  flap.start = seconds(10);
  flap.duration = seconds(90);
  flap.down_time = seconds(3);
  flap.up_time = seconds(7);
  flap.jitter = 0.4;
  flap.repeat = 2;
  flap.period = seconds(150);
  p.faults.push_back(flap);

  FaultSpec degrade;
  degrade.name = "rsu-weak-signal";
  degrade.kind = FaultKind::kLinkDegrade;
  degrade.target = "rsu-edge";
  degrade.start = seconds(120);
  degrade.duration = seconds(25);
  degrade.severity = 0.3;
  degrade.extra_loss = 0.1;
  p.faults.push_back(degrade);
  return p;
}

FaultPlan cloud_blackout() {
  FaultPlan p;
  p.name = "cloud-blackout";
  FaultSpec down;
  down.name = "cloud-down";
  down.kind = FaultKind::kLinkDown;
  down.target = "cloud";
  down.start = seconds(30);
  down.duration = seconds(75);
  p.faults.push_back(down);

  FaultSpec bs;
  bs.name = "bs-degraded";
  bs.kind = FaultKind::kLinkDegrade;
  bs.target = "basestation-edge";
  bs.start = seconds(30);
  bs.duration = seconds(75);
  bs.severity = 0.4;
  p.faults.push_back(bs);

  FaultSpec after;
  after.name = "cloud-aftershock";
  after.kind = FaultKind::kLinkFlap;
  after.target = "cloud";
  after.start = seconds(120);
  after.duration = seconds(40);
  after.down_time = seconds(2);
  after.up_time = seconds(6);
  after.jitter = 0.25;
  p.faults.push_back(after);

  // After the aftershock the backbone stays up but lossy: the cellular
  // gate remains open, so uploads are attempted and actually fail —
  // exercising the retry-with-backoff path instead of the skip path.
  FaultSpec lossy;
  lossy.name = "cloud-lossy";
  lossy.kind = FaultKind::kLinkDegrade;
  lossy.target = "cloud";
  lossy.start = seconds(165);
  lossy.duration = seconds(60);
  lossy.severity = 0.6;
  lossy.extra_loss = 0.9;
  p.faults.push_back(lossy);
  return p;
}

FaultPlan edge_attack() {
  FaultPlan p;
  p.name = "edge-attack";
  FaultSpec comp;
  comp.name = "lane-compromise";
  comp.kind = FaultKind::kServiceCompromise;
  comp.target = "lane-detection";
  comp.start = seconds(25);
  p.faults.push_back(comp);

  // Container services have no TEE shield: this one gets detected and
  // reinstalled by the security monitor.
  FaultSpec comp2;
  comp2.name = "infotainment-compromise";
  comp2.kind = FaultKind::kServiceCompromise;
  comp2.target = "infotainment-chunk";
  comp2.start = seconds(35);
  p.faults.push_back(comp2);

  FaultSpec crash;
  crash.name = "speech-crash";
  crash.kind = FaultKind::kServiceCrash;
  crash.target = "speech-assistant";
  crash.start = seconds(50);
  crash.repeat = 2;
  crash.period = seconds(80);
  p.faults.push_back(crash);

  FaultSpec proc;
  proc.name = "gpu-offline";
  proc.kind = FaultKind::kProcessorOffline;
  proc.target = "proc:1";
  proc.start = seconds(70);
  proc.duration = seconds(30);
  p.faults.push_back(proc);

  FaultSpec slow;
  slow.name = "cpu-thermal";
  slow.kind = FaultKind::kProcessorSlowdown;
  slow.target = "proc:0";
  slow.start = seconds(110);
  slow.duration = seconds(50);
  slow.severity = 0.5;
  p.faults.push_back(slow);
  return p;
}

FaultPlan disk_hiccups() {
  FaultPlan p;
  p.name = "disk-hiccups";
  FaultSpec disk;
  disk.name = "nvme-stall";
  disk.kind = FaultKind::kDiskWriteError;
  disk.target = "ddi";
  disk.start = seconds(15);
  disk.duration = seconds(5);
  disk.repeat = 5;
  disk.period = seconds(35);
  p.faults.push_back(disk);

  FaultSpec cell;
  cell.name = "cell-wobble";
  cell.kind = FaultKind::kCellularCollapse;
  cell.target = "cellular";
  cell.start = seconds(60);
  cell.duration = seconds(30);
  cell.severity = 0.45;
  p.faults.push_back(cell);
  return p;
}

FaultPlan rolling_chaos() {
  FaultPlan p;
  p.name = "rolling-chaos";
  FaultSpec flap;
  flap.name = "chaos-rsu-flap";
  flap.kind = FaultKind::kLinkFlap;
  flap.target = "rsu-edge";
  flap.start = seconds(5);
  flap.duration = seconds(170);
  flap.down_time = seconds(4);
  flap.up_time = seconds(9);
  flap.jitter = 0.5;
  p.faults.push_back(flap);

  FaultSpec cloud;
  cloud.name = "chaos-cloud-down";
  cloud.kind = FaultKind::kLinkDown;
  cloud.target = "cloud";
  cloud.start = seconds(40);
  cloud.duration = seconds(20);
  cloud.repeat = 3;
  cloud.period = seconds(55);
  p.faults.push_back(cloud);

  FaultSpec cell;
  cell.name = "chaos-cell-collapse";
  cell.kind = FaultKind::kCellularCollapse;
  cell.target = "cellular";
  cell.start = seconds(65);
  cell.duration = seconds(35);
  cell.severity = 0.1;
  cell.extra_loss = 0.15;
  p.faults.push_back(cell);

  FaultSpec disk;
  disk.name = "chaos-disk";
  disk.kind = FaultKind::kDiskWriteError;
  disk.target = "ddi";
  disk.start = seconds(80);
  disk.duration = seconds(10);
  disk.repeat = 2;
  disk.period = seconds(45);
  p.faults.push_back(disk);

  FaultSpec crash;
  crash.name = "chaos-crash";
  crash.kind = FaultKind::kServiceCrash;
  crash.target = "license-plate";
  crash.start = seconds(95);
  p.faults.push_back(crash);

  FaultSpec proc;
  proc.name = "chaos-cpu-slow";
  proc.kind = FaultKind::kProcessorSlowdown;
  proc.target = "proc:0";
  proc.start = seconds(120);
  proc.duration = seconds(40);
  proc.severity = 0.6;
  p.faults.push_back(proc);
  return p;
}

std::vector<FaultPlan> all() {
  return {commute_cellular(), flaky_rsu(),   cloud_blackout(),
          edge_attack(),      disk_hiccups(), rolling_chaos()};
}

}  // namespace plans

}  // namespace vdap::sim
