// Shared harness for the chaos/soak suites: builds a full OpenVdap vehicle,
// wires a FaultInjector to every reacting layer (net impairments, VCU
// processors, DDI disk, EdgeOSv security), drives deterministic collector +
// service load while a FaultPlan runs, then heals, drains and snapshots
// everything the invariant checks need. The run is captured into one
// telemetry::Domain bound for its duration.
#pragma once

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/platform.hpp"
#include "ddi/cloudsync.hpp"
#include "ddi/collectors.hpp"
#include "net/impair.hpp"
#include "sim/faults.hpp"
#include "telemetry/export.hpp"
#include "telemetry/planes.hpp"
#include "util/strings.hpp"
#include "workload/apps.hpp"

namespace vdap::chaos {

struct ChaosOutcome {
  // Determinism evidence: two runs of the same (seed, plan) must match on
  // all three traces below plus every counter.
  std::vector<std::string> fault_trace;
  std::vector<std::string> report_trace;

  // Conservation evidence.
  std::map<std::pair<std::string, long long>, int> cloud;  // key -> copies
  std::uint64_t uploads = 0;
  std::uint64_t backlog = 0;
  std::uint64_t staged = 0;

  // Service-run accounting.
  std::uint64_t releases = 0;
  std::uint64_t reports = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t infeasible = 0;
  std::size_t active_runs = 0;
  std::size_t hung = 0;

  // Fault-reaction stats (what actually got exercised).
  std::uint64_t faults_applied = 0;
  std::uint64_t failovers = 0;
  std::uint64_t reinstalls = 0;
  std::uint64_t crashes = 0;
  std::uint64_t detected = 0;
  std::uint64_t sync_failed = 0;
  std::uint64_t sync_retries = 0;
  std::uint64_t disk_failures = 0;

  // Telemetry evidence: the full Chrome-trace export (byte-identical across
  // same-(seed, plan) runs), the one end-of-run metrics line (with its
  // newline, as the fleet runners write metrics.jsonl), and the number of
  // spans still open at drain — which must be zero (no leaked begin()s).
  std::string trace_json;
  std::string metrics_jsonl;
  std::size_t open_spans = 0;
};

struct ChaosConfig {
  /// Release a service every this often until load_until.
  sim::SimDuration release_period = sim::seconds(5);
  sim::SimTime load_until = sim::minutes(3);
  /// Keep running (faults still firing) until this time, then heal+drain.
  sim::SimTime run_until = sim::minutes(6);
  sim::SimDuration obd_period = sim::msec(200);
  std::size_t sync_batch = 500;
};

inline ChaosOutcome run_chaos(const sim::FaultPlan& plan, std::uint64_t seed,
                              const std::string& dir_tag,
                              ChaosConfig cc = {}) {
  // A fresh directory per run, so concurrent test processes never share
  // (or delete) each other's DDI segments.
  const std::string dir =
      core::make_temp_dir("vdap-chaos-" + plan.name + "-" + dir_tag);

  ChaosOutcome out;
  {
    sim::Simulator sim(seed);
    telemetry::Domain domain;
    telemetry::BindScope bind({&domain});
    core::PlatformConfig cfg;
    cfg.vehicle_name = "chaos-cav";
    cfg.ddi_dir = dir;
    core::OpenVdap car(sim, cfg);
    car.install_standard_services();
    car.offload().enable_failover(3);
    car.os().security().start_monitor();

    // --- deterministic collector load into DDI ---------------------------
    auto upload = [&](ddi::DataRecord r) { car.ddi().upload(std::move(r)); };
    ddi::ObdCollector obd(sim, upload, cc.obd_period);
    ddi::WeatherFeed weather(sim, upload);
    ddi::TrafficFeed traffic(sim, upload);
    obd.start();
    weather.start();
    traffic.start();

    // --- cloud sync with a duplicate-detecting sink ----------------------
    ddi::CloudSyncOptions sopts;
    sopts.check_period = sim::seconds(10);
    sopts.batch_records = cc.sync_batch;
    ddi::CloudSync sync(sim, car.ddi(), car.topology(), sopts);
    sync.set_sink([&](const ddi::DataRecord& r) {
      ++out.cloud[{r.stream, static_cast<long long>(r.timestamp)}];
    });
    sync.start();

    // --- fault injector wired to every reacting layer --------------------
    net::ImpairmentController imp(car.topology());
    sim::FaultInjector inj(sim);
    auto link_toggle = [&](const sim::FaultSpec& f, bool begin) {
      auto t = net::tier_from_string(f.target);
      if (!t) return;
      if (begin) {
        imp.link_down(*t);
      } else {
        imp.link_up(*t);
        car.elastic().reevaluate();  // conditions improved: retry hung runs
      }
    };
    inj.on(sim::FaultKind::kLinkDown, link_toggle);
    inj.on(sim::FaultKind::kLinkFlap, link_toggle);

    std::map<std::string, std::vector<std::uint64_t>> tokens;
    inj.on(sim::FaultKind::kLinkDegrade,
           [&](const sim::FaultSpec& f, bool begin) {
             auto t = net::tier_from_string(f.target);
             if (!t) return;
             if (begin) {
               tokens[f.name].push_back(
                   imp.degrade(*t, f.severity, f.extra_loss));
             } else if (!tokens[f.name].empty()) {
               imp.restore(tokens[f.name].back());
               tokens[f.name].pop_back();
             }
           });
    inj.on(sim::FaultKind::kCellularCollapse,
           [&](const sim::FaultSpec& f, bool begin) {
             if (begin) {
               tokens[f.name].push_back(
                   imp.cellular_collapse(f.severity, f.extra_loss));
             } else if (!tokens[f.name].empty()) {
               imp.restore(tokens[f.name].back());
               tokens[f.name].pop_back();
             }
           });

    auto board_device = [&](const std::string& target) -> hw::ComputeDevice* {
      int idx = -1;
      if (std::sscanf(target.c_str(), "proc:%d", &idx) != 1) return nullptr;
      const auto& devs = car.board().devices();
      if (idx < 0 || static_cast<std::size_t>(idx) >= devs.size()) {
        return nullptr;
      }
      return devs[static_cast<std::size_t>(idx)].get();
    };
    std::map<std::string, hw::ProcessorSpec> saved_specs;
    inj.on(sim::FaultKind::kProcessorSlowdown,
           [&](const sim::FaultSpec& f, bool begin) {
             hw::ComputeDevice* dev = board_device(f.target);
             if (dev == nullptr) return;
             if (begin) {
               saved_specs[f.name] = dev->spec();
               hw::ProcessorSpec slow = dev->spec();
               for (auto& [cls, gf] : slow.gflops) gf *= f.severity;
               dev->reconfigure(slow);
             } else if (saved_specs.count(f.name) > 0) {
               dev->reconfigure(saved_specs[f.name]);
               saved_specs.erase(f.name);
             }
           });
    inj.on(sim::FaultKind::kProcessorOffline,
           [&](const sim::FaultSpec& f, bool begin) {
             hw::ComputeDevice* dev = board_device(f.target);
             if (dev != nullptr) dev->set_online(!begin);
           });
    inj.on(sim::FaultKind::kDiskWriteError,
           [&](const sim::FaultSpec&, bool begin) {
             car.ddi().disk().set_write_fault(begin);
           });
    inj.on(sim::FaultKind::kServiceCrash,
           [&](const sim::FaultSpec& f, bool begin) {
             if (begin && car.os().security().installed(f.target)) {
               car.os().security().crash(f.target);
             }
           });
    inj.on(sim::FaultKind::kServiceCompromise,
           [&](const sim::FaultSpec& f, bool begin) {
             if (begin && car.os().security().installed(f.target)) {
               car.os().security().compromise(f.target);
             }
           });
    inj.arm(plan);

    // --- service release + reevaluation schedules ------------------------
    const std::vector<std::string> services = {
        "lane-detection",   "obd-diagnostics", "infotainment-chunk",
        "license-plate",    "speech-assistant"};
    // The matching app DAGs, so each release also records an offload-tier
    // decision (decide() is a pure estimator: no RNG, no queue events —
    // it only adds the decision instant + scores to the telemetry trace).
    const std::vector<workload::AppDag> service_dags = {
        workload::apps::lane_detection(), workload::apps::obd_diagnostics(),
        workload::apps::infotainment_chunk(),
        workload::apps::license_plate_pipeline(),
        workload::apps::speech_assistant()};
    auto record_report = [&](const edgeos::ServiceRunReport& rep) {
      ++out.reports;
      if (rep.ok) ++out.completed_ok;
      if (rep.infeasible) ++out.infeasible;
      out.report_trace.push_back(util::format(
          "t=%lld svc=%s ok=%d hung=%d failovers=%d infeasible=%d pipe=%s",
          static_cast<long long>(rep.finished), rep.service.c_str(),
          rep.ok ? 1 : 0, rep.was_hung ? 1 : 0, rep.failovers,
          rep.infeasible ? 1 : 0, rep.pipeline.c_str()));
    };
    int release_idx = 0;
    for (sim::SimTime t = cc.release_period; t <= cc.load_until;
         t += cc.release_period) {
      int idx = release_idx++;
      sim.at(t, [&, idx]() {
        ++out.releases;
        car.offload().decide(service_dags[idx % service_dags.size()]);
        car.run_service(services[idx % services.size()], record_report);
      });
    }
    for (sim::SimTime t = sim::seconds(7); t <= cc.run_until;
         t += sim::seconds(7)) {
      sim.at(t, [&]() { car.elastic().reevaluate(); });
    }

    // --- run under fire ---------------------------------------------------
    sim.run_until(cc.run_until);

    // --- heal, then drain --------------------------------------------------
    obd.stop();
    weather.stop();
    traffic.stop();
    imp.restore_all();
    car.ddi().disk().set_write_fault(false);
    car.elastic().reevaluate();
    sim.run_until(cc.run_until + sim::minutes(2));
    car.elastic().abandon_hung();
    car.ddi().flush_staged(/*force_all=*/true);
    for (int i = 0; i < 60 && sync.backlog() > 0; ++i) {
      sync.sync_once();
      sim.run_until(sim.now() + sim::seconds(30));
    }
    sync.stop();
    sim.run_until(sim.now() + sim::minutes(1));

    // --- snapshot ----------------------------------------------------------
    out.fault_trace = inj.trace_lines();
    out.faults_applied = inj.applied();
    out.uploads = car.ddi().uploads();
    out.backlog = sync.backlog();
    out.staged = car.ddi().staged_count();
    out.active_runs = car.elastic().active_runs();
    out.hung = car.elastic().hung_count();
    out.failovers = car.elastic().failovers();
    out.reinstalls = car.os().security().reinstalls();
    out.crashes = car.os().security().crashes();
    out.detected = car.os().security().compromises_detected();
    out.sync_failed = sync.failed_uploads();
    out.sync_retries = sync.retries();
    out.disk_failures = car.ddi().disk_write_failures();
    out.trace_json = telemetry::chrome_trace_json(domain.tracer());
    out.metrics_jsonl = telemetry::metrics_snapshot_json(domain.metrics(),
                                                         sim.now()) + '\n';
    out.open_spans = domain.tracer().open_spans();
  }
  std::filesystem::remove_all(dir);
  return out;
}

}  // namespace vdap::chaos
