#include "core/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string_view>
#include <utility>

#include "core/fleet_scale.hpp"
#include "core/platform.hpp"
#include "net/impair.hpp"
#include "sim/sharded.hpp"
#include "util/strings.hpp"

namespace vdap::core {

namespace fs = std::filesystem;
namespace fleet = telemetry::fleet;

sim::FaultPlan fleet_compute_outlier_plan(int vehicle_index, double severity) {
  sim::FaultPlan plan;
  plan.name = util::format("fleet-compute-outlier-%d", vehicle_index);
  // The reference 1stHEP has four devices (CPU+GPU+FPGA+ASIC); slow them
  // all so the elastic manager cannot shuffle the work to a healthy
  // sibling device and hide the fault.
  for (int j = 0; j < 4; ++j) {
    sim::FaultSpec f;
    f.name = util::format("slow-cav%d-proc%d", vehicle_index, j);
    f.kind = sim::FaultKind::kProcessorSlowdown;
    f.target = util::format("cav-%d/proc:%d", vehicle_index, j);
    f.start = sim::seconds(40);
    f.duration = sim::seconds(70);
    f.severity = severity;
    plan.faults.push_back(std::move(f));
  }
  return plan;
}

sim::FaultPlan fleet_uplink_chaos_plan() {
  sim::FaultPlan plan;
  plan.name = "fleet-uplink-chaos";

  sim::FaultSpec outage;
  outage.name = "cloud-outage";
  outage.kind = sim::FaultKind::kLinkDown;
  outage.target = "cloud";
  outage.start = sim::seconds(30);
  outage.duration = sim::seconds(25);
  plan.faults.push_back(outage);

  sim::FaultSpec degrade;
  degrade.name = "cloud-degrade";
  degrade.kind = sim::FaultKind::kLinkDegrade;
  degrade.target = "cloud";
  degrade.start = sim::seconds(70);
  degrade.duration = sim::seconds(30);
  degrade.severity = 0.25;
  degrade.extra_loss = 0.3;
  plan.faults.push_back(degrade);

  sim::FaultSpec flap;
  flap.name = "cloud-flap";
  flap.kind = sim::FaultKind::kLinkFlap;
  flap.target = "cloud";
  flap.start = sim::seconds(110);
  flap.duration = sim::seconds(30);
  flap.down_time = sim::seconds(3);
  flap.up_time = sim::seconds(4);
  flap.jitter = 0.2;
  plan.faults.push_back(flap);

  sim::FaultSpec late;
  late.name = "cloud-outage-late";
  late.kind = sim::FaultKind::kLinkDown;
  late.target = "cloud";
  late.start = sim::seconds(150);
  late.duration = sim::seconds(20);
  plan.faults.push_back(late);

  return plan;
}

FleetOutcome run_fleet(const sim::FaultPlan& plan, const FleetConfig& config) {
  const int n = std::max(config.vehicles, 2);
  const int nshards = std::clamp(config.shards, 1, n);
  std::vector<fs::path> dirs;
  for (int i = 0; i < n; ++i) {
    dirs.emplace_back(make_temp_dir(
        util::format("vdap-fleet-%s-%d", config.dir_tag.c_str(), i)));
  }

  FleetOutcome out;
  {
    // The simulator owns the observability planes (DESIGN.md §6h–§6j).
    // Setup code below runs unbound for capture and flight (its
    // instrumentation is skipped) and is sampled as "fleet/setup" on the
    // coordinator's prof slot; epoch work records into the shards' planes
    // and the quiesced sections between runs into the coordinator's.
    sim::ShardedSimulator ssim(
        config.seed, sim::ShardedSimulator::Options{nshards, config.threads,
                                                    config.epoch, config});
    telemetry::CoordinatorProfScope setup(ssim.planes(), "fleet/setup");

    // Each shard owns a full copy of the shipping network. Tier-named
    // fault targets impair every copy identically (same plan, same
    // per-shard jitter streams), so a vehicle's transport sees the same
    // conditions no matter which shard hosts it.
    struct ShardWorld {
      std::unique_ptr<net::Topology> ship_topo;
      std::unique_ptr<net::ImpairmentController> imp;
      std::unique_ptr<sim::FaultInjector> inj;
      std::map<std::string, std::vector<std::uint64_t>> tokens;
      std::map<std::string, hw::ProcessorSpec> saved_specs;
      std::map<int, OpenVdap*> local;  // global vehicle index -> platform
    };
    std::vector<ShardWorld> worlds(static_cast<std::size_t>(nshards));
    for (int s = 0; s < nshards; ++s) {
      ShardWorld& w = worlds[static_cast<std::size_t>(s)];
      w.ship_topo = std::make_unique<net::Topology>(ssim.shard(s));
      w.imp = std::make_unique<net::ImpairmentController>(*w.ship_topo);
      w.inj = std::make_unique<sim::FaultInjector>(ssim.shard(s));
    }

    // --- platforms -------------------------------------------------------
    std::vector<std::unique_ptr<OpenVdap>> cars;
    for (int i = 0; i < n; ++i) {
      const int s = ssim.shard_of(static_cast<std::uint64_t>(i));
      PlatformConfig cfg;
      cfg.vehicle_name = util::format("cav-%d", i);
      cfg.vehicle_secret = 0xC0FFEE00 + static_cast<std::uint64_t>(i);
      cfg.ddi_dir = dirs[static_cast<std::size_t>(i)].string();
      cfg.with_remote_tiers = config.remote_tiers;
      cfg.health.enabled = config.health;
      cars.push_back(std::make_unique<OpenVdap>(ssim.shard(s), cfg));
      cars.back()->install_standard_services();
      worlds[static_cast<std::size_t>(s)].local[i] = cars.back().get();
    }

    // --- ingest backend + shippers --------------------------------------
    // One ingest shard per sim shard (hosted mode): a vehicle's frames
    // are absorbed into its own ingest shard by the sim thread that
    // delivered them, so ingest scales with the sim instead of
    // serializing on the coordinator. Every observable output of the
    // backend is merged in vehicle-/metric-name order, so the outcome is
    // byte-identical across shard and thread counts; the frame batch
    // still crosses to the coordinator (in canonical (time, vehicle,
    // seq) order) to build frames_jsonl.
    fleet::IngestOptions ingest_opts = config.ingest;
    ingest_opts.shards = nshards;
    ingest_opts.threads = 1;  // driven by the sim threads, not a pool
    fleet::ShardedIngestBackend backend(ingest_opts);
    ssim.set_epoch_sink([&out, &backend](
                            sim::SimTime,
                            std::vector<sim::ShardMessage>&& batch) {
      // Detection runs at EVERY epoch barrier (shards quiesced) — the
      // PR-4 detect-period ingest throttle is gone.
      backend.barrier();
      if (batch.empty()) return;
      for (const sim::ShardMessage& m : batch) {
        out.frames_jsonl += m.payload;
        out.frames_jsonl += '\n';
      }
      ++out.epoch_batches;
    });
    std::vector<std::unique_ptr<fleet::TelemetryShipper>> shippers;
    for (int i = 0; i < n; ++i) {
      const int s = ssim.shard_of(static_cast<std::uint64_t>(i));
      sim::Simulator* shard_sim = &ssim.shard(s);
      shippers.push_back(std::make_unique<fleet::TelemetryShipper>(
          *shard_sim, cars[static_cast<std::size_t>(i)]->name(),
          *worlds[static_cast<std::size_t>(s)].ship_topo,
          [&ssim, &backend, s, i, shard_sim](const std::string& bytes) {
            PROF_SCOPE("fleet/deliver");
            backend.shard(s).ingest_line(bytes);
            ssim.post(s, shard_sim->now(), static_cast<std::uint64_t>(i),
                      bytes);
          },
          config.shipper));
      shippers.back()->start();
      if (HealthController* health = cars[static_cast<std::size_t>(i)]->health()) {
        fleet::TelemetryShipper* shipper = shippers.back().get();
        health->set_event_sink(
            [shipper](const telemetry::analysis::HealthEvent& ev) {
              shipper->on_health_event(ev);
            });
      }
    }

    // --- fault injectors (one per shard, all armed with the full plan) ---
    for (int s = 0; s < nshards; ++s) {
      ShardWorld& w = worlds[static_cast<std::size_t>(s)];
      sim::FaultInjector& inj = *w.inj;
      net::ImpairmentController* imp = w.imp.get();
      auto link_toggle = [imp](const sim::FaultSpec& f, bool begin) {
        auto t = net::tier_from_string(f.target);
        if (!t) return;
        if (begin) {
          imp->link_down(*t);
        } else {
          imp->link_up(*t);
        }
      };
      inj.on(sim::FaultKind::kLinkDown, link_toggle);
      inj.on(sim::FaultKind::kLinkFlap, link_toggle);

      inj.on(sim::FaultKind::kLinkDegrade,
             [&w](const sim::FaultSpec& f, bool begin) {
               auto t = net::tier_from_string(f.target);
               if (!t) return;
               if (begin) {
                 w.tokens[f.name].push_back(
                     w.imp->degrade(*t, f.severity, f.extra_loss));
               } else if (!w.tokens[f.name].empty()) {
                 w.imp->restore(w.tokens[f.name].back());
                 w.tokens[f.name].pop_back();
               }
             });
      inj.on(sim::FaultKind::kCellularCollapse,
             [&w](const sim::FaultSpec& f, bool begin) {
               if (begin) {
                 w.tokens[f.name].push_back(
                     w.imp->cellular_collapse(f.severity, f.extra_loss));
               } else if (!w.tokens[f.name].empty()) {
                 w.imp->restore(w.tokens[f.name].back());
                 w.tokens[f.name].pop_back();
               }
             });

      // Processor faults bite only on the shard hosting the target
      // vehicle; every other shard's injector records the window in its
      // trace and moves on.
      auto fleet_device = [&w](const std::string& target) -> hw::ComputeDevice* {
        int vi = -1;
        int pj = -1;
        if (std::sscanf(target.c_str(), "cav-%d/proc:%d", &vi, &pj) != 2) {
          return nullptr;
        }
        auto it = w.local.find(vi);
        if (it == w.local.end()) return nullptr;
        const auto& devs = it->second->board().devices();
        if (pj < 0 || static_cast<std::size_t>(pj) >= devs.size()) {
          return nullptr;
        }
        return devs[static_cast<std::size_t>(pj)].get();
      };
      inj.on(sim::FaultKind::kProcessorSlowdown,
             [&w, fleet_device](const sim::FaultSpec& f, bool begin) {
               hw::ComputeDevice* dev = fleet_device(f.target);
               if (dev == nullptr) return;
               if (begin) {
                 w.saved_specs[f.name] = dev->spec();
                 hw::ProcessorSpec slow = dev->spec();
                 for (auto& [cls, gf] : slow.gflops) gf *= f.severity;
                 dev->reconfigure(slow);
               } else if (w.saved_specs.count(f.name) > 0) {
                 dev->reconfigure(w.saved_specs[f.name]);
                 w.saved_specs.erase(f.name);
               }
             });
      inj.on(sim::FaultKind::kProcessorOffline,
             [fleet_device](const sim::FaultSpec& f, bool begin) {
               hw::ComputeDevice* dev = fleet_device(f.target);
               if (dev != nullptr) dev->set_online(!begin);
             });
      inj.arm(plan);
    }

    // --- flight recorder (DESIGN.md §6i) ---------------------------------
    if (telemetry::FlightRecorder* flight = ssim.planes().flight()) {
      // The manifest context excludes shards/threads: bundle bytes must
      // not depend on execution geometry.
      json::Object cj;
      cj["vehicles"] = static_cast<std::int64_t>(n);
      cj["release_period"] = config.release_period;
      cj["load_until"] = config.load_until;
      cj["run_until"] = config.run_until;
      cj["drain"] = config.drain;
      cj["health"] = config.health;
      cj["remote_tiers"] = config.remote_tiers;
      flight->set_context(config.seed, plan.name, json::Value(std::move(cj)));
      flight->set_manifest_hook([&backend](json::Object& m) {
        m["ingest_anomalies"] =
            static_cast<std::int64_t>(backend.anomalies().size());
        json::Array av;
        for (const std::string& v : backend.anomalous_vehicles()) {
          av.emplace_back(v);
        }
        m["anomalous_vehicles"] = std::move(av);
      });
      // Every injector replays the same plan with the same jitter streams,
      // so shard 0's injector records activations for everyone — each
      // window edge appears in the black box exactly once regardless of
      // the shard count.
      for (int s = 1; s < nshards; ++s) {
        worlds[static_cast<std::size_t>(s)].inj->set_flight_recording(false);
      }
      if (config.flight_incident_at > 0) {
        ssim.shard(0).at(config.flight_incident_at, [] {
          telemetry::incident("scripted", "fleet");
        });
      }
    }

    // --- load: every vehicle runs the same staggered schedule ------------
    std::map<std::string, FleetVehicleStats> stats;
    for (int i = 0; i < n; ++i) stats[cars[static_cast<std::size_t>(i)]->name()];
    int release_idx = 0;
    for (sim::SimTime t = config.release_period; t <= config.load_until;
         t += config.release_period) {
      const std::string& service =
          config.services[static_cast<std::size_t>(release_idx) %
                          config.services.size()];
      ++release_idx;
      for (int i = 0; i < n; ++i) {
        OpenVdap* car = cars[static_cast<std::size_t>(i)].get();
        fleet::TelemetryShipper* shipper =
            shippers[static_cast<std::size_t>(i)].get();
        FleetVehicleStats* vs = &stats[car->name()];
        // Small per-vehicle stagger so releases do not all tie-break on
        // one clock tick.
        car->simulator().at(t + sim::usec(137) * i,
                            [=, &service_name = service]() {
          ++vs->releases;
          shipper->count("svc." + service_name + ".released");
          car->run_service(
              service_name,
              [=](const edgeos::ServiceRunReport& r) {
                ++vs->reports;
                if (r.ok) ++vs->completed_ok;
                shipper->count("svc." + r.service +
                               (r.ok ? ".ok" : ".fail"));
                shipper->observe("svc." + r.service + ".latency_ms",
                                 sim::to_millis(r.latency()));
              });
        });
      }
    }
    std::vector<sim::Simulator::PeriodicHandle> tickers;
    for (int i = 0; i < n; ++i) {
      OpenVdap* car = cars[static_cast<std::size_t>(i)].get();
      fleet::TelemetryShipper* shipper =
          shippers[static_cast<std::size_t>(i)].get();
      tickers.push_back(car->simulator().every(sim::seconds(7), [car]() {
        car->elastic().reevaluate();
      }));
      tickers.push_back(car->simulator().every(sim::seconds(5),
                                               [car, shipper]() {
        shipper->gauge("elastic.active_runs",
                       static_cast<double>(car->elastic().active_runs()));
      }));
      if (config.location_period > 0) {
        // Deterministic loc.x/loc.y fixes — a pure function of (vehicle
        // index, sim time), no RNG: vehicle i circles at its own radius,
        // phased around the ring, one lap per 8 minutes.
        tickers.push_back(car->simulator().every(config.location_period,
                                                 [car, shipper, i, n]() {
          const double angle =
              2.0 * 3.14159265358979323846 *
              (static_cast<double>(i) / static_cast<double>(n) +
               sim::to_seconds(car->simulator().now()) / 480.0);
          const double radius = 200.0 + 25.0 * static_cast<double>(i);
          shipper->observe("loc.x", radius * std::cos(angle));
          shipper->observe("loc.y", radius * std::sin(angle));
        }));
      }
    }

    // --- run under fire, then heal and drain -----------------------------
    // Direct mutations (heal, flush, stop) happen between run_until calls,
    // i.e. at epoch barriers with every shard quiesced. They record into
    // the coordinator's planes (counters sum identically regardless of
    // which domain records them).
    setup.end();
    ssim.run_until(config.run_until);
    {
      telemetry::BindScope bind(ssim.planes().coordinator(ssim.now()));
      for (ShardWorld& w : worlds) w.imp->restore_all();
      for (auto& car : cars) car->elastic().reevaluate();
    }
    ssim.run_until(config.run_until + sim::seconds(20));
    {
      telemetry::BindScope bind(ssim.planes().coordinator(ssim.now()));
      for (auto& t : tickers) t.stop();
      for (auto& car : cars) {
        car->elastic().abandon_hung();
        if (HealthController* health = car->health()) health->flush();
      }
      for (auto& shipper : shippers) {
        shipper->stop();
        shipper->flush_now();
      }
    }
    ssim.run_until(config.run_until + sim::seconds(20) + config.drain);

    // --- snapshot --------------------------------------------------------
    for (int i = 0; i < n; ++i) {
      const fleet::TelemetryShipper& s = *shippers[static_cast<std::size_t>(i)];
      FleetVehicleStats& vs = stats[s.vehicle()];
      vs.frames_enqueued = s.stats().frames_enqueued;
      vs.frames_acked = s.stats().frames_acked;
      vs.frames_dropped = s.stats().frames_dropped;
      vs.send_attempts = s.stats().send_attempts;
      vs.retries = s.stats().retries;
      vs.wire_bytes = s.stats().wire_bytes;
      out.releases += vs.releases;
      out.reports += vs.reports;
      out.completed_ok += vs.completed_ok;
    }
    out.vehicles = std::move(stats);
    out.rollup_table = backend.rollup_table();
    out.anomaly_table = backend.anomaly_table();
    out.vehicle_table = backend.vehicle_table();
    out.anomalies = backend.anomalies();
    out.anomalous_vehicles = backend.anomalous_vehicles();
    out.frames_ingested = backend.frames_ingested();
    out.duplicates = backend.duplicates();
    out.reordered = backend.reordered();
    out.lost_frames = backend.lost_frames();
    out.decode_errors = backend.decode_errors();
    out.samples_ingested = backend.samples_ingested();
    out.detect_passes = backend.detect_passes();
    out.detect_scanned = backend.detect_scanned();
    for (const std::string& q : config.queries) {
      std::string error;
      std::string table = backend.run_query_text(q, &error);
      out.query_results.push_back(table.empty() ? "query error: " + error
                                                : std::move(table));
    }
    out.epochs = ssim.epochs_run();
    // Every shard's injector replays the same plan with the same jitter
    // streams, so shard 0's trace is THE trace.
    out.fault_trace = worlds[0].inj->trace_lines();

    ssim.planes().collect(ssim.now(), out);
    out.shards_jsonl = shards_report(ssim, &backend);
  }
  for (const fs::path& dir : dirs) fs::remove_all(dir);
  return out;
}

}  // namespace vdap::core
