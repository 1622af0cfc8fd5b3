// A1 — the §III architecture comparison behind Fig. 1: cloud-only vs
// in-vehicle-only vs OpenVDAP's edge-based dynamic offloading, across the
// paper's three mobility conditions (parked / 35 MPH / 70 MPH).
//
// Workload: the A3 license-plate service plus ad-hoc Inception v3 requests
// released for two minutes. Metrics: mean / p95 end-to-end latency,
// deadline-met fraction, vehicle-side energy. Expected shape: at speed,
// cloud-only collapses with the cellular link (the Fig. 2 mechanism);
// in-vehicle-only holds latency but burns the §III-B power budget; dynamic
// edge offloading tracks the best of both.
#include "bench_output.hpp"

#include <cstdio>

#include "core/platform.hpp"
#include "util/stats.hpp"
#include "workload/apps.hpp"

namespace {

using namespace vdap;

struct Result {
  util::Histogram latency_ms;
  int met = 0;
  int total = 0;
  double energy_j = 0.0;
};

Result run_architecture(const std::vector<net::Tier>& tiers, double mph,
                        bool rsu_coverage) {
  sim::Simulator sim(1234);
  core::PlatformConfig cfg;
  cfg.vehicle_name = "bench";
  core::OpenVdap cav(sim, cfg);
  core::DriveScenario scenario(
      sim, cav.topology(),
      {{200.0, mph, rsu_coverage, false}}, &cav.elastic());
  scenario.start();
  core::OffloadPlanner planner(cav.elastic(), tiers);

  Result res;
  // Background ADAS load pinned to the vehicle (safety-critical, §II-B):
  // this is the paper's motivating contention — "assume two
  // latency-sensitive applications require execution on the GPU at the
  // same time."
  // A multi-camera perception stack: 50 Hz pedestrian detection plus a
  // 7 Hz deep vehicle detector, all pinned on-board — ~440 GFLOP/s of CNN
  // demand against the 1stHEP's ~460 GFLOP/s, so offloadable work queues.
  auto pedestrian = workload::apps::pedestrian_detection();
  auto detector = workload::apps::vehicle_detection_tf();
  sim.every(sim::msec(20), [&] { cav.dsf().submit(pedestrian); });
  sim.every(sim::msec(150), [&] { cav.dsf().submit(detector); });

  // The offloadable stream: the paper's heavyweight TensorFlow vehicle
  // detector (27.9 GFLOP, 500 ms deadline) once per second, plus the A3
  // plate search every 2 s.
  auto heavy = workload::apps::vehicle_detection_tf();
  auto a3 = workload::apps::a3_kidnapper_search();
  sim.every(sim::seconds(1), [&] {
    res.total++;
    planner.run(heavy, [&](const edgeos::ServiceRunReport& r) {
      if (r.ok) {
        res.latency_ms.add(sim::to_millis(r.latency()));
        res.met += r.deadline_met ? 1 : 0;
      }
    });
  });
  sim.every(sim::seconds(2), [&] {
    res.total++;
    planner.run(a3, [&](const edgeos::ServiceRunReport& r) {
      if (r.ok) {
        res.latency_ms.add(sim::to_millis(r.latency()));
        res.met += r.deadline_met ? 1 : 0;
      }
    });
  });
  sim.run_until(sim::minutes(2));
  res.energy_j = cav.board().energy_joules();
  return res;
}

void print_table() {
  util::TextTable table(
      "A1: computing-architecture comparison (TF vehicle detection + A3 "
      "search under ADAS load, 2-min window)");
  table.set_header({"Condition", "Architecture", "mean ms", "p95 ms",
                    "deadline met", "vehicle J"});
  struct Arch {
    const char* name;
    std::vector<net::Tier> tiers;
  };
  const Arch archs[] = {
      {"cloud-only", {net::Tier::kCloud}},
      {"in-vehicle-only", {net::Tier::kOnBoard}},
      {"edge (dynamic)",
       {net::Tier::kOnBoard, net::Tier::kRsuEdge,
        net::Tier::kBaseStationEdge, net::Tier::kCloud}},
  };
  struct Cond {
    const char* name;
    double mph;
    bool rsu;
  };
  const Cond conds[] = {{"parked", 0.0, true},
                        {"35 MPH", 35.0, true},
                        {"70 MPH (no RSU)", 70.0, false}};
  for (const Cond& c : conds) {
    for (const Arch& a : archs) {
      Result r = run_architecture(a.tiers, c.mph, c.rsu);
      double met_frac =
          r.total > 0 ? static_cast<double>(r.met) / r.total : 0.0;
      table.add_row({c.name, a.name, util::TextTable::num(r.latency_ms.mean(), 1),
                     util::TextTable::num(r.latency_ms.p95(), 1),
                     util::TextTable::num(100.0 * met_frac, 1) + "%",
                     util::TextTable::num(r.energy_j, 0)});
    }
  }
  bench::BenchOutput::record(table);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "Expected shape: cloud-only degrades sharply with speed; in-vehicle "
      "holds latency\nbut uses the most vehicle energy; dynamic edge "
      "offloading stays near the best column-wise.\n\n");
}

}  // namespace

int main() {
  vdap::bench::BenchOutput bench_out("offload");
  print_table();
  return 0;
}
