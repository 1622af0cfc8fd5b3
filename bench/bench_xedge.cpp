// A9 — XEdge scalability: the paper's XEdge (an RSU box) is shared
// infrastructure, not per-vehicle hardware. As more CAVs in range offload
// to the same RSU, its queues grow and the dynamic planner must start
// spilling to the base station / cloud or staying on board.
//
// N vehicles (each with the contended on-board perception load of A1)
// release the heavyweight TF detector once per second for 60 s, all
// sharing ONE RSU server. Expected shape: per-request latency rises with
// fleet size; the dynamic planner's pipeline mix shifts away from the RSU
// as it saturates, keeping the deadline-met rate roughly flat — while a
// forced everyone-to-the-RSU policy degrades.
#include "bench_output.hpp"

#include <cstdio>
#include <map>
#include <memory>

#include "core/platform.hpp"
#include "util/stats.hpp"
#include "workload/apps.hpp"

namespace {

using namespace vdap;

struct Result {
  util::Histogram latency_ms;
  int met = 0;
  int total = 0;
  std::map<std::string, int> pipelines;  // dynamic mode only
  double rsu_utilization = 0.0;
};

Result run_fleet(int n_vehicles, bool force_rsu) {
  sim::Simulator sim(42);
  // One shared RSU box for the whole fleet.
  hw::ComputeDevice rsu(sim, hw::catalog::rsu_edge_server());

  std::vector<std::unique_ptr<core::OpenVdap>> fleet;
  for (int v = 0; v < n_vehicles; ++v) {
    core::PlatformConfig cfg;
    cfg.vehicle_name = "cav-" + std::to_string(v);
    cfg.vehicle_secret = 100 + static_cast<std::uint64_t>(v);
    cfg.shared_rsu = &rsu;
    fleet.push_back(std::make_unique<core::OpenVdap>(sim, cfg));
  }

  Result res;
  auto heavy = workload::apps::vehicle_detection_tf();
  auto pedestrian = workload::apps::pedestrian_detection();
  int vi = 0;
  for (auto& cav : fleet) {
    core::OpenVdap* p = cav.get();
    ++vi;
    // Contended on-board perception (same as A1) so offloading matters.
    auto detector = workload::apps::vehicle_detection_tf();
    sim.every(sim::msec(20), [p, pedestrian] { p->dsf().submit(pedestrian); });
    sim.every(sim::msec(150), [p, detector] { p->dsf().submit(detector); });
    std::vector<net::Tier> tiers =
        force_rsu ? std::vector<net::Tier>{net::Tier::kRsuEdge}
                  : std::vector<net::Tier>{
                        net::Tier::kOnBoard, net::Tier::kRsuEdge,
                        net::Tier::kBaseStationEdge, net::Tier::kCloud};
    auto planner = std::make_shared<core::OffloadPlanner>(p->elastic(), tiers);
    // Staggered release phases: real fleets are not clock-aligned, and the
    // stagger lets later deciders observe the RSU backlog.
    sim.every(sim::seconds(1), [&res, planner, heavy] {
      res.total++;
      planner->run(heavy, [&res](const edgeos::ServiceRunReport& r) {
        if (r.ok) {
          res.latency_ms.add(sim::to_millis(r.latency()));
          res.met += r.deadline_met ? 1 : 0;
          res.pipelines[r.pipeline]++;
        }
      });
    }, sim::msec(37) * vi);
  }
  sim.run_until(sim::minutes(1));
  res.rsu_utilization = rsu.average_utilization();
  return res;
}

void print_table() {
  util::TextTable table(
      "A9: shared-XEdge scaling — N vehicles, one RSU box, TF detection "
      "1/s each (60 s)");
  table.set_header({"fleet", "policy", "mean ms", "p95 ms", "deadline met",
                    "RSU util", "pipeline mix"});
  for (int n : {1, 2, 4, 8, 16, 32}) {
    for (bool force : {true, false}) {
      Result r = run_fleet(n, force);
      std::string mix;
      for (const auto& [pipeline, count] : r.pipelines) {
        mix += pipeline + " x" + std::to_string(count) + " ";
      }
      double met =
          r.total > 0 ? 100.0 * static_cast<double>(r.met) / r.total : 0.0;
      table.add_row({std::to_string(n),
                     force ? "all-to-RSU" : "dynamic",
                     util::TextTable::num(r.latency_ms.mean(), 1),
                     util::TextTable::num(r.latency_ms.p95(), 1),
                     util::TextTable::num(met, 1) + "%",
                     util::TextTable::num(100.0 * r.rsu_utilization, 1) + "%",
                     force ? "-" : mix});
    }
  }
  bench::BenchOutput::record(table);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "Expected shape: all-to-RSU latency grows with fleet size as the box "
      "saturates;\nthe dynamic planner sheds load to other tiers and keeps "
      "deadline-met roughly flat.\n\n");
}

}  // namespace

int main() {
  vdap::bench::BenchOutput bench_out("xedge");
  print_table();
  return 0;
}
