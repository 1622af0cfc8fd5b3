// A10 — the §IV-C open problem made concrete: "Zhang et al. [17] and Kang
// et al. [27] have demonstrated that dividing a workload into several
// parts and making them execute on different edge nodes along the path
// from the source to the cloud can get a better response latency ...
// However, how to dynamical divide workload on the edges is still a
// problem."
//
// We enumerate every monotone cut of the license-plate chain across
// vehicle → RSU → cloud and let the elastic manager pick, while sweeping
// the cellular bandwidth factor. Expected shape: with a fat pipe the best
// cut moves work outward; as the pipe degrades the cut retreats toward the
// vehicle; the chosen cut is never worse than the best pure-tier pipeline.
#include "bench_output.hpp"

#include <cstdio>

#include "core/platform.hpp"
#include "util/stats.hpp"
#include "workload/apps.hpp"

namespace {

using namespace vdap;

struct Setup {
  sim::Simulator sim{7};
  std::unique_ptr<core::OpenVdap> cav;
  Setup() {
    cav = std::make_unique<core::OpenVdap>(sim);
    // Busy vehicle: cut placement matters (idle vehicles keep everything).
    auto pedestrian = workload::apps::pedestrian_detection();
    for (int i = 0; i < 25; ++i) cav->dsf().submit(pedestrian);
  }
};

void print_table() {
  util::TextTable table(
      "A10: optimal workload cut across vehicle->RSU->cloud vs cellular "
      "quality (license-plate chain)");
  table.set_header({"cell bw factor", "chosen cut (stage tiers)",
                    "est ms", "best pure tier", "pure est ms"});

  auto dag = workload::apps::license_plate_pipeline();
  dag.set_qos({0, 4, 0});  // compare cuts without the deadline gate
  const std::vector<net::Tier> path = {
      net::Tier::kOnBoard, net::Tier::kRsuEdge, net::Tier::kCloud};

  for (double factor : {1.0, 0.5, 0.2, 0.05, 0.01}) {
    Setup s;
    s.cav->topology().apply_cellular_condition(factor, 0.0);
    // DSRC (RSU hop) is unaffected by the cellular condition; degrade it in
    // lockstep here so the sweep stresses the whole outward path, as if RSU
    // density also thins out at speed.
    if (factor < 0.2) {
      s.cav->topology().set_available(net::Tier::kRsuEdge, factor >= 0.05);
    }

    auto cuts = edgeos::make_path_split_pipelines(dag, path);
    auto pure = core::whole_dag_service(
        dag, {net::Tier::kOnBoard, net::Tier::kRsuEdge, net::Tier::kCloud});

    const edgeos::Pipeline* cut_choice = s.cav->elastic().choose(cuts);
    const edgeos::Pipeline* pure_choice = s.cav->elastic().choose(pure);
    auto cut_est = s.cav->elastic().estimate(cuts);
    auto pure_est = s.cav->elastic().estimate(pure);
    double cut_ms = -1, pure_ms = -1;
    for (std::size_t i = 0; i < cuts.pipelines.size(); ++i) {
      if (cut_choice && cuts.pipelines[i].name == cut_choice->name) {
        cut_ms = sim::to_millis(cut_est[i].latency);
      }
    }
    for (std::size_t i = 0; i < pure.pipelines.size(); ++i) {
      if (pure_choice && pure.pipelines[i].name == pure_choice->name) {
        pure_ms = sim::to_millis(pure_est[i].latency);
      }
    }
    // Render the chosen cut as per-stage tier initials.
    std::string cut_desc = "(none)";
    if (cut_choice != nullptr) {
      cut_desc.clear();
      for (int id : dag.topo_order()) {
        switch (cut_choice->placement[static_cast<std::size_t>(id)]) {
          case net::Tier::kOnBoard: cut_desc += "V "; break;
          case net::Tier::kRsuEdge: cut_desc += "R "; break;
          case net::Tier::kCloud: cut_desc += "C "; break;
          default: cut_desc += "? ";
        }
      }
    }
    table.add_row({util::TextTable::num(factor, 2), cut_desc,
                   cut_ms >= 0 ? util::TextTable::num(cut_ms, 1) : "-",
                   pure_choice ? pure_choice->name : "(none)",
                   pure_ms >= 0 ? util::TextTable::num(pure_ms, 1) : "-"});
  }
  bench::BenchOutput::record(table);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "Stages: motion-detect, plate-detect, plate-recognize. V=vehicle, "
      "R=RSU, C=cloud.\nExpected shape: the cut retreats toward the "
      "vehicle as the network degrades, and the\nbest cut is never worse "
      "than the best pure-tier placement.\n\n");
}

}  // namespace

int main() {
  vdap::bench::BenchOutput bench_out("pathsplit");
  print_table();
  return 0;
}
