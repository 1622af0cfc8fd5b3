// T1 — Table I reproduction: "THE PERFORMANCE OF AUTONOMOUS DRIVING-RELATED
// ALGORITHMS" on an AWS EC2 node with a 2.4 GHz vCPU.
//
// Paper values: Lane Detection 13.57 ms, Vehicle Detection (Haar) 269.46 ms,
// Vehicle Detection (TensorFlow) 13 971.98 ms; Haar ≈ 51x faster than TF.
#include "bench_output.hpp"

#include <cstdio>

#include "hw/catalog.hpp"
#include "util/stats.hpp"
#include "workload/apps.hpp"

namespace {

using namespace vdap;

/// End-to-end latency of one release of `dag` on a dedicated EC2 vCPU,
/// through the event-driven device model (not just the analytic formula).
double run_on_ec2_ms(const workload::AppDag& dag) {
  sim::Simulator sim;
  hw::ComputeDevice ec2(sim, hw::catalog::ec2_vcpu());
  sim::SimTime finished = 0;
  // Chain the DAG's tasks sequentially (Table I algorithms are single-task).
  for (int id : dag.topo_order()) {
    const workload::TaskSpec& t = dag.task(id);
    ec2.submit({t.cls, t.gflop, 0, [&](const hw::WorkReport& r) {
                  finished = r.finished;
                }});
  }
  sim.run_until();
  return sim::to_millis(finished);
}

void print_table() {
  util::TextTable table(
      "Table I: autonomous-driving algorithm latency (EC2 2.4 GHz vCPU)");
  table.set_header({"Algorithm", "paper (ms)", "measured (ms)"});
  struct Row {
    const char* name;
    workload::AppDag dag;
    double paper_ms;
  };
  Row rows[] = {
      {"Lane Detection", workload::apps::lane_detection(), 13.57},
      {"Vehicle Detection (Haar)", workload::apps::vehicle_detection_haar(),
       269.46},
      {"Vehicle Detection (TensorFlow)",
       workload::apps::vehicle_detection_tf(), 13971.98},
  };
  double haar_ms = 0, tf_ms = 0;
  for (Row& r : rows) {
    double ms = run_on_ec2_ms(r.dag);
    if (std::string(r.name).find("Haar") != std::string::npos) haar_ms = ms;
    if (std::string(r.name).find("Tensor") != std::string::npos) tf_ms = ms;
    table.add_row({r.name, util::TextTable::num(r.paper_ms, 2),
                   util::TextTable::num(ms, 2)});
  }
  bench::BenchOutput::record(table);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "Haar vs TensorFlow speedup: paper ~51x, measured %.1fx\n\n",
      tf_ms / haar_ms);
}

}  // namespace

int main() {
  vdap::bench::BenchOutput bench_out("table1");
  print_table();
  return 0;
}
