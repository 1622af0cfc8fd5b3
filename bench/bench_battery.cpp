// A12 — the §III-B electric-vehicle energy constraint, closed-loop: a
// BatteryModel meters the VCU's draw against a compute budget and an
// EnergyGovernor flips the elastic manager to the minimum-energy goal when
// the budget runs low ("achieve other goals, such as energy efficiency",
// §IV-C).
//
// Ten minutes of TF vehicle-detection requests (4/s). Expected shape: the governed
// run ends with meaningfully more charge left, paying a bounded latency
// premium after the switch; the ungoverned run burns the budget flat-out.
#include "bench_output.hpp"

#include <cstdio>

#include "core/battery.hpp"
#include "core/platform.hpp"
#include "util/stats.hpp"
#include "workload/apps.hpp"

namespace {

using namespace vdap;

struct Result {
  util::Summary latency_ms;
  int ok = 0;
  double consumed_j = 0.0;
  double final_soc = 1.0;
  int switches = 0;
  sim::SimTime switched_at = -1;
};

Result run(bool governed) {
  sim::Simulator sim(11);
  core::OpenVdap cav(sim);
  core::BatteryModel battery(sim, cav.board(),
                             {10'000.0, sim::seconds(1)});
  battery.start();
  core::EnergyGovernor governor(sim, battery, cav.elastic(),
                                {0.4, 0.6, sim::seconds(5)});
  Result res;
  if (governed) {
    governor.start();
    governor.on_switch([&](bool saving) {
      if (saving && res.switched_at < 0) res.switched_at = sim.now();
    });
  }

  auto svc = edgeos::make_polymorphic(workload::apps::vehicle_detection_tf(),
                                      net::Tier::kRsuEdge);
  svc.dag.set_qos({0, 3, 0});
  sim.every(sim::msec(250), [&] {
    cav.elastic().run(svc, [&](const edgeos::ServiceRunReport& r) {
      if (r.ok) {
        ++res.ok;
        res.latency_ms.add(sim::to_millis(r.latency()));
      }
    });
  });
  sim.run_until(sim::minutes(10));
  res.consumed_j = battery.consumed_j();
  res.final_soc = battery.soc();
  res.switches = governor.mode_switches();
  return res;
}

void print_table() {
  util::TextTable table(
      "A12: battery-aware offloading — TF detection 4/s for 10 min, 10 kJ "
      "compute budget");
  table.set_header({"Policy", "ok", "mean ms", "consumed J", "final SoC",
                    "switched at"});
  for (bool governed : {false, true}) {
    Result r = run(governed);
    table.add_row(
        {governed ? "energy governor" : "always min-latency",
         std::to_string(r.ok), util::TextTable::num(r.latency_ms.mean(), 1),
         util::TextTable::num(r.consumed_j, 0),
         util::TextTable::num(100.0 * r.final_soc, 1) + "%",
         r.switched_at >= 0
             ? util::TextTable::num(sim::to_seconds(r.switched_at), 0) + " s"
             : "-"});
  }
  bench::BenchOutput::record(table);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "Expected shape: the governor trades some latency after the switch "
      "for a flatter\ndischarge curve — more compute budget left at the end "
      "of the drive.\n\n");
}

}  // namespace

int main() {
  vdap::bench::BenchOutput bench_out("battery");
  print_table();
  return 0;
}
