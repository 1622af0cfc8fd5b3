// F3 — Figure 3 reproduction: "Performance of running Inception v3 on
// various processors" — processing time (bars) and max power consumption
// (line) for the DSP-based Intel Movidius NCS, Jetson TX2 Max-Q (GPU#1),
// Jetson TX2 Max-P (GPU#2), Core i7-6700 (CPU) and Tesla V100 (GPU#3).
//
// Paper: 334.5 / 242.8 / 114.3 / 153.9 / 26.8 ms at ~1 / 7.5 / 15 / 60 /
// 250 W. "GPU#3 outperforms other kinds of processors in processing speed,
// while its corresponding max power consumption is considerably bigger."
#include "bench_output.hpp"

#include <cstdio>

#include "hw/catalog.hpp"
#include "util/stats.hpp"

namespace {

using namespace vdap;

struct Entry {
  const char* label;
  hw::ProcessorSpec spec;
  double paper_ms;
  double paper_power_w;
};

std::vector<Entry> entries() {
  return {
      {"DSP-based (Intel MNCS)", hw::catalog::intel_mncs(), 334.5, 1.0},
      {"GPU#1 (TX2 Max-Q)", hw::catalog::jetson_tx2_maxq(), 242.8, 7.5},
      {"GPU#2 (TX2 Max-P)", hw::catalog::jetson_tx2_maxp(), 114.3, 15.0},
      {"CPU (i7-6700)", hw::catalog::core_i7_6700(), 153.9, 60.0},
      {"GPU#3 (Tesla V100)", hw::catalog::tesla_v100(), 26.8, 250.0},
  };
}

/// Runs one Inception v3 inference on the device under the event clock and
/// returns {latency ms, energy J}.
std::pair<double, double> run_inception(const hw::ProcessorSpec& spec) {
  sim::Simulator sim;
  hw::ComputeDevice dev(sim, spec);
  double ms = 0.0;
  double energy = 0.0;
  dev.submit({hw::TaskClass::kCnnInference, hw::kInceptionV3Gflop, 0,
              [&](const hw::WorkReport& r) {
                ms = sim::to_millis(r.latency());
                energy = r.dynamic_energy_j;
              }});
  sim.run_until();
  return {ms, energy};
}

void print_table() {
  util::TextTable table(
      "Figure 3: Inception v3 processing time & max power per processor");
  table.set_header({"Processor", "paper (ms)", "measured (ms)",
                    "paper max W", "model max W", "energy/inf (J)"});
  for (const Entry& e : entries()) {
    auto [ms, energy] = run_inception(e.spec);
    table.add_row({e.label, util::TextTable::num(e.paper_ms, 1),
                   util::TextTable::num(ms, 1),
                   util::TextTable::num(e.paper_power_w, 1),
                   util::TextTable::num(e.spec.max_power_w, 1),
                   util::TextTable::num(energy, 2)});
  }
  bench::BenchOutput::record(table);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "Shape: V100 is fastest and most power-hungry; the embedded parts\n"
      "trade 4-12x the latency for 16-250x less power — the section III-B "
      "energy dilemma.\n\n");
}

}  // namespace

int main() {
  vdap::bench::BenchOutput bench_out("fig3");
  print_table();
  return 0;
}
