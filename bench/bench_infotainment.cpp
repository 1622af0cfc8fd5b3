// A11 — infotainment quality-of-experience vs mobility (§II-C): streaming
// "not only require[s] compute resources but also present[s] a high
// requirement on the network bandwidth." A 2-minute 6 Mbps session over
// the cellular downlink while driving at the paper's three speeds, with a
// buffer-depth ablation.
//
// Expected shape: clean playback when parked; growing rebuffer ratio with
// speed (the downlink twin of Fig. 2's uplink story); deeper client
// buffers trade startup delay for stall resistance.
#include "bench_output.hpp"

#include <cstdio>

#include "core/infotainment.hpp"
#include "core/scenario.hpp"
#include "hw/catalog.hpp"
#include "util/stats.hpp"

namespace {

using namespace vdap;

core::InfotainmentReport run_session(double mph, int buffer_chunks,
                                     std::uint64_t chunk_bytes,
                                     int startup_chunks = 1) {
  sim::Simulator sim(9);
  hw::ComputeDevice cpu(sim, hw::catalog::core_i7_6700());
  hw::ComputeDevice gpu(sim, hw::catalog::jetson_tx2_maxp());
  vcu::ResourceRegistry reg;
  reg.join(&cpu);
  reg.join(&gpu);
  vcu::Dsf dsf(sim, reg, std::make_unique<vcu::GreedyEftScheduler>());
  net::Topology topo(sim);
  core::CellularConditionModel model;
  topo.apply_cellular_condition(model.bandwidth_factor(mph),
                                model.loss_rate(mph));

  core::InfotainmentOptions opts;
  opts.buffer_target_chunks = buffer_chunks;
  opts.chunk_bytes = chunk_bytes;
  opts.startup_chunks = startup_chunks;
  core::InfotainmentSession session(sim, topo, dsf, opts);
  core::InfotainmentReport rep;
  session.start(60, [&](const core::InfotainmentReport& r) { rep = r; });
  sim.run_until(sim::minutes(30));
  return rep;
}

void print_table() {
  util::TextTable table(
      "A11: infotainment streaming QoE vs speed (60 chunks of 2 s each)");
  table.set_header({"Speed", "stream", "played", "failed", "stalls",
                    "stall s", "rebuffer", "startup ms"});
  struct Stream {
    const char* name;
    std::uint64_t chunk_bytes;
  };
  const Stream streams[] = {{"HD 6 Mbps", 1'500'000},
                            {"4K 15 Mbps", 3'750'000}};
  for (double mph : {0.0, 35.0, 70.0}) {
    for (const Stream& stream : streams) {
      core::InfotainmentReport r = run_session(mph, 3, stream.chunk_bytes);
      table.add_row(
          {util::TextTable::num(mph, 0) + " MPH", stream.name,
           std::to_string(r.chunks_played), std::to_string(r.chunks_failed),
           std::to_string(r.stalls),
           util::TextTable::num(sim::to_seconds(r.stall_time), 1),
           util::TextTable::num(100.0 * r.rebuffer_ratio(), 1) + "%",
           util::TextTable::num(sim::to_millis(r.startup_delay), 0)});
    }
  }
  bench::BenchOutput::record(table);
  std::printf("%s", table.to_string().c_str());

  // Prefetch-depth ablation in the worst cell (4K at 70 MPH): prefetching
  // more before starting delays playback but cannot rescue a *sustained*
  // bandwidth deficit — the stall count barely moves. The real fixes are
  // bitrate adaptation or better coverage, not buffering.
  util::TextTable ablate(
      "A11b: prefetch depth ablation (4K at 70 MPH; startup = prefetch)");
  ablate.set_header({"prefetch chunks", "stalls", "stall s", "startup ms"});
  for (int buffer : {1, 3, 6, 10}) {
    core::InfotainmentReport r =
        run_session(70.0, buffer, 3'750'000, buffer);
    ablate.add_row({std::to_string(buffer), std::to_string(r.stalls),
                    util::TextTable::num(sim::to_seconds(r.stall_time), 1),
                    util::TextTable::num(sim::to_millis(r.startup_delay), 0)});
  }
  bench::BenchOutput::record(ablate);
  std::printf("%s", ablate.to_string().c_str());
  std::printf(
      "Expected shape: clean at parked; rebuffering grows with speed and "
      "bitrate (downlink\ntwin of Fig. 2); prefetch trades startup delay "
      "for stall count, but a sustained\ndeficit (4K at 70 MPH) cannot be "
      "buffered away.\n\n");
}

}  // namespace

int main() {
  vdap::bench::BenchOutput bench_out("infotainment");
  print_table();
  return 0;
}
