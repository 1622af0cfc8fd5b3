// A3 — Elastic Management (§IV-C): the A3/kidnapper-search polymorphic
// service through a 20-minute commute (city → highway → city, RSU coverage
// coming and going, cellular quality tracking speed). Compares the three
// static pipelines the paper names against the elastic selection.
//
// Expected shape: each static pipeline wins somewhere and loses somewhere
// (onboard wastes the idle edge; remote dies on the highway); elastic
// tracks the per-segment winner and never strands a release.
#include "bench_output.hpp"

#include <cstdio>
#include <map>

#include "core/platform.hpp"
#include "util/stats.hpp"
#include "workload/apps.hpp"

namespace {

using namespace vdap;

struct Result {
  util::Histogram latency_ms;
  int ok = 0;
  int failed = 0;
  int misses = 0;
  int released = 0;
  std::map<std::string, int> pipeline_use;
};

/// mode: 0 = elastic (all pipelines), 1 = onboard only, 2 = remote-cloud
/// only, 3 = split-rsu only.
Result run_mode(int mode) {
  sim::Simulator sim(2024);
  core::OpenVdap cav(sim);
  core::DriveScenario scenario(sim, cav.topology(),
                               core::DriveScenario::commute(),
                               &cav.elastic());
  scenario.start();

  // Background perception load pinned on-board (the §I contention story),
  // so where the A3 service runs actually matters.
  auto pedestrian = workload::apps::pedestrian_detection();
  auto detector = workload::apps::vehicle_detection_tf();
  sim.every(sim::msec(20), [&] { cav.dsf().submit(pedestrian); });
  sim.every(sim::msec(150), [&] { cav.dsf().submit(detector); });

  auto svc = edgeos::make_polymorphic_multi(
      workload::apps::a3_kidnapper_search(),
      {net::Tier::kRsuEdge, net::Tier::kCloud});
  if (mode == 1) svc.pipelines = {svc.pipelines[0]};
  if (mode == 2) svc.pipelines = {svc.pipelines[3]};  // remote-cloud
  if (mode == 3) svc.pipelines = {svc.pipelines[2]};  // split-rsu

  Result res;
  sim.every(sim::seconds(2), [&] {
    res.released++;
    cav.elastic().run(svc, [&](const edgeos::ServiceRunReport& r) {
      if (r.ok) {
        res.ok++;
        res.latency_ms.add(sim::to_millis(r.latency()));
        if (!r.deadline_met) res.misses++;
        res.pipeline_use[r.pipeline]++;
      } else {
        res.failed++;
      }
    });
  });
  double total = scenario.total_duration_s();
  sim.run_until(sim::from_seconds(total));
  return res;
}

void print_table() {
  util::TextTable table(
      "A3: polymorphic pipelines vs elastic selection (A3 search, 20-min "
      "commute, release every 2 s)");
  table.set_header({"Mode", "ok", "failed", "mean ms", "p95 ms",
                    "deadline misses"});
  const char* names[] = {"elastic", "static onboard", "static remote-cloud",
                         "static split-rsu"};
  Result elastic_result;
  for (int mode = 0; mode < 4; ++mode) {
    Result r = run_mode(mode);
    if (mode == 0) elastic_result = r;
    table.add_row({names[mode], std::to_string(r.ok),
                   std::to_string(r.failed),
                   util::TextTable::num(r.latency_ms.mean(), 1),
                   util::TextTable::num(r.latency_ms.p95(), 1),
                   std::to_string(r.misses)});
  }
  bench::BenchOutput::record(table);
  std::printf("%s", table.to_string().c_str());
  std::printf("Elastic pipeline usage across the commute:\n");
  for (const auto& [pipeline, n] : elastic_result.pipeline_use) {
    std::printf("  %-22s %d runs\n", pipeline.c_str(), n);
  }
  std::printf(
      "Expected shape: elastic matches the best static mode per segment "
      "(uses >1 pipeline)\nand has the fewest failures/misses overall.\n\n");
}

}  // namespace

int main() {
  vdap::bench::BenchOutput bench_out("elastic");
  print_table();
  return 0;
}
