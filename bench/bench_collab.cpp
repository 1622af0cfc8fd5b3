// A6 — V2V collaboration (§III-C): a 5-vehicle platoon scanning plates on
// the same road for an AMBER alert. Each vehicle observes 100 plates; the
// observation sets overlap (vehicles follow each other). Compares isolated
// operation (everyone recognizes everything) against collaborative result
// sharing over DSRC.
//
// Expected shape: collaboration removes the overlapping recognitions
// ("avoiding executing unnecessary repeating operations"), cutting CNN
// GFLOP per vehicle roughly by the overlap fraction for followers, at the
// cost of millisecond-scale DSRC lookups.
#include "bench_output.hpp"

#include <cstdio>

#include "core/collaboration.hpp"
#include "hw/catalog.hpp"
#include "util/stats.hpp"
#include "workload/apps.hpp"

namespace {

using namespace vdap;

struct Result {
  int computed = 0;        // recognitions actually run
  int reused = 0;          // results fetched from a neighbor
  double gflop_spent = 0.0;
  util::Histogram lookup_ms;
};

constexpr int kVehicles = 5;
constexpr int kPlatesPerVehicle = 100;
constexpr double kOverlap = 0.7;  // fraction shared with the predecessor

/// The recognition cost skipped when a result is reused: the plate
/// pipeline's detection + OCR stages.
double recognition_gflop() {
  auto dag = workload::apps::license_plate_pipeline();
  return dag.task(1).gflop + dag.task(2).gflop;
}

Result run(bool collaborative) {
  sim::Simulator sim(555);
  std::vector<std::unique_ptr<core::CollaborationCache>> caches;
  for (int v = 0; v < kVehicles; ++v) {
    caches.push_back(std::make_unique<core::CollaborationCache>(
        sim, "cav-" + std::to_string(v),
        "veh-" + std::to_string(1000 + v)));
  }
  if (collaborative) {
    for (int v = 0; v + 1 < kVehicles; ++v) {
      core::CollaborationCache::connect(*caches[v], *caches[v + 1]);
    }
  }

  // Plate id stream: vehicle v sees plates [v*30, v*30 + 100) — ~70%
  // overlap with its neighbor.
  Result res;
  double gflop = recognition_gflop();
  for (int v = 0; v < kVehicles; ++v) {
    int base = static_cast<int>(v * kPlatesPerVehicle * (1.0 - kOverlap));
    for (int i = 0; i < kPlatesPerVehicle; ++i) {
      std::string key = "plate:" + std::to_string(base + i);
      // Stagger sightings so earlier vehicles publish before followers ask.
      sim.after(sim::msec(v * 200 + i), [&, key, v]() {
        sim::SimTime asked = sim.now();
        caches[static_cast<std::size_t>(v)]->lookup(
            key, [&, key, v, asked](std::optional<core::SharedResult> r) {
              res.lookup_ms.add(sim::to_millis(sim.now() - asked));
              if (r.has_value()) {
                ++res.reused;
              } else {
                ++res.computed;
                res.gflop_spent += gflop;
                caches[static_cast<std::size_t>(v)]->put(
                    key, json::Value("decoded"));
              }
            });
      });
    }
  }
  sim.run_until(sim::minutes(5));
  return res;
}

void print_table() {
  util::TextTable table(
      "A6: V2V collaboration — 5-vehicle platoon, 100 plates each, ~70% "
      "overlap");
  table.set_header({"Mode", "recognitions run", "results reused",
                    "CNN GFLOP spent", "mean lookup ms"});
  for (bool collab : {false, true}) {
    Result r = run(collab);
    table.add_row({collab ? "collaborative (DSRC sharing)" : "isolated",
                   std::to_string(r.computed), std::to_string(r.reused),
                   util::TextTable::num(r.gflop_spent, 0),
                   util::TextTable::num(r.lookup_ms.mean(), 2)});
  }
  bench::BenchOutput::record(table);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "Expected shape: collaboration cuts recognitions roughly by the "
      "overlap fraction,\npaying only millisecond-scale DSRC lookups.\n\n");
}

}  // namespace

int main() {
  vdap::bench::BenchOutput bench_out("collab");
  print_table();
  return 0;
}
