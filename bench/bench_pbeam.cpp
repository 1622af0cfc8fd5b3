// A5 — pBEAM and Deep Compression (§IV-E, Fig. 9): size / accuracy /
// edge-latency trade-off of compressing cBEAM, and the value of
// personalization (transfer learning on the driver's DDI data).
//
// Expected shape: compression buys an order of magnitude in footprint for
// a small accuracy dip (making the model edge-deployable), and
// personalization recovers accuracy on idiosyncratic drivers that the
// fleet model misreads.
#include "bench_output.hpp"

#include <cstdio>

#include "hw/catalog.hpp"
#include "libvdap/models.hpp"
#include "libvdap/pbeam.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace {

using namespace vdap;
using namespace vdap::libvdap;

void print_compression_sweep() {
  util::RngStream rng(2025);
  Dataset fleet = synth_fleet_dataset(300, rng);
  util::RngStream eval_rng(77);
  Dataset test = synth_fleet_dataset(150, eval_rng);

  util::TextTable table(
      "A5a: Deep-Compression sweep on cBEAM (fleet accuracy vs footprint; "
      "retrain = fine-tune after pruning, zeros preserved)");
  table.set_header({"sparsity", "bits", "size", "ratio", "fleet acc",
                    "acc after retrain"});
  struct Point {
    double sparsity;
    int bits;
  };
  const Point points[] = {{0.0, 0}, {0.3, 8}, {0.6, 5},
                          {0.8, 4}, {0.9, 3}, {0.95, 2}};
  for (const Point& p : points) {
    util::RngStream train_rng(2025);
    Mlp model({DrivingFeatures::kDim, 32, 16, kNumStyles}, train_rng);
    TrainOptions opt;
    opt.epochs = 60;
    model.train(fleet, opt, train_rng);
    CompressionReport rep = deep_compress(model, p.sparsity, p.bits);
    double raw_acc = model.accuracy(test);
    // Deep Compression's recipe retrains the surviving weights ([30]);
    // fine-tune with the pruned structure preserved, then re-quantize.
    TrainOptions retrain;
    retrain.epochs = 20;
    retrain.lr = 0.02;
    retrain.preserve_zeros = true;
    model.train(fleet, retrain, train_rng);
    if (p.bits > 0) quantize(model, p.bits);
    double retrained_acc = model.accuracy(test);
    table.add_row(
        {util::TextTable::num(p.sparsity, 2), std::to_string(p.bits),
         util::human_bytes(rep.compressed_bytes),
         util::TextTable::num(rep.ratio(), 1) + "x",
         util::TextTable::num(100.0 * raw_acc, 1) + "%",
         util::TextTable::num(100.0 * retrained_acc, 1) + "%"});
  }
  bench::BenchOutput::record(table);
  std::printf("%s\n", table.to_string().c_str());
}

void print_personalization() {
  util::TextTable table(
      "A5b: personalization (transfer learning on driver data) per "
      "idiosyncrasy level");
  table.set_header({"driver bias", "fleet-model acc", "pBEAM acc",
                    "gain"});
  for (double bias : {0.0, 1.0, 2.0, 3.0}) {
    util::RngStream rng(2025);
    PBeam pbeam = PBeam::build(synth_fleet_dataset(300, rng), {}, rng);
    util::RngStream driver_rng(900 + static_cast<std::uint64_t>(bias * 10));
    Dataset train =
        synth_driver_dataset(DrivingStyle::kNormal, 150, bias, driver_rng);
    Dataset test =
        synth_driver_dataset(DrivingStyle::kNormal, 150, bias, driver_rng);
    double before = pbeam.accuracy(test);
    pbeam.personalize(train, rng);
    double after = pbeam.accuracy(test);
    table.add_row({util::TextTable::num(bias, 1),
                   util::TextTable::num(100.0 * before, 1) + "%",
                   util::TextTable::num(100.0 * after, 1) + "%",
                   util::TextTable::num(100.0 * (after - before), 1) + "pp"});
  }
  bench::BenchOutput::record(table);
  std::printf("%s\n", table.to_string().c_str());
}

void print_edge_latency() {
  // What compression buys at inference time on edge silicon: the common
  // model library's full vs edge variants on the vehicle GPU.
  util::TextTable table(
      "A5c: common-model library — cloud vs edge variants on the vehicle "
      "GPU (TX2 Max-P)");
  table.set_header({"model", "size", "latency on TX2", "accuracy"});
  auto registry = ModelRegistry::with_default_catalog();
  auto tx2 = hw::catalog::jetson_tx2_maxp();
  for (const char* name :
       {"inception-v3", "inception-v3-edge", "yolo-v2", "yolo-v2-edge"}) {
    auto m = registry.find(name);
    if (!m) continue;
    auto d = tx2.service_time(m->task_class, m->gflop_per_inference);
    table.add_row({m->name, util::human_bytes(m->size_bytes),
                   d ? util::TextTable::num(sim::to_millis(*d), 1) + " ms"
                     : "n/a",
                   util::TextTable::num(100.0 * m->accuracy, 1) + "%"});
  }
  bench::BenchOutput::record(table);
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main() {
  vdap::bench::BenchOutput bench_out("pbeam");
  print_compression_sweep();
  print_personalization();
  print_edge_latency();
  return 0;
}
