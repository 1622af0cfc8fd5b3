// A4 — DDI's two-level database (§IV-D): ten minutes of collector ingest,
// then a skewed read workload (services repeatedly asking for recent
// windows). Compares the paper's memcache+disk design against disk-only
// (cache capacity zero) on response latency and hit rate.
//
// Expected shape: the two-level design answers the hot queries at memory
// latency ("in-memory database caches the frequently used data ... to
// decrease the response latency of request").
#include "bench_output.hpp"

#include <cstdio>
#include <filesystem>

#include "ddi/ddi.hpp"
#include "util/stats.hpp"

namespace {

using namespace vdap;
namespace fs = std::filesystem;

struct Result {
  util::Histogram latency_us;
  double hit_rate = 0.0;
  std::uint64_t disk_records = 0;
};

Result run_config(bool with_cache) {
  sim::Simulator sim(31);
  std::string dir =
      (fs::temp_directory_path() /
       (std::string("vdap-bench-ddi-") + (with_cache ? "cache" : "nocache")))
          .string();
  fs::remove_all(dir);
  ddi::DdiOptions opts;
  opts.disk.dir = dir;
  if (!with_cache) opts.mem.capacity_bytes = 0;  // disk-only ablation
  ddi::Ddi ddi(sim, opts);

  // Collectors feed for 10 simulated minutes.
  ddi::ObdCollector obd(sim, [&](ddi::DataRecord r) { ddi.upload(std::move(r)); });
  ddi::WeatherFeed wx(sim, [&](ddi::DataRecord r) { ddi.upload(std::move(r)); });
  ddi::TrafficFeed tf(sim, [&](ddi::DataRecord r) { ddi.upload(std::move(r)); });
  obd.start();
  wx.start();
  tf.start();

  Result res;
  // Skewed read workload: every second, three services ask for the same
  // "last 30 s of OBD" window (rounded to 10 s buckets so queries repeat),
  // plus one cold historical query per 10 s.
  sim.every(sim::seconds(1), [&] {
    sim::SimTime bucket = (sim.now() / sim::seconds(10)) * sim::seconds(10);
    ddi::DownloadRequest hot{"vehicle/obd",
                             bucket - sim::seconds(30), bucket};
    for (int i = 0; i < 3; ++i) {
      auto resp = ddi.download_now(hot);
      res.latency_us.add(static_cast<double>(resp.latency));
    }
  });
  sim.every(sim::seconds(10), [&] {
    ddi::DownloadRequest cold{"vehicle/obd", 0, sim.now() / 2};
    auto resp = ddi.download_now(cold);
    res.latency_us.add(static_cast<double>(resp.latency));
  });
  sim.run_until(sim::minutes(10));
  res.hit_rate = ddi.cache().hit_rate();
  res.disk_records = ddi.disk().record_count();
  fs::remove_all(dir);
  return res;
}

void print_table() {
  util::TextTable table(
      "A4: DDI storage — two-level (memcache+disk) vs disk-only "
      "(10-min ingest + skewed reads)");
  table.set_header({"Config", "mean us", "p95 us", "cache hit rate",
                    "records on disk"});
  for (bool cache : {true, false}) {
    Result r = run_config(cache);
    table.add_row({cache ? "memcache + disk (paper)" : "disk-only",
                   util::TextTable::num(r.latency_us.mean(), 1),
                   util::TextTable::num(r.latency_us.p95(), 1),
                   util::TextTable::num(100.0 * r.hit_rate, 1) + "%",
                   std::to_string(r.disk_records)});
  }
  bench::BenchOutput::record(table);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "Expected shape: the cached config answers hot queries roughly an order of magnitude faster "
      "on average.\n\n");
}

}  // namespace

int main() {
  vdap::bench::BenchOutput bench_out("ddi");
  print_table();
  return 0;
}
