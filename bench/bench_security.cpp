// A7 — Security module (§IV-C): what isolation costs and what the
// monitor's remove-and-reinstall loop buys.
//
//   (a) isolation overhead: the same service under none / container / TEE;
//   (b) reliability: compromises injected into a container service at
//       random times; measured detection + recovery latency and service
//       availability over a 10-minute window.
#include "bench_output.hpp"

#include <cstdio>

#include "core/platform.hpp"
#include "util/stats.hpp"
#include "workload/apps.hpp"

namespace {

using namespace vdap;

double measure_latency_ms(edgeos::IsolationMode mode) {
  sim::Simulator sim(3);
  core::OpenVdap cav(sim);
  auto svc = edgeos::make_polymorphic(workload::apps::inception_v3(),
                                      net::Tier::kRsuEdge);
  svc.pipelines = {svc.pipelines[0]};  // pure on-board compute
  svc.dag.set_qos({0, 3, 0});
  cav.os().install_service(svc, mode);
  double ms = 0.0;
  cav.run_service("inception-v3", [&](const edgeos::ServiceRunReport& r) {
    ms = sim::to_millis(r.latency());
  });
  sim.run_until(sim.now() + sim::seconds(30));
  return ms;
}

void print_overhead_table() {
  util::TextTable table(
      "A7a: isolation overhead (Inception v3 on-board, per mode)");
  table.set_header({"Isolation", "latency ms", "overhead"});
  double base = measure_latency_ms(edgeos::IsolationMode::kNone);
  for (auto mode : {edgeos::IsolationMode::kNone,
                    edgeos::IsolationMode::kContainer,
                    edgeos::IsolationMode::kTee}) {
    double ms = measure_latency_ms(mode);
    table.add_row({std::string(edgeos::to_string(mode)),
                   util::TextTable::num(ms, 1),
                   util::TextTable::num(100.0 * (ms / base - 1.0), 1) + "%"});
  }
  bench::BenchOutput::record(table);
  std::printf("%s\n", table.to_string().c_str());
}

void print_reliability_table() {
  sim::Simulator sim(17);
  edgeos::SecurityOptions opts;
  opts.monitor_interval = sim::msec(500);
  opts.reinstall_duration = sim::seconds(3);
  edgeos::SecurityModule sec(sim, opts);
  sec.install("third-party", edgeos::IsolationMode::kContainer);
  sec.install("critical-adas", edgeos::IsolationMode::kTee);
  sec.start_monitor();

  util::Histogram recovery_s;
  sim::SimTime compromised_at = 0;
  sec.on_reinstall([&](const std::string&) {
    recovery_s.add(sim::to_seconds(sim.now() - compromised_at));
  });

  // Inject an internal attack on both services every ~60 s.
  int attacks = 0;
  int tee_resisted = 0;
  sim.every(sim::seconds(61), [&] {
    ++attacks;
    compromised_at = sim.now();
    sec.compromise("third-party");
    if (!sec.compromise("critical-adas")) ++tee_resisted;
  });

  // Sample availability (service Running) once per second.
  int samples = 0, available = 0;
  sim.every(sim::seconds(1), [&] {
    ++samples;
    available +=
        sec.state("third-party") == edgeos::ServiceState::kRunning ? 1 : 0;
  });
  sim.run_until(sim::minutes(10));

  util::TextTable table("A7b: compromise -> detect -> reinstall (10-min window)");
  table.set_header({"metric", "value"});
  table.add_row({"attacks injected", std::to_string(attacks)});
  table.add_row({"TEE attacks resisted",
                 std::to_string(tee_resisted) + "/" + std::to_string(attacks)});
  table.add_row({"compromises detected",
                 std::to_string(sec.compromises_detected())});
  table.add_row({"reinstalls completed", std::to_string(sec.reinstalls())});
  table.add_row({"mean recovery (s)",
                 util::TextTable::num(recovery_s.mean(), 2)});
  table.add_row({"max recovery (s)",
                 util::TextTable::num(recovery_s.max(), 2)});
  table.add_row({"container availability",
                 util::TextTable::num(100.0 * available / samples, 2) + "%"});
  bench::BenchOutput::record(table);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "Expected shape: recovery bounded by scan interval + reinstall time "
      "(<= 3.5 s);\nTEE services resist every injected internal attack.\n\n");
}

}  // namespace

int main() {
  vdap::bench::BenchOutput bench_out("security");
  print_overhead_table();
  print_reliability_table();
  return 0;
}
