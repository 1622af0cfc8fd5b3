// A2 — DSF scheduling policies (§IV-B2) on the reference 1stHEP: the
// legacy CPU-only baseline, load-blind round-robin, DSF's backlog-aware
// greedy earliest-finish-time, and the HEFT-style whole-DAG planner, all
// driven by the full §II service mix for one simulated minute.
//
// Expected shape: CPU-only saturates (the paper's motivation for
// heterogeneous hardware); round-robin wastes the accelerators on
// mismatched work; EFT/HEFT hold deadlines at a fraction of the latency.
#include "bench_output.hpp"

#include <cstdio>

#include "hw/board.hpp"
#include "util/stats.hpp"
#include "vcu/dsf.hpp"
#include "workload/generator.hpp"

namespace {

using namespace vdap;

struct Result {
  util::Histogram latency_ms;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t misses = 0;
  double energy_j = 0.0;
};

std::unique_ptr<vcu::Scheduler> make_scheduler(const std::string& name,
                                               vcu::ResourceRegistry& reg) {
  if (name == "cpu-only") return std::make_unique<vcu::CpuOnlyScheduler>();
  if (name == "round-robin") {
    return std::make_unique<vcu::RoundRobinScheduler>();
  }
  if (name == "greedy-eft") return std::make_unique<vcu::GreedyEftScheduler>();
  return std::make_unique<vcu::HeftScheduler>(
      [&reg](const std::string& svc, hw::TaskClass cls) {
        return reg.candidates(svc, cls);
      });
}

Result run_policy(const std::string& policy, bool with_phone = false) {
  sim::Simulator sim(99);
  hw::VcuBoard board(sim, "vcu");
  hw::populate_reference_1sthep(board);
  vcu::ResourceRegistry reg;
  for (const auto& d : board.devices()) reg.join(d.get());
  // 2ndHEP: a passenger phone joins 20 s in and leaves at 50 s.
  auto phone = std::make_unique<hw::ComputeDevice>(
      sim, hw::catalog::phone_soc());
  if (with_phone) {
    sim.after(sim::seconds(20), [&reg, &phone] { reg.join(phone.get()); });
    sim.after(sim::seconds(50), [&reg] { reg.leave("phone-soc"); });
  }
  vcu::Dsf dsf(sim, reg, make_scheduler(policy, reg));

  Result res;
  workload::WorkloadGenerator gen(sim, [&](const workload::Release& rel) {
    dsf.submit(*rel.dag, [&](const vcu::DagRun& run) {
      if (run.ok) {
        res.latency_ms.add(sim::to_millis(run.latency()));
        if (!run.deadline_met) ++res.misses;
        ++res.completed;
      } else {
        ++res.failed;
      }
    });
  });
  for (auto& s : workload::full_vehicle_mix()) gen.add_stream(std::move(s));
  gen.start();
  sim.run_until(sim::minutes(1));
  res.energy_j = board.energy_joules();
  return res;
}

void print_table() {
  util::TextTable table(
      "A2: DSF scheduling policies, full vehicle mix on the reference "
      "1stHEP (60 s)");
  table.set_header({"Policy", "done", "failed", "mean ms", "p95 ms",
                    "deadline misses", "energy J"});
  for (const char* policy :
       {"cpu-only", "round-robin", "greedy-eft", "heft"}) {
    Result r = run_policy(policy);
    table.add_row({policy, std::to_string(r.completed),
                   std::to_string(r.failed),
                   util::TextTable::num(r.latency_ms.mean(), 1),
                   util::TextTable::num(r.latency_ms.p95(), 1),
                   std::to_string(r.misses),
                   util::TextTable::num(r.energy_j, 0)});
  }
  // 2ndHEP ablation: the same dynamic policy with a passenger phone
  // joining mid-run (plug-and-play resources, §IV-B1).
  Result r2 = run_policy("greedy-eft", /*with_phone=*/true);
  table.add_row({"greedy-eft + 2ndHEP phone", std::to_string(r2.completed),
                 std::to_string(r2.failed),
                 util::TextTable::num(r2.latency_ms.mean(), 1),
                 util::TextTable::num(r2.latency_ms.p95(), 1),
                 std::to_string(r2.misses),
                 util::TextTable::num(r2.energy_j, 0)});
  bench::BenchOutput::record(table);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "Expected shape: cpu-only worst (legacy controller world), dynamic "
      "policies (eft/heft)\nbest on latency and misses by matching task "
      "classes to accelerators.\n\n");
}

}  // namespace

int main() {
  vdap::bench::BenchOutput bench_out("dsf");
  print_table();
  return 0;
}
