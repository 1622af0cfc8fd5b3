// SLO evaluation (telemetry/analysis/slo.hpp) and the closed health loop
// (core/health.hpp): windowed breach/recover semantics in isolation, then
// the ISSUE acceptance scenario — an injected latency fault produces a
// breach event naming the impaired tier and ElasticManager demonstrably
// switches pipeline variant in response.
#include <gtest/gtest.h>

#include <optional>

#include "core/platform.hpp"
#include "telemetry/analysis/slo.hpp"
#include "telemetry/export.hpp"
#include "telemetry/planes.hpp"
#include "workload/dag.hpp"

namespace vdap {
namespace {

namespace analysis = telemetry::analysis;
using analysis::HealthEvent;
using analysis::HealthEventKind;
using analysis::RunObservation;
using analysis::Severity;
using analysis::SloEvaluator;
using analysis::SloTarget;

SloEvaluator::Options tight_options() {
  SloEvaluator::Options opt;
  opt.window = sim::seconds(1);
  opt.min_samples = 3;
  opt.critical_factor = 2.0;
  return opt;
}

RunObservation obs(sim::SimTime finished, sim::SimDuration latency,
                   bool ok = true, std::string segment = "net",
                   std::string tier = "rsu-edge",
                   std::string service = "svc") {
  RunObservation o;
  o.service = std::move(service);
  o.finished = finished;
  o.latency = latency;
  o.ok = ok;
  o.dominant_segment = std::move(segment);
  o.implicated_tier = std::move(tier);
  return o;
}

TEST(SloEvaluator, EmitsOnlyBreachRecoverTransitions) {
  SloEvaluator ev(tight_options());
  ev.add_target({"svc", sim::msec(100), 0.95, /*min_availability=*/-1.0});

  // Window [0, 1 s): three slow runs. Nothing fires until the boundary.
  for (int i = 0; i < 3; ++i) {
    ev.observe(obs(sim::msec(100 * (i + 1)), sim::msec(150)));
  }
  EXPECT_TRUE(ev.events().empty());
  EXPECT_FALSE(ev.breached("svc"));

  // First observation past the boundary judges the closed window.
  ev.observe(obs(sim::msec(1050), sim::msec(50)));
  ASSERT_EQ(ev.events().size(), 1u);
  const HealthEvent& breach = ev.events()[0];
  EXPECT_EQ(breach.kind, HealthEventKind::kLatencyBreach);
  EXPECT_EQ(breach.severity, Severity::kWarning);  // 150 < 2 x 100
  EXPECT_EQ(breach.at, sim::seconds(1));
  EXPECT_EQ(breach.service, "svc");
  EXPECT_DOUBLE_EQ(breach.observed, 150.0);
  EXPECT_DOUBLE_EQ(breach.target, 100.0);
  EXPECT_EQ(breach.attributed_segment, "net");
  EXPECT_EQ(breach.implicated_tier, "rsu-edge");
  EXPECT_TRUE(ev.breached("svc"));

  // Window [1 s, 2 s): fast runs -> a single recover at the next boundary.
  ev.observe(obs(sim::msec(1100), sim::msec(50)));
  ev.observe(obs(sim::msec(1200), sim::msec(50)));
  ev.observe(obs(sim::msec(2050), sim::msec(50)));
  ASSERT_EQ(ev.events().size(), 2u);
  const HealthEvent& recover = ev.events()[1];
  EXPECT_EQ(recover.kind, HealthEventKind::kLatencyRecover);
  EXPECT_EQ(recover.at, sim::seconds(2));
  EXPECT_DOUBLE_EQ(recover.observed, 50.0);
  EXPECT_TRUE(recover.attributed_segment.empty());
  EXPECT_TRUE(recover.implicated_tier.empty());
  EXPECT_FALSE(ev.breached("svc"));
}

TEST(SloEvaluator, CriticalSeverityAndAvailabilityAxis) {
  SloEvaluator ev(tight_options());
  ev.add_target({"svc", sim::msec(100), 0.95, /*min_availability=*/0.5});

  // Three failed, very slow runs; cross the boundary with an untracked
  // service (observe() closes windows before the target lookup).
  for (int i = 0; i < 3; ++i) {
    ev.observe(obs(sim::msec(100 * (i + 1)), sim::msec(250), /*ok=*/false,
                   "failover", "cloud"));
  }
  ev.observe(obs(sim::msec(1100), sim::msec(1), true, "", "", "other"));

  ASSERT_EQ(ev.events().size(), 2u);
  const HealthEvent& lat = ev.events()[0];
  EXPECT_EQ(lat.kind, HealthEventKind::kLatencyBreach);
  EXPECT_EQ(lat.severity, Severity::kCritical);  // 250 >= 2 x 100
  EXPECT_EQ(lat.attributed_segment, "failover");
  EXPECT_EQ(lat.implicated_tier, "cloud");

  const HealthEvent& avail = ev.events()[1];
  EXPECT_EQ(avail.kind, HealthEventKind::kAvailabilityBreach);
  EXPECT_EQ(avail.severity, Severity::kCritical);  // 0.0 <= 0.5 / 2
  EXPECT_DOUBLE_EQ(avail.observed, 0.0);
  EXPECT_DOUBLE_EQ(avail.target, 0.5);
  EXPECT_EQ(avail.implicated_tier, "cloud");
}

TEST(SloEvaluator, SparseWindowsCarryForwardUntilMinSamples) {
  SloEvaluator ev(tight_options());
  ev.add_target({"svc", sim::msec(100), 0.95, -1.0});

  ev.observe(obs(sim::msec(100), sim::msec(150)));
  ev.observe(obs(sim::msec(200), sim::msec(150)));
  // Boundary at 1 s passes with only 2 samples: carried forward, no event.
  ev.observe(obs(sim::msec(1500), sim::msec(150)));
  EXPECT_TRUE(ev.events().empty());
  // Boundary at 2 s sees the accumulated 3 samples and judges them.
  ev.observe(obs(sim::msec(2100), sim::msec(1), true, "", "", "other"));
  ASSERT_EQ(ev.events().size(), 1u);
  EXPECT_EQ(ev.events()[0].kind, HealthEventKind::kLatencyBreach);
  EXPECT_EQ(ev.events()[0].at, sim::seconds(2));
}

TEST(SloEvaluator, AttributionTiesGoToLexicographicallySmallest) {
  SloEvaluator ev(tight_options());
  ev.add_target({"svc", sim::msec(100), 0.95, -1.0});

  ev.observe(obs(sim::msec(100), sim::msec(150), true, "net", "cloud"));
  ev.observe(obs(sim::msec(200), sim::msec(150), true, "compute",
                 "basestation-edge"));
  ev.observe(obs(sim::msec(300), sim::msec(150), true, "net",
                 "basestation-edge"));
  ev.observe(obs(sim::msec(400), sim::msec(150), true, "compute", "cloud"));
  ev.flush(sim::msec(400));

  ASSERT_EQ(ev.events().size(), 1u);
  // 2x net vs 2x compute, 2x cloud vs 2x basestation-edge: map order wins.
  EXPECT_EQ(ev.events()[0].attributed_segment, "compute");
  EXPECT_EQ(ev.events()[0].implicated_tier, "basestation-edge");
}

TEST(SloEvaluator, FlushJudgesInProgressWindowOnce) {
  SloEvaluator ev(tight_options());
  ev.add_target({"svc", sim::msec(100), 0.95, -1.0});
  for (int i = 0; i < 3; ++i) {
    ev.observe(obs(sim::msec(100 * (i + 1)), sim::msec(150)));
  }
  ev.flush(sim::msec(500));
  ASSERT_EQ(ev.events().size(), 1u);
  EXPECT_EQ(ev.events()[0].at, sim::seconds(1));
  ev.flush(sim::msec(500));  // idempotent: the window was consumed
  EXPECT_EQ(ev.events().size(), 1u);

  std::string table = ev.compliance_table();
  EXPECT_NE(table.find("BREACHED"), std::string::npos);
}

TEST(SloEvaluator, StandardSlosCoverTheServiceCatalog) {
  std::vector<SloTarget> slos = analysis::standard_slos();
  ASSERT_EQ(slos.size(), 7u);
  for (const SloTarget& t : slos) {
    EXPECT_GT(t.latency_target, 0) << t.service;
    EXPECT_DOUBLE_EQ(t.quantile, 0.95) << t.service;
    EXPECT_GE(t.min_availability, 0.90) << t.service;
  }
  EXPECT_EQ(slos[0].service, "lane-detection");
  EXPECT_EQ(slos[0].latency_target, sim::msec(50));
}

TEST(SloEvaluator, UntrackedServicesAreIgnored) {
  SloEvaluator ev(tight_options());
  ev.add_target({"svc", sim::msec(100), 0.95, -1.0});
  for (int i = 0; i < 5; ++i) {
    ev.observe(obs(sim::msec(100 * (i + 1)), sim::msec(900), false, "net",
                   "cloud", "nobody-watches-me"));
  }
  ev.flush(sim::seconds(5));
  EXPECT_TRUE(ev.events().empty());
  EXPECT_FALSE(ev.breached("nobody-watches-me"));
}

// --- the acceptance scenario ------------------------------------------------
// A probe service whose honest estimates prefer the RSU pipeline (~38 ms
// vs ~50 ms on board, 150 ms deadline). A background flood then saturates
// the RSU uplink: the elastic estimator is queueing-blind (net/link.hpp),
// so it keeps choosing "remote" while actual latencies blow past the 60 ms
// SLO. The health loop must notice (latency breach implicating rsu-edge),
// penalize the tier, and steer subsequent releases back on board.
TEST(HealthLoop, LatencyFaultBreachesSloAndSwitchesPipeline) {
  sim::Simulator sim(42);
  telemetry::Domain domain;
  telemetry::BindScope bind({&domain});

  core::PlatformConfig cfg;
  cfg.vehicle_name = "slo-cav";
  cfg.health.enabled = true;
  cfg.health.evaluator.window = sim::seconds(5);
  cfg.health.evaluator.min_samples = 3;
  cfg.health.targets = {{"probe-cam", sim::msec(60), 0.95, -1.0}};
  core::OpenVdap car(sim, cfg);
  ASSERT_NE(car.health(), nullptr);

  workload::QosSpec qos;
  qos.deadline = sim::msec(150);
  workload::AppDag dag("probe-cam", workload::ServiceCategory::kAdas, qos);
  workload::TaskSpec task;
  task.name = "infer";
  task.cls = hw::TaskClass::kVisionClassic;
  task.gflop = 2.25;          // 50 ms on the Jetson, 25 ms on the RSU box
  task.input_bytes = 30'000;  // ~11 ms up the DSRC hop when idle
  task.output_bytes = 1'000;
  dag.add_task(task);
  edgeos::PolymorphicService svc;
  svc.dag = dag;
  svc.pipelines = {{"onboard", {net::Tier::kOnBoard}},
                   {"remote", {net::Tier::kRsuEdge}}};
  car.os().install_service(svc, edgeos::IsolationMode::kNone);

  // Sanity: under clean conditions the estimator prefers the RSU pipeline.
  ASSERT_NE(car.elastic().choose(svc), nullptr);
  EXPECT_EQ(car.elastic().choose(svc)->name, "remote");

  // The injected fault: a 1 MB flood every 200 ms (~40 Mbps offered on a
  // 27 Mbps link) queues the RSU uplink without tripping availability.
  for (sim::SimTime t = sim::msec(200); t <= sim::seconds(20);
       t += sim::msec(200)) {
    sim.at(t, [&] {
      car.topology().transfer_up(net::Tier::kRsuEdge, 1'000'000,
                                 [](const net::TransferOutcome&) {});
    });
  }

  std::vector<edgeos::ServiceRunReport> reports;
  auto record = [&](const edgeos::ServiceRunReport& rep) {
    reports.push_back(rep);
  };
  for (sim::SimTime t = sim::seconds(1); t <= sim::seconds(12);
       t += sim::msec(500)) {
    sim.at(t, [&] { car.run_service("probe-cam", record); });
  }

  sim.run_until(sim::seconds(8));

  // The breach fired, named the impaired tier, and blamed the network.
  const std::vector<HealthEvent>& events = car.health()->events();
  ASSERT_FALSE(events.empty());
  const HealthEvent& breach = events[0];
  EXPECT_EQ(breach.kind, HealthEventKind::kLatencyBreach);
  EXPECT_EQ(breach.severity, Severity::kCritical);
  EXPECT_EQ(breach.service, "probe-cam");
  EXPECT_EQ(breach.implicated_tier, "rsu-edge");
  EXPECT_EQ(breach.attributed_segment, "net");
  EXPECT_GT(breach.observed, 60.0);

  // ...and the control knob actually moved.
  EXPECT_DOUBLE_EQ(car.elastic().tier_penalty(net::Tier::kRsuEdge), 4.0);
  ASSERT_EQ(car.health()->penalized().count(net::Tier::kRsuEdge), 1u);
  ASSERT_NE(car.elastic().choose(svc), nullptr);
  EXPECT_EQ(car.elastic().choose(svc)->name, "onboard");

  // Pre-breach releases rode the saturated RSU pipeline and missed the SLO.
  ASSERT_FALSE(reports.empty());
  bool saw_slow_remote = false;
  for (const auto& rep : reports) {
    if (rep.pipeline == "remote" && rep.latency() > sim::msec(60)) {
      saw_slow_remote = true;
      EXPECT_EQ(rep.implicated_tier, "rsu-edge");
    }
  }
  EXPECT_TRUE(saw_slow_remote);

  // A fresh release now runs on board and meets the target again. (Late
  // pre-breach remote runs are still draining the queue, so capture this
  // run's report directly instead of indexing `reports`.)
  std::optional<edgeos::ServiceRunReport> healed;
  car.run_service("probe-cam",
                  [&](const edgeos::ServiceRunReport& rep) { healed = rep; });
  sim.run_until(sim.now() + sim::seconds(1));
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->pipeline, "onboard");
  EXPECT_TRUE(healed->ok);
  EXPECT_TRUE(healed->deadline_met);
  EXPECT_LE(healed->latency(), sim::msec(60));
  EXPECT_EQ(healed->implicated_tier, "on-board");

  // The loop's actions are visible in the trace for vdap-report to show.
  std::string trace = telemetry::chrome_trace_json(domain.tracer());
  EXPECT_NE(trace.find("latency-breach"), std::string::npos);
  EXPECT_NE(trace.find("health.penalize"), std::string::npos);
}

}  // namespace
}  // namespace vdap
