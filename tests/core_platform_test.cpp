#include "core/platform.hpp"

#include "workload/apps.hpp"

#include <gtest/gtest.h>

namespace vdap::core {
namespace {

TEST(Scenario, CellularConditionModelShape) {
  CellularConditionModel m;
  EXPECT_NEAR(m.bandwidth_factor(0.0), 1.0, 1e-9);
  EXPECT_GT(m.bandwidth_factor(35.0), m.bandwidth_factor(70.0));
  EXPECT_LT(m.bandwidth_factor(70.0), 0.35);
  EXPECT_DOUBLE_EQ(m.loss_rate(0.0), 0.0);
  EXPECT_GT(m.loss_rate(70.0), m.loss_rate(35.0));
  EXPECT_LE(m.loss_rate(200.0), 0.9);
}

TEST(Scenario, SegmentsApplyOverTime) {
  sim::Simulator sim;
  net::Topology topo(sim);
  DriveScenario scenario(sim, topo,
                         {{10.0, 0.0, true, false},
                          {10.0, 70.0, false, true}});
  scenario.start();
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(scenario.current_segment(), 0);
  EXPECT_TRUE(topo.available(net::Tier::kRsuEdge));
  EXPECT_FALSE(topo.available(net::Tier::kNeighbor));
  EXPECT_NEAR(topo.cellular_bandwidth_factor(), 1.0, 1e-9);

  sim.run_until(sim::seconds(11));
  EXPECT_EQ(scenario.current_segment(), 1);
  EXPECT_FALSE(topo.available(net::Tier::kRsuEdge));
  EXPECT_TRUE(topo.available(net::Tier::kNeighbor));
  EXPECT_LT(topo.cellular_bandwidth_factor(), 0.35);
  EXPECT_DOUBLE_EQ(scenario.speed_mph_at(sim::seconds(15)), 70.0);
  EXPECT_NEAR(scenario.total_duration_s(), 20.0, 1e-9);
}

TEST(Scenario, PresetsAreSane) {
  EXPECT_GT(DriveScenario::commute().size(), 3u);
  EXPECT_EQ(DriveScenario::parked().size(), 1u);
  EXPECT_DOUBLE_EQ(DriveScenario::highway_sprint()[0].speed_mph, 70.0);
  sim::Simulator sim;
  net::Topology topo(sim);
  EXPECT_THROW(DriveScenario(sim, topo, {}), std::invalid_argument);
}

TEST(Platform, BootsWithReferenceBoard) {
  sim::Simulator sim(42);
  OpenVdap cav(sim);
  EXPECT_EQ(cav.board().devices().size(), 4u);
  EXPECT_EQ(cav.registry().size(), 4u);
  EXPECT_NE(cav.remote_device(net::Tier::kRsuEdge), nullptr);
  EXPECT_NE(cav.remote_device(net::Tier::kCloud), nullptr);
  EXPECT_EQ(cav.remote_device(net::Tier::kOnBoard), nullptr);
}

TEST(Platform, StandardServicesInstallAndRun) {
  sim::Simulator sim(42);
  OpenVdap cav(sim);
  cav.install_standard_services();
  EXPECT_TRUE(cav.os().has_service("lane-detection"));
  EXPECT_TRUE(cav.os().has_service("a3-kidnapper-search"));
  // TEE for safety-critical, containers for third-party (§IV-C).
  EXPECT_EQ(cav.os().security().mode("pedestrian-alert"),
            edgeos::IsolationMode::kTee);
  EXPECT_EQ(cav.os().security().mode("license-plate"),
            edgeos::IsolationMode::kContainer);

  int ok = 0;
  for (const char* svc : {"lane-detection", "pedestrian-alert",
                          "obd-diagnostics", "license-plate"}) {
    cav.run_service(svc, [&](const edgeos::ServiceRunReport& r) {
      ok += r.ok ? 1 : 0;
    });
  }
  sim.run_until(sim::seconds(30));
  EXPECT_EQ(ok, 4);
}

TEST(Platform, ApiReachesLiveComponents) {
  sim::Simulator sim(42);
  OpenVdap cav(sim);
  auto resp = cav.api().get("/v1/resources");
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body.at("resources").size(), 4u);
  EXPECT_EQ(cav.api().get("/v1/models").status, 200);
}

TEST(Platform, CollectorsFillDdi) {
  sim::Simulator sim(42);
  PlatformConfig cfg;
  cfg.start_collectors = true;
  OpenVdap cav(sim, cfg);
  sim.run_until(sim::seconds(30));
  auto resp =
      cav.ddi().download_now({"vehicle/obd", 0, sim::seconds(30)});
  EXPECT_GT(resp.records.size(), 250u);  // ~10 Hz for 30 s
}

TEST(Platform, SameNameAndSeedKeepSeparateDdiDirs) {
  // Two live platforms with one vehicle name and seed, as in concurrent
  // test processes on default configs. Neither may lose its segment log
  // to the other, so both read back everything they wrote.
  sim::Simulator sim_a(42);
  sim::Simulator sim_b(42);
  PlatformConfig cfg;
  cfg.start_collectors = true;
  OpenVdap a(sim_a, cfg);
  sim_a.run_until(sim::seconds(30));
  OpenVdap b(sim_b, cfg);
  sim_b.run_until(sim::seconds(15));
  sim_a.run_until(sim::seconds(45));
  auto ra = a.ddi().download_now({"vehicle/obd", 0, sim::seconds(45)});
  auto rb = b.ddi().download_now({"vehicle/obd", 0, sim::seconds(15)});
  EXPECT_GT(ra.records.size(), 400u);  // ~10 Hz for 45 s
  EXPECT_GT(rb.records.size(), 130u);  // ~10 Hz for 15 s
}

TEST(Platform, ScenarioDrivesOffloadDecisions) {
  sim::Simulator sim(42);
  OpenVdap cav(sim);
  cav.install_standard_services();
  DriveScenario scenario(sim, cav.topology(),
                         DriveScenario::highway_sprint(60.0),
                         &cav.elastic());
  scenario.start();
  sim.run_until(sim::seconds(1));
  // At 70 MPH with no RSU, cellular is degraded and RSU unavailable.
  EXPECT_FALSE(cav.topology().available(net::Tier::kRsuEdge));
  auto d = cav.offload().decide(workload::apps::vehicle_detection_tf());
  ASSERT_TRUE(d.feasible);
  EXPECT_EQ(d.tier, net::Tier::kOnBoard);
}

TEST(Platform, TwoVehiclesCollaborate) {
  sim::Simulator sim(42);
  PlatformConfig a_cfg, b_cfg;
  a_cfg.vehicle_name = "cav-a";
  a_cfg.vehicle_secret = 1;
  b_cfg.vehicle_name = "cav-b";
  b_cfg.vehicle_secret = 2;
  OpenVdap a(sim, a_cfg), b(sim, b_cfg);
  CollaborationCache::connect(a.collaboration(), b.collaboration());
  a.collaboration().put("plate:AMBER-1", json::Value("sighted"));
  std::optional<SharedResult> got;
  b.collaboration().lookup("plate:AMBER-1",
                           [&](std::optional<SharedResult> r) {
                             got = std::move(r);
                           });
  sim.run_until(sim::seconds(2));
  ASSERT_TRUE(got.has_value());
  // Pseudonymous producer, distinct per vehicle secret.
  EXPECT_NE(got->producer_pseudonym, b.collaboration().pseudonym());
  EXPECT_EQ(got->producer_pseudonym.substr(0, 4), "veh-");
}

TEST(Platform, DistinctVehiclesHaveDistinctPseudonyms) {
  sim::Simulator sim(42);
  PlatformConfig a_cfg, b_cfg;
  a_cfg.vehicle_name = "cav-a";
  a_cfg.vehicle_secret = 10;
  b_cfg.vehicle_name = "cav-b";
  b_cfg.vehicle_secret = 20;
  OpenVdap a(sim, a_cfg), b(sim, b_cfg);
  EXPECT_NE(a.collaboration().pseudonym(), b.collaboration().pseudonym());
}

}  // namespace
}  // namespace vdap::core
