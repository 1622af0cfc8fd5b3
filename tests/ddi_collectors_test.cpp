#include "ddi/collectors.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "ddi/ddi.hpp"

namespace vdap::ddi {
namespace {

namespace fs = std::filesystem;

TEST(ObdCollector, EmitsAtItsCadence) {
  sim::Simulator sim;
  std::vector<DataRecord> records;
  ObdCollector obd(sim, [&](DataRecord r) { records.push_back(std::move(r)); });
  obd.start();
  sim.run_until(sim::seconds(10));
  obd.stop();
  // 10 Hz for 10 s: one tick per 100 ms, t=0 through t=10s inclusive.
  EXPECT_EQ(records.size(), 101u);
  EXPECT_EQ(obd.emitted(), 101u);
  for (const DataRecord& r : records) {
    EXPECT_EQ(r.stream, "vehicle/obd");
  }
  // Timestamps step by exactly the period.
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].timestamp - records[i - 1].timestamp, sim::msec(100));
  }
  // Stopped: no further emissions.
  sim.run_until(sim::seconds(20));
  EXPECT_EQ(records.size(), 101u);
}

TEST(ObdCollector, StateEvolvesPlausibly) {
  sim::Simulator sim;
  ObdCollector obd(sim, [](DataRecord) {});
  obd.set_target_speed(30.0);
  obd.start();
  sim.run_until(sim::minutes(2));
  const VehicleStateModel& s = obd.state();
  EXPECT_GT(s.speed_mps, 5.0);    // accelerated toward the target
  EXPECT_GT(s.odometer_m, 100.0);  // actually moved
  EXPECT_GT(s.coolant_c, 70.0);    // warmed up under way
}

TEST(FeedCadence, WeatherAndTrafficUseTheirPeriods) {
  sim::Simulator sim;
  std::uint64_t weather_n = 0, traffic_n = 0;
  WeatherFeed weather(sim, [&](DataRecord) { ++weather_n; });
  TrafficFeed traffic(sim, [&](DataRecord) { ++traffic_n; });
  weather.start();
  traffic.start();
  sim.run_until(sim::minutes(10));
  EXPECT_EQ(weather_n, 11u);  // every 60 s, t=0 through t=600s inclusive
  EXPECT_EQ(traffic_n, 21u);  // every 30 s, ditto
}

TEST(SocialFeed, PoissonStreamIsSeedDeterministic) {
  auto count = [](std::uint64_t seed) {
    sim::Simulator sim(seed);
    std::uint64_t n = 0;
    SocialFeed social(sim, [&](DataRecord) { ++n; }, /*events_per_hour=*/60.0);
    social.start();
    sim.run_until(sim::minutes(60));
    return n;
  };
  EXPECT_EQ(count(7), count(7));
  // ~60 events expected; allow generous Poisson slack.
  std::uint64_t n = count(7);
  EXPECT_GT(n, 20u);
  EXPECT_LT(n, 140u);
}

TEST(CollectorToDdi, TtlHandOffMovesRecordsToDisk) {
  std::string dir =
      (fs::temp_directory_path() / "vdap-collectors-ttl-XXXXXX").string();
  ASSERT_NE(mkdtemp(dir.data()), nullptr) << dir;
  {
    sim::Simulator sim;
    DdiOptions opts;
    opts.disk.dir = dir;
    opts.staging_ttl = sim::seconds(10);
    opts.flush_period = sim::seconds(5);
    Ddi ddi(sim, opts);
    ObdCollector obd(sim, [&](DataRecord r) { ddi.upload(std::move(r)); });
    obd.start();

    sim.run_until(sim::seconds(8));
    // All records younger than the TTL: still staged, none on disk.
    EXPECT_EQ(ddi.uploads(), 81u);  // ticks at t=0 through t=8s
    EXPECT_EQ(ddi.staged_count(), 81u);
    EXPECT_EQ(ddi.disk().record_count(), 0u);

    sim.run_until(sim::minutes(1));
    obd.stop();
    // Old records migrated; only the ones younger than TTL (modulo the
    // flush period) still staged.
    EXPECT_GT(ddi.disk().record_count(), 400u);
    EXPECT_LT(ddi.staged_count(), 160u);
    EXPECT_EQ(ddi.uploads(), ddi.disk().record_count() + ddi.staged_count());

    // Queries see staged + persisted records seamlessly.
    auto resp = ddi.download_now(
        DownloadRequest{"vehicle/obd", 0, sim::kTimeMax});
    EXPECT_EQ(resp.records.size(), ddi.uploads());
  }
  fs::remove_all(dir);
}

TEST(CollectorToDdi, ForceFlushDrainsStagingCompletely) {
  std::string dir =
      (fs::temp_directory_path() / "vdap-collectors-force-XXXXXX").string();
  ASSERT_NE(mkdtemp(dir.data()), nullptr) << dir;
  {
    sim::Simulator sim;
    DdiOptions opts;
    opts.disk.dir = dir;
    Ddi ddi(sim, opts);
    WeatherFeed weather(sim, [&](DataRecord r) { ddi.upload(std::move(r)); });
    weather.start();
    sim.run_until(sim::minutes(5));
    ddi.flush_staged(/*force_all=*/true);
    EXPECT_EQ(ddi.staged_count(), 0u);
    EXPECT_EQ(ddi.disk().record_count(), ddi.uploads());
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace vdap::ddi
