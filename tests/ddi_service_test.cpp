#include "ddi/ddi.hpp"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>

namespace vdap::ddi {
namespace {

namespace fs = std::filesystem;

class DdiTest : public ::testing::Test {
 protected:
  // A fresh mkdtemp directory per test: concurrent runs of the suite
  // never share (or delete) each other's segments.
  void SetUp() override {
    std::string made = (fs::temp_directory_path() / "vdap-ddi-XXXXXX").string();
    ASSERT_NE(mkdtemp(made.data()), nullptr) << made;
    dir_ = made;
  }
  void TearDown() override { fs::remove_all(dir_); }

  DdiOptions opts() {
    DdiOptions o;
    o.disk.dir = dir_.string();
    o.flush_period = sim::seconds(5);
    o.staging_ttl = sim::seconds(10);
    return o;
  }

  static DataRecord rec(sim::SimTime ts, double speed = 10.0) {
    DataRecord r;
    r.stream = "vehicle/obd";
    r.timestamp = ts;
    r.lat = 42.0;
    r.lon = -83.0;
    r.payload["speed_mps"] = speed;
    return r;
  }

  fs::path dir_;
};

TEST_F(DdiTest, UploadThenDownloadSeesStagedData) {
  sim::Simulator sim;
  Ddi ddi(sim, opts());
  ddi.upload(rec(sim::seconds(1)));
  ddi.upload(rec(sim::seconds(2)));
  auto resp = ddi.download_now({"vehicle/obd", 0, sim::seconds(10)});
  EXPECT_EQ(resp.records.size(), 2u);
  EXPECT_FALSE(resp.from_cache);
  EXPECT_EQ(ddi.uploads(), 2u);
  EXPECT_EQ(ddi.downloads(), 1u);
}

TEST_F(DdiTest, RepeatQueryHitsCacheWithLowerLatency) {
  sim::Simulator sim;
  Ddi ddi(sim, opts());
  ddi.upload(rec(sim::seconds(1)));
  DownloadRequest q{"vehicle/obd", 0, sim::seconds(10)};
  auto cold = ddi.download_now(q);
  auto warm = ddi.download_now(q);
  EXPECT_FALSE(cold.from_cache);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_LT(warm.latency, cold.latency);
  EXPECT_EQ(warm.records.size(), cold.records.size());
  EXPECT_EQ(warm.records[0].payload.get_double("speed_mps"), 10.0);
}

TEST_F(DdiTest, WriteBackMovesStagedRecordsToDisk) {
  sim::Simulator sim;
  Ddi ddi(sim, opts());
  ddi.upload(rec(sim::seconds(0)));
  EXPECT_EQ(ddi.staged_count(), 1u);
  EXPECT_EQ(ddi.disk().record_count(), 0u);
  // After staging TTL + a flush period, the record is on disk.
  sim.run_until(sim::seconds(16));
  EXPECT_EQ(ddi.staged_count(), 0u);
  EXPECT_EQ(ddi.disk().record_count(), 1u);
  // Still queryable.
  auto resp = ddi.download_now({"vehicle/obd", 0, sim::seconds(10)});
  EXPECT_EQ(resp.records.size(), 1u);
}

TEST_F(DdiTest, QueryMergesDiskAndStaging) {
  sim::Simulator sim;
  Ddi ddi(sim, opts());
  ddi.upload(rec(sim::seconds(1)));
  sim.run_until(sim::seconds(16));  // first record flushed to disk
  ddi.upload(rec(sim::seconds(17)));
  auto resp = ddi.download_now({"vehicle/obd", 0, sim::seconds(20)});
  ASSERT_EQ(resp.records.size(), 2u);
  EXPECT_EQ(resp.records[0].timestamp, sim::seconds(1));   // disk
  EXPECT_EQ(resp.records[1].timestamp, sim::seconds(17));  // staged
}

TEST_F(DdiTest, AsyncDownloadDeliversAfterSimulatedLatency) {
  sim::Simulator sim;
  Ddi ddi(sim, opts());
  ddi.upload(rec(sim::seconds(1)));
  DownloadResponse got;
  sim::SimTime delivered_at = -1;
  ddi.download({"vehicle/obd", 0, sim::seconds(10)},
               [&](const DownloadResponse& r) {
                 got = r;
                 delivered_at = sim.now();
               });
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(got.records.size(), 1u);
  EXPECT_EQ(delivered_at, opts().disk_latency);  // cold = disk path
}

TEST_F(DdiTest, GeoKeywordFiltering) {
  sim::Simulator sim;
  Ddi ddi(sim, opts());
  DataRecord a = rec(sim::seconds(1));
  DataRecord b = rec(sim::seconds(2));
  b.lat = 43.0;
  ddi.upload(a);
  ddi.upload(b);
  DownloadRequest q{"vehicle/obd", 0, sim::seconds(10), true,
                    41.9, 42.1, -83.1, -82.9};
  auto resp = ddi.download_now(q);
  ASSERT_EQ(resp.records.size(), 1u);
  EXPECT_EQ(resp.records[0].timestamp, sim::seconds(1));
}

TEST_F(DdiTest, CollectorsFeedTheIntegrator) {
  sim::Simulator sim(11);
  Ddi ddi(sim, opts());
  ObdCollector obd(sim, [&](DataRecord r) { ddi.upload(std::move(r)); });
  WeatherFeed weather(sim, [&](DataRecord r) { ddi.upload(std::move(r)); });
  TrafficFeed traffic(sim, [&](DataRecord r) { ddi.upload(std::move(r)); });
  SocialFeed social(sim, [&](DataRecord r) { ddi.upload(std::move(r)); },
                    600.0);  // one event per ~6 s
  obd.start();
  weather.start();
  traffic.start();
  social.start();
  sim.run_until(sim::minutes(2));
  // 10 Hz OBD for 120 s.
  EXPECT_NEAR(static_cast<double>(obd.emitted()), 1200.0, 5.0);
  EXPECT_GE(weather.emitted(), 2u);
  EXPECT_GE(traffic.emitted(), 3u);
  EXPECT_GE(social.emitted(), 5u);
  // Everything is queryable through the service layer.
  auto obd_resp = ddi.download_now({"vehicle/obd", 0, sim::minutes(2)});
  EXPECT_EQ(obd_resp.records.size(), obd.emitted());
  auto wx = ddi.download_now({"env/weather", 0, sim::minutes(2)});
  EXPECT_EQ(wx.records.size(), weather.emitted());
  for (const auto& r : obd_resp.records) {
    EXPECT_GE(r.payload.get_double("speed_mps"), 0.0);
    EXPECT_GT(r.payload.get_double("rpm"), 0.0);
  }
}

TEST_F(DdiTest, ObdDynamicsArePlausible) {
  sim::Simulator sim(3);
  std::vector<DataRecord> records;
  ObdCollector obd(sim, [&](DataRecord r) { records.push_back(std::move(r)); });
  obd.set_target_speed(25.0);
  obd.start();
  sim.run_until(sim::minutes(1));
  ASSERT_GT(records.size(), 100u);
  double max_speed = 0.0;
  for (std::size_t i = 1; i < records.size(); ++i) {
    double ds = records[i].payload.get_double("speed_mps") -
                records[i - 1].payload.get_double("speed_mps");
    EXPECT_LT(std::abs(ds), 1.0);  // bounded accel per 100 ms
    max_speed =
        std::max(max_speed, records[i].payload.get_double("speed_mps"));
  }
  EXPECT_GT(max_speed, 5.0);  // it actually drove
  // Position moved.
  EXPECT_GT(records.back().payload.get_double("odometer_m"), 100.0);
}

TEST_F(DdiTest, WeatherTransitionsAreValid) {
  sim::Simulator sim(7);
  std::set<std::string> seen;
  WeatherFeed weather(
      sim,
      [&](DataRecord r) { seen.insert(r.payload.get_string("condition")); },
      sim::seconds(10));
  weather.start();
  sim.run_until(sim::minutes(60));
  for (const auto& c : seen) {
    EXPECT_TRUE(c == "clear" || c == "rain" || c == "snow") << c;
  }
  EXPECT_GE(seen.size(), 2u);  // an hour sees at least one transition
}

TEST_F(DdiTest, SurvivesReopenAcrossSessions) {
  sim::Simulator sim;
  {
    Ddi ddi(sim, opts());
    ddi.upload(rec(sim::seconds(1)));
    ddi.flush_staged(/*force_all=*/true);
  }
  Ddi ddi2(sim, opts());
  auto resp = ddi2.download_now({"vehicle/obd", 0, sim::seconds(10)});
  EXPECT_EQ(resp.records.size(), 1u);
}

}  // namespace
}  // namespace vdap::ddi
