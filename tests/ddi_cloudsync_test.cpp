#include "ddi/cloudsync.hpp"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <map>
#include <stdexcept>
#include <utility>

#include "net/impair.hpp"

namespace vdap::ddi {
namespace {

namespace fs = std::filesystem;

// A fresh mkdtemp directory per test: concurrent runs of the suite never
// share (or delete) each other's segments.
fs::path make_temp_dir() {
  std::string made =
      (fs::temp_directory_path() / "vdap-cloudsync-XXXXXX").string();
  if (mkdtemp(made.data()) == nullptr) {
    throw std::runtime_error("mkdtemp " + made);
  }
  return made;
}

class CloudSyncTest : public ::testing::Test {
 protected:
  CloudSyncTest()
      : dir_(make_temp_dir()), topo_(sim_), ddi_(sim_, make_opts()) {}
  ~CloudSyncTest() override { fs::remove_all(dir_); }

  DdiOptions make_opts() {
    DdiOptions o;
    o.disk.dir = dir_.string();
    o.staging_ttl = sim::seconds(1);
    o.flush_period = sim::seconds(1);
    return o;
  }

  void ingest(int n, sim::SimTime start = 0) {
    for (int i = 0; i < n; ++i) {
      DataRecord r;
      r.stream = "vehicle/obd";
      r.timestamp = start + sim::msec(100) * i;
      r.payload["i"] = i;
      ddi_.upload(std::move(r));
    }
    ddi_.flush_staged(/*force_all=*/true);
  }

  fs::path dir_;
  sim::Simulator sim_;
  net::Topology topo_;
  Ddi ddi_;
};

TEST_F(CloudSyncTest, SyncsPersistedRecordsToCloud) {
  CloudSync sync(sim_, ddi_, topo_);
  std::vector<DataRecord> cloud;
  sync.set_sink([&](const DataRecord& r) { cloud.push_back(r); });
  ingest(100);
  EXPECT_EQ(sync.backlog(), 100u);
  sync.sync_once();
  sim_.run_until(sim_.now() + sim::minutes(1));
  EXPECT_EQ(cloud.size(), 100u);
  EXPECT_EQ(sync.records_synced(), 100u);
  EXPECT_GT(sync.bytes_synced(), 0u);
  EXPECT_EQ(sync.backlog(), 0u);
  // Records arrive intact.
  EXPECT_EQ(cloud.front().payload.get_int("i"), 0);
  EXPECT_EQ(cloud.back().payload.get_int("i"), 99);
}

TEST_F(CloudSyncTest, SecondSyncShipsNothingNew) {
  CloudSync sync(sim_, ddi_, topo_);
  ingest(50);
  sync.sync_once();
  sim_.run_until(sim_.now() + sim::minutes(1));
  EXPECT_EQ(sync.sync_once(), 0u);  // cursor advanced
}

TEST_F(CloudSyncTest, IncrementalSyncPicksUpNewData) {
  CloudSync sync(sim_, ddi_, topo_);
  ingest(50);
  sync.sync_once();
  sim_.run_until(sim_.now() + sim::minutes(1));
  ingest(30, sim::seconds(100));
  EXPECT_EQ(sync.backlog(), 30u);
  sync.sync_once();
  sim_.run_until(sim_.now() + sim::minutes(1));
  EXPECT_EQ(sync.records_synced(), 80u);
}

TEST_F(CloudSyncTest, BadNetworkDefersSync) {
  CloudSync sync(sim_, ddi_, topo_);
  ingest(50);
  // 70 MPH-grade cellular: below the sync gate.
  topo_.apply_cellular_condition(0.2, 0.5);
  EXPECT_EQ(sync.sync_once(), 0u);
  EXPECT_EQ(sync.skipped_bad_network(), 1u);
  EXPECT_EQ(sync.backlog(), 50u);
  // Parked again: sync proceeds.
  topo_.apply_cellular_condition(1.0, 0.0);
  sync.sync_once();
  sim_.run_until(sim_.now() + sim::minutes(1));
  EXPECT_EQ(sync.records_synced(), 50u);
}

TEST_F(CloudSyncTest, UnavailableTierDefersSync) {
  CloudSync sync(sim_, ddi_, topo_);
  ingest(10);
  topo_.set_available(net::Tier::kCloud, false);
  EXPECT_EQ(sync.sync_once(), 0u);
  EXPECT_GE(sync.skipped_bad_network(), 1u);
}

TEST_F(CloudSyncTest, BatchLimitSplitsLargeBacklogs) {
  CloudSyncOptions opts;
  opts.batch_records = 40;
  CloudSync sync(sim_, ddi_, topo_, opts);
  ingest(100);
  sync.sync_once();
  // A second call while the batch is in flight is a no-op (no duplicates).
  EXPECT_EQ(sync.sync_once(), 0u);
  sim_.run_until(sim_.now() + sim::minutes(1));
  EXPECT_EQ(sync.records_synced(), 40u);
  for (int i = 0; i < 2; ++i) {
    sync.sync_once();
    sim_.run_until(sim_.now() + sim::minutes(1));
  }
  EXPECT_EQ(sync.records_synced(), 100u);  // drained over wake-ups
}

TEST_F(CloudSyncTest, PeriodicModeDrainsBacklog) {
  CloudSyncOptions opts;
  opts.check_period = sim::seconds(10);
  opts.batch_records = 25;
  CloudSync sync(sim_, ddi_, topo_, opts);
  ingest(100);
  sync.start();
  sim_.run_until(sim_.now() + sim::minutes(2));
  EXPECT_EQ(sync.records_synced(), 100u);
  sync.stop();
}

TEST_F(CloudSyncTest, MultipleStreamsTrackedIndependently) {
  CloudSync sync(sim_, ddi_, topo_);
  ingest(20);
  DataRecord wx;
  wx.stream = "env/weather";
  wx.timestamp = sim::seconds(1);
  wx.payload["condition"] = "rain";
  ddi_.upload(wx);
  ddi_.flush_staged(true);
  std::map<std::string, int> per_stream;
  sync.set_sink([&](const DataRecord& r) { per_stream[r.stream]++; });
  sync.sync_once();
  sim_.run_until(sim_.now() + sim::minutes(1));
  EXPECT_EQ(per_stream["vehicle/obd"], 20);
  EXPECT_EQ(per_stream["env/weather"], 1);
}

TEST_F(CloudSyncTest, CommunityDataServerReceivesQueryableData) {
  // §IV-A end to end: "All data collected by the DDI ... eventually
  // migrated to a cloud based data server. Note that these data will be
  // open to the community." The sink is an actual DiskDb playing the
  // community server; researchers can range-query what vehicles uploaded.
  fs::path cloud_dir = dir_.string() + "-cloud";
  fs::remove_all(cloud_dir);
  {
    DiskDb community({cloud_dir.string(), 4 << 20});
    CloudSync sync(sim_, ddi_, topo_);
    sync.set_sink([&](const DataRecord& r) { community.put(r); });
    ingest(80);
    sync.sync_once();
    sim_.run_until(sim_.now() + sim::minutes(1));
    community.flush();
    auto out = community.query("vehicle/obd", sim::seconds(2),
                               sim::seconds(4));
    EXPECT_EQ(out.size(), 21u);  // 100 ms cadence, inclusive bounds
  }
  // The community server survives restarts like any DiskDb.
  DiskDb reopened({cloud_dir.string(), 4 << 20});
  EXPECT_EQ(reopened.record_count(), 80u);
  fs::remove_all(cloud_dir);
}

// --- gate exactness at min_bandwidth_factor --------------------------------

TEST_F(CloudSyncTest, GateOpensAtExactlyTheThresholdFactor) {
  CloudSync sync(sim_, ddi_, topo_);  // min_bandwidth_factor = 0.5
  ingest(10);
  // Exactly at the threshold: `factor < min` is false, so the gate is open.
  topo_.apply_cellular_impairment(0.5, 0.0);
  EXPECT_GT(sync.sync_once(), 0u);
  sim_.run_until(sim_.now() + sim::minutes(1));
  EXPECT_EQ(sync.records_synced(), 10u);

  // A hair below: the gate closes.
  ingest(10, sim::minutes(5));
  topo_.apply_cellular_impairment(0.499, 0.0);
  EXPECT_EQ(sync.sync_once(), 0u);
  EXPECT_GE(sync.skipped_bad_network(), 1u);
  EXPECT_EQ(sync.backlog(), 10u);
}

TEST_F(CloudSyncTest, GateUsesScenarioTimesImpairmentComposition) {
  CloudSync sync(sim_, ddi_, topo_);
  net::ImpairmentController imp(topo_);
  ingest(10);
  topo_.apply_cellular_condition(0.8, 0.0);         // drive regime
  std::uint64_t tok = imp.cellular_collapse(0.625, 0.0);  // 0.8*0.625 = 0.5
  EXPECT_GT(sync.sync_once(), 0u);  // composed factor right at the gate
  sim_.run_until(sim_.now() + sim::minutes(1));
  EXPECT_EQ(sync.records_synced(), 10u);
  imp.restore(tok);

  ingest(10, sim::minutes(5));
  tok = imp.cellular_collapse(0.6, 0.0);  // 0.8*0.6 = 0.48 < gate
  EXPECT_EQ(sync.sync_once(), 0u);
  EXPECT_GE(sync.skipped_bad_network(), 1u);
  imp.restore(tok);
  EXPECT_GT(sync.sync_once(), 0u);  // restored: gate open again
}

// --- failed uploads retry with exponential backoff, losing nothing ---------

TEST_F(CloudSyncTest, LossyLinkRetriesWithBackoffUntilDelivered) {
  CloudSyncOptions opts;
  opts.check_period = sim::seconds(30);
  opts.batch_records = 5;  // several batches => several chances to fail
  opts.retry_backoff = sim::seconds(2);
  CloudSync sync(sim_, ddi_, topo_, opts);
  std::map<std::pair<std::string, long long>, int> cloud;
  sync.set_sink([&](const DataRecord& r) {
    ++cloud[{r.stream, static_cast<long long>(r.timestamp)}];
  });
  ingest(30);
  // Hostile but above-gate conditions: the gate stays open, the link drops
  // most packets, so uploads fail and the backoff path engages.
  topo_.apply_cellular_condition(0.6, 0.95);
  sync.start();
  sim_.run_until(sim::minutes(20));
  topo_.apply_cellular_condition(1.0, 0.0);  // conditions recover
  sim_.run_until(sim::minutes(40));
  sync.stop();

  EXPECT_GT(sync.failed_uploads(), 0u);
  EXPECT_GT(sync.retries(), 0u);
  // Conservation despite the carnage: everything arrived exactly once.
  EXPECT_EQ(sync.records_synced(), 30u);
  EXPECT_EQ(sync.backlog(), 0u);
  EXPECT_EQ(cloud.size(), 30u);
  for (const auto& [key, copies] : cloud) {
    EXPECT_EQ(copies, 1) << key.first << "@" << key.second;
  }
}

TEST_F(CloudSyncTest, BackoffGivesUpToPeriodicWakeupWhenGateCloses) {
  CloudSyncOptions opts;
  opts.retry_backoff = sim::seconds(2);
  CloudSync sync(sim_, ddi_, topo_, opts);
  ingest(10);
  // Tier vanishes mid-flight: the upload fails and a retry is scheduled.
  sync.sync_once();
  sim_.after(sim::msec(1), [&]() {
    topo_.set_available(net::Tier::kCloud, false);
  });
  sim_.run_until(sim::minutes(5));
  EXPECT_GT(sync.failed_uploads(), 0u);
  EXPECT_EQ(sync.records_synced(), 0u);
  // The retry fired against a closed gate and stood down; nothing was lost.
  EXPECT_EQ(sync.backlog(), 10u);
  // Tier returns: the next explicit sync drains the backlog.
  topo_.set_available(net::Tier::kCloud, true);
  sync.sync_once();
  sim_.run_until(sim_.now() + sim::minutes(1));
  EXPECT_EQ(sync.records_synced(), 10u);
  EXPECT_EQ(sync.backlog(), 0u);
}

}  // namespace
}  // namespace vdap::ddi
