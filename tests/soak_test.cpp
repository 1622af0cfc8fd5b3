// Soak suite: one vehicle-hour of recurring, overlapping faults. Verifies
// that the platform neither leaks runs nor loses records over a long horizon
// and that even an hour-long chaotic run replays bit-identically.
#include <gtest/gtest.h>

#include "chaos_harness.hpp"

namespace vdap {
namespace {

using chaos::ChaosConfig;
using chaos::ChaosOutcome;
using chaos::run_chaos;

// Recurring faults spread over ~55 minutes — every fault kind keeps firing
// for the whole soak window.
sim::FaultPlan soak_plan() {
  sim::FaultPlan p;
  p.name = "soak-rolling";

  sim::FaultSpec flap;
  flap.name = "rsu-flap";
  flap.kind = sim::FaultKind::kLinkFlap;
  flap.target = "rsu-edge";
  flap.start = sim::seconds(60);
  flap.duration = sim::seconds(60);
  flap.down_time = sim::seconds(3);
  flap.up_time = sim::seconds(8);
  flap.jitter = 0.3;
  flap.repeat = 10;
  flap.period = sim::minutes(5);
  p.faults.push_back(flap);

  sim::FaultSpec cloud;
  cloud.name = "cloud-out";
  cloud.kind = sim::FaultKind::kLinkDown;
  cloud.target = "cloud";
  cloud.start = sim::seconds(90);
  cloud.duration = sim::seconds(30);
  cloud.repeat = 8;
  cloud.period = sim::minutes(6);
  p.faults.push_back(cloud);

  sim::FaultSpec cell;
  cell.name = "cell-crunch";
  cell.kind = sim::FaultKind::kCellularCollapse;
  cell.target = "cellular";
  cell.start = sim::seconds(120);
  cell.duration = sim::seconds(60);
  cell.severity = 0.15;
  cell.extra_loss = 0.1;
  cell.repeat = 9;
  cell.period = sim::seconds(330);
  p.faults.push_back(cell);

  // Lossy-but-up cloud path: the cellular gate stays open, so sync
  // attempts fail for real and the backoff machinery gets exercised.
  sim::FaultSpec lossy;
  lossy.name = "cloud-lossy";
  lossy.kind = sim::FaultKind::kLinkDegrade;
  lossy.target = "cloud";
  lossy.start = sim::seconds(150);
  lossy.duration = sim::seconds(45);
  lossy.severity = 0.7;
  lossy.extra_loss = 0.9;
  lossy.repeat = 10;
  lossy.period = sim::seconds(320);
  p.faults.push_back(lossy);

  sim::FaultSpec disk;
  disk.name = "disk-stall";
  disk.kind = sim::FaultKind::kDiskWriteError;
  disk.target = "ddi";
  disk.start = sim::seconds(200);
  disk.duration = sim::seconds(10);
  disk.repeat = 12;
  disk.period = sim::seconds(240);
  p.faults.push_back(disk);

  sim::FaultSpec crash;
  crash.name = "speech-crash";
  crash.kind = sim::FaultKind::kServiceCrash;
  crash.target = "speech-assistant";
  crash.start = sim::minutes(5);
  crash.repeat = 6;
  crash.period = sim::minutes(8);
  p.faults.push_back(crash);

  sim::FaultSpec slow;
  slow.name = "cpu-thermal";
  slow.kind = sim::FaultKind::kProcessorSlowdown;
  slow.target = "proc:0";
  slow.start = sim::seconds(400);
  slow.duration = sim::minutes(2);
  slow.severity = 0.5;
  slow.repeat = 5;
  slow.period = sim::minutes(9);
  p.faults.push_back(slow);

  return p;
}

ChaosConfig soak_config() {
  ChaosConfig cc;
  cc.release_period = sim::seconds(10);
  cc.load_until = sim::minutes(50);
  cc.run_until = sim::minutes(60);
  cc.obd_period = sim::seconds(1);  // keep the hour-long run cheap
  return cc;
}

void check_invariants(const ChaosOutcome& out) {
  EXPECT_GT(out.faults_applied, 20u);  // recurrences actually recurred
  EXPECT_GT(out.uploads, 3000u);       // an hour of telemetry
  EXPECT_EQ(out.cloud.size(), out.uploads);
  for (const auto& [key, copies] : out.cloud) {
    ASSERT_EQ(copies, 1) << "duplicate delivery of " << key.first << "@"
                         << key.second;
  }
  EXPECT_EQ(out.backlog, 0u);
  EXPECT_EQ(out.staged, 0u);
  EXPECT_EQ(out.reports, out.releases);
  EXPECT_EQ(out.active_runs, 0u);
  EXPECT_EQ(out.hung, 0u);
  // The soak hit every reacting layer.
  EXPECT_GT(out.sync_failed, 0u);
  EXPECT_GT(out.disk_failures, 0u);
  EXPECT_GT(out.crashes, 0u);
  EXPECT_GT(out.reinstalls, 0u);
  // No telemetry span may survive the drain — an hour of recurring faults,
  // failovers and hang/resume cycles must still balance every begin()/end().
  EXPECT_EQ(out.open_spans, 0u);
}

TEST(Soak, OneVehicleHourOfRollingFaults) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ChaosOutcome out =
        run_chaos(soak_plan(), seed, "soak-" + std::to_string(seed),
                  soak_config());
    check_invariants(out);
  }
}

TEST(Soak, HourLongRunReplaysBitIdentically) {
  ChaosOutcome a = run_chaos(soak_plan(), 77, "soak-det-a", soak_config());
  ChaosOutcome b = run_chaos(soak_plan(), 77, "soak-det-b", soak_config());
  check_invariants(a);
  EXPECT_EQ(a.fault_trace, b.fault_trace);
  EXPECT_EQ(a.report_trace, b.report_trace);
  EXPECT_EQ(a.cloud, b.cloud);
  EXPECT_EQ(a.sync_retries, b.sync_retries);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.reinstalls, b.reinstalls);
  EXPECT_EQ(a.trace_json, b.trace_json) << "exported trace not byte-stable";
  EXPECT_EQ(a.metrics_jsonl, b.metrics_jsonl);
}

}  // namespace
}  // namespace vdap
