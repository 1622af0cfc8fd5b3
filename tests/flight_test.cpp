// Flight-recorder suite (DESIGN.md §6i).
//
// The load-bearing assertions are the incident-bundle sweeps: a
// sim-clock-triggered incident must snapshot BYTE-identical
// manifest.json + rings.vfr no matter how many shards partition the
// fleet or how many threads drive them — on both the fleet-scale path
// (metric mirrors on) and the full-platform run_fleet path (health +
// fault + incident records). The ring/fold unit tests localize a sweep
// failure; the death test proves a fatal signal still yields a
// parseable bundle.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "core/fleet.hpp"
#include "core/fleet_scale.hpp"
#include "core/platform.hpp"
#include "sim/sharded.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/planes.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace vdap;
using telemetry::FlightKind;
using telemetry::FlightParse;
using telemetry::FlightRecord;
using telemetry::FlightRecorder;
using telemetry::FlightRing;
using telemetry::make_flight_record;

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

FlightRecord rec(std::int64_t ts, std::string_view name) {
  return make_flight_record(FlightKind::kInstant, ts, name, "t", "d", ts, 0.0);
}

// --- ring semantics ---------------------------------------------------------

TEST(FlightRingTest, OverwritesOldestKeepsOrder) {
  FlightRing ring(4);
  for (int i = 1; i <= 6; ++i) ring.append(rec(i, "r"));
  EXPECT_EQ(ring.appended(), 6u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.overwritten(), 2u);

  std::vector<FlightRecord> out;
  ring.drain_into(out);
  ASSERT_EQ(out.size(), 4u);
  // Oldest two were overwritten; the survivors come out oldest-first.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[(std::size_t)i].ts, i + 3);
  EXPECT_EQ(ring.dropped_total(), 2u);
  EXPECT_EQ(ring.drained_total(), 4u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.overwritten(), 0u);
}

TEST(FlightRingTest, SpanPairStraddlingWrapKeepsTheEnd) {
  FlightRing ring(3);
  ring.append(make_flight_record(FlightKind::kSpanBegin, 10, "decode", "w",
                                 "task", 0, 0.0));
  for (int i = 0; i < 3; ++i) ring.append(rec(20 + i, "noise"));
  ring.append(make_flight_record(FlightKind::kSpanEnd, 30, "decode", "w",
                                 "task", 0, 0.0));

  std::vector<FlightRecord> out;
  ring.drain_into(out);
  ASSERT_EQ(out.size(), 3u);
  // The begin was overwritten; the end survives as a well-formed record
  // (reports tolerate unmatched pairs — identity is name/track, not ids).
  EXPECT_EQ(out.back().kind, (std::uint32_t)FlightKind::kSpanEnd);
  EXPECT_STREQ(out.back().name, "decode");
  EXPECT_EQ(ring.dropped_total(), 2u);
}

TEST(FlightRingTest, ZeroCapacityIsDisabledNoOp) {
  FlightRing ring;  // capacity 0
  EXPECT_FALSE(ring.enabled());
  for (int i = 0; i < 100; ++i) ring.append(rec(i, "r"));
  EXPECT_EQ(ring.appended(), 0u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.overwritten(), 0u);
  std::vector<FlightRecord> out;
  ring.drain_into(out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(ring.dropped_total(), 0u);
}

TEST(FlightRingTest, TruncatesLongStringsWithNul) {
  const std::string long_name(100, 'n');
  FlightRecord r = make_flight_record(FlightKind::kMetric, 1, long_name,
                                      std::string(50, 't'),
                                      std::string(50, 'd'), 1, 0.0);
  EXPECT_EQ(std::string(r.name).size(), sizeof(r.name) - 1);
  EXPECT_EQ(std::string(r.track).size(), sizeof(r.track) - 1);
  EXPECT_EQ(std::string(r.detail).size(), sizeof(r.detail) - 1);
}

// --- fold determinism -------------------------------------------------------

// The determinism keystone: the master ring is a pure function of the
// record multiset, independent of which scratch ring recorded what.
TEST(FlightFoldTest, FoldIndependentOfRingPlacement) {
  auto run = [](const std::vector<int>& placement) {
    FlightRecorder fr(3);
    fr.set_context(7, "unit", json::Value());
    const std::vector<FlightRecord> records = {
        rec(30, "c"), rec(10, "a"), rec(10, "b"), rec(20, "b")};
    for (std::size_t i = 0; i < records.size(); ++i) {
      fr.ring(placement[i]).append(records[i]);
    }
    fr.fold_barrier(sim::usec(40));
    return fr.serialize_rings();
  };
  const std::string a = run({0, 0, 1, 2});
  const std::string b = run({2, 1, 0, 0});
  const std::string c = run({1, 1, 1, 1});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(FlightFoldTest, SerializeParseRoundTrip) {
  FlightRecorder fr(2);
  fr.ring(0).append(rec(5, "one"));
  fr.ring(1).append(rec(3, "two"));
  fr.fold_barrier(sim::usec(10));

  const std::string bytes = fr.serialize_rings();
  FlightParse parse = telemetry::parse_flight_rings(bytes);
  ASSERT_TRUE(parse.ok) << parse.error;
  ASSERT_EQ(parse.sections.size(), 1u);
  EXPECT_EQ(parse.sections[0].domain, -1);  // master
  ASSERT_EQ(parse.sections[0].records.size(), 2u);
  // Canonical content order: ts first.
  EXPECT_STREQ(parse.sections[0].records[0].name, "two");
  EXPECT_STREQ(parse.sections[0].records[1].name, "one");
  EXPECT_EQ(parse.sections[0].corrupt_skipped, 0u);
}

TEST(FlightFoldTest, IncidentNowSnapshotsBundleAndReports) {
  FlightRecorder::Options opts;
  opts.dir = core::make_temp_dir("vdap-flight-unit");
  FlightRecorder fr(1, opts);
  fr.set_context(42, "unit-plan", json::Value());
  fr.ring(0).set_time_hint(sim::usec(90));
  telemetry::FlightRing* prev = telemetry::bind_flight(&fr.ring(0));
  telemetry::flight_metric("unit.counter", 3);
  telemetry::bind_flight(prev);

  const FlightRecorder::Bundle* b =
      fr.incident_now(sim::usec(100), "unit-test", "detail");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(fr.triggers_seen(), 1u);
  EXPECT_EQ(b->id, "incident-001-t100");

  // In-memory round trip.
  FlightParse parse = telemetry::parse_flight_rings(b->rings);
  ASSERT_TRUE(parse.ok) << parse.error;
  std::optional<json::Value> manifest = json::try_parse(b->manifest);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->get_string("plan"), "unit-plan");
  EXPECT_EQ(manifest->get_int("seed"), 42);

  // On-disk round trip through the report renderer.
  std::string error;
  const std::string report = telemetry::render_incident_dir(b->dir, &error);
  ASSERT_FALSE(report.empty()) << error;
  EXPECT_NE(report.find("unit-test"), std::string::npos);
  EXPECT_NE(report.find("unit.counter"), std::string::npos);
  std::filesystem::remove_all(opts.dir);
}

// A bundle whose files could not all be written keeps its bytes in memory
// but names no directory: a directory squatting on rings.vfr's path makes
// that write fail.
TEST(FlightFoldTest, FailedBundleWriteReportsNoDir) {
  FlightRecorder::Options opts;
  opts.dir = core::make_temp_dir("vdap-flight-unwritable");
  FlightRecorder fr(1, opts);
  ASSERT_TRUE(std::filesystem::create_directories(
      std::filesystem::path(opts.dir) / "incident-001-t100" / "rings.vfr"));
  const FlightRecorder::Bundle* b = fr.incident_now(sim::usec(100), "unit-test");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->id, "incident-001-t100");
  EXPECT_EQ(b->dir, "");
  EXPECT_FALSE(b->rings.empty());

  // A writable bundle still reports its directory.
  const FlightRecorder::Bundle* ok = fr.incident_now(sim::usec(200), "again");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->dir,
            (std::filesystem::path(opts.dir) / "incident-002-t200").string());
  std::filesystem::remove_all(opts.dir);
}

// A run keeps at most 4 bundles; every trigger still counts.
TEST(FlightFoldTest, MaxBundlesCapsSnapshotsNotTriggerCount) {
  FlightRecorder fr(1);
  for (int i = 1; i <= 7; ++i) {
    fr.incident_now(sim::usec(i * 10), "again");
  }
  EXPECT_EQ(fr.bundles().size(), 4u);
  EXPECT_EQ(fr.triggers_seen(), 7u);
}

TEST(FlightFoldTest, TriggerOverwrittenFallbackStillSnapshots) {
  FlightRecorder fr(1);
  fr.ring(0).set_time_hint(sim::usec(5));
  telemetry::FlightRing* prev = telemetry::bind_flight(&fr.ring(0));
  telemetry::incident("lost-trigger");
  telemetry::bind_flight(prev);
  // One more than the 4096-record scratch ring: the kIncident is lost.
  for (int i = 0; i < 4096; ++i) fr.ring(0).append(rec(6 + i, "noise"));
  ASSERT_EQ(fr.ring(0).overwritten(), 1u);

  fr.fold_barrier(sim::usec(20));
  ASSERT_EQ(fr.bundles().size(), 1u);
  EXPECT_NE(fr.bundles()[0].manifest.find("trigger-overwritten"),
            std::string::npos);
}

// A single simulator's flight ring is bound like any plane: through a
// BindScope, with the ring reading the sim clock. Metrics mirror into it
// with full capture off, and stop when the scope ends.
TEST(SessionFlightTest, AttachFlightMirrorsMetrics) {
  sim::Simulator sim(7);
  FlightRecorder fr(1);
  fr.ring(0).set_clock(sim.now_ptr());
  sim.at(sim::usec(50), [] { telemetry::count("session.flight", 2); });
  {
    telemetry::BindScope bind({nullptr, &fr.ring(0)});
    sim.run_until(sim::usec(100));
  }
  telemetry::count("session.flight", 3);  // unbound: not mirrored

  std::vector<FlightRecord> out;
  fr.ring(0).drain_into(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_STREQ(out[0].name, "session.flight");
  EXPECT_EQ(out[0].ts, 50);
  EXPECT_EQ(out[0].value, 2);
}

// --- fleet-scale sweep ------------------------------------------------------

core::FleetScaleOutcome run_scale(int shards, int threads, bool flight,
                                  bool ingest) {
  core::FleetScaleConfig cfg;
  cfg.vehicles = kSanitized ? 40 : 120;
  cfg.seed = 11;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.run_until = sim::seconds(8);
  cfg.drain = sim::seconds(6);
  cfg.ingest_backend = ingest;
  cfg.flight = flight;
  cfg.flight_incident_at = sim::seconds(5);
  return core::run_fleet_scale(cfg);
}

// A sim-clock-triggered incident bundle is byte-identical across the
// shard × thread matrix — manifest AND rings — and the recorder never
// moves the digest.
TEST(FlightSweepTest, ScaleBundleByteIdenticalAcrossMatrix) {
  const core::FleetScaleOutcome base = run_scale(1, 1, true, true);
  ASSERT_EQ(base.flight_bundles.size(), 1u);
  EXPECT_EQ(base.flight_scratch_dropped, 0u);
  EXPECT_EQ(base.flight_triggers, 1u);
  EXPECT_EQ(base.flight_bundles[0].id, "incident-001-t5000000");

  const core::FleetScaleOutcome plain = run_scale(1, 1, false, true);
  EXPECT_EQ(plain.digest, base.digest) << "flight recorder moved the digest";

  for (const auto& [shards, threads] :
       std::vector<std::pair<int, int>>{{2, 1}, {2, 2}, {8, 2}, {8, 8}}) {
    const core::FleetScaleOutcome out =
        run_scale(shards, threads, true, true);
    SCOPED_TRACE("shards=" + std::to_string(shards) +
                 " threads=" + std::to_string(threads));
    EXPECT_EQ(out.digest, base.digest);
    EXPECT_EQ(out.flight_scratch_dropped, 0u);
    ASSERT_EQ(out.flight_bundles.size(), 1u);
    EXPECT_EQ(out.flight_bundles[0].id, base.flight_bundles[0].id);
    EXPECT_EQ(out.flight_bundles[0].manifest, base.flight_bundles[0].manifest);
    EXPECT_EQ(out.flight_bundles[0].rings, base.flight_bundles[0].rings);
    EXPECT_EQ(out.flight_rings, base.flight_rings);
  }
}

// With capture off, the hosted ingest backend still mirrors its per-epoch
// counters into the always-on ring: telemetry::count() routes to whichever
// of capture and flight is bound, and so does the backend.
TEST(FlightSweepTest, HostedIngestCountersFoldWithCaptureOff) {
  const core::FleetScaleOutcome out = run_scale(2, 2, true, true);
  ASSERT_GT(out.frames_ingested, 0u);
  const FlightParse parse = telemetry::parse_flight_rings(out.flight_rings);
  ASSERT_TRUE(parse.ok) << parse.error;
  std::int64_t records = 0;
  std::int64_t frames = 0;
  for (const telemetry::FlightSection& section : parse.sections) {
    if (section.domain != -1) continue;  // the master ring
    for (const FlightRecord& r : section.records) {
      if (r.kind == (std::uint32_t)FlightKind::kMetric &&
          std::string_view(r.name) == "fleet.ingest.frames") {
        ++records;
        frames += r.value;
      }
    }
  }
  EXPECT_GT(records, 0);
  EXPECT_GT(frames, 0);
  EXPECT_LE(frames, static_cast<std::int64_t>(out.frames_ingested));
}

core::FleetScaleOutcome run_scale_flight(int vehicles, int shards) {
  core::FleetScaleConfig cfg;
  cfg.vehicles = vehicles;
  cfg.seed = 7;
  cfg.shards = shards;
  cfg.threads = shards;
  cfg.flight = true;
  cfg.flight_incident_at = sim::seconds(5);
  return core::run_fleet_scale(cfg);
}

// Each shard's 4,096-slot scratch ring holds one epoch of its vehicles'
// metric mirrors. At the default 1 s flush that is about 1,350 vehicles
// per shard; past it, records are overwritten before the fold, and the
// rings stop being geometry-invariant. README's `--flight` example keeps
// under this bound.
TEST(FlightSweepTest, ScratchRingHoldsAboutThirteenHundredVehiclesPerShard) {
  const core::FleetScaleOutcome one = run_scale_flight(1300, 1);
  const core::FleetScaleOutcome four = run_scale_flight(1300, 4);
  EXPECT_EQ(one.flight_scratch_dropped, 0u);
  EXPECT_EQ(four.flight_scratch_dropped, 0u);
  EXPECT_EQ(four.digest, one.digest);
  EXPECT_EQ(four.flight_rings, one.flight_rings);

  EXPECT_GT(run_scale_flight(1500, 1).flight_scratch_dropped, 0u);
}

// --- full-platform sweep ----------------------------------------------------

core::FleetOutcome run_fleet_flight(int shards, int threads) {
  core::FleetConfig cfg;
  cfg.vehicles = 4;
  cfg.seed = 7;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.dir_tag = "flight-" + std::to_string(shards) + "-" +
                std::to_string(threads);
  cfg.load_until = sim::seconds(60);
  cfg.run_until = sim::seconds(80);
  cfg.drain = sim::seconds(30);
  cfg.flight = true;
  return core::run_fleet(core::fleet_compute_outlier_plan(1), cfg);
}

// The full platform records the entity-partitioned streams (fault edges
// from shard 0's injector, per-vehicle health edges, incidents); bundles
// and the end-of-run rings must be geometry-invariant.
TEST(FlightSweepTest, FleetFaultTriggeredBundleInvariantAcrossMatrix) {
  const core::FleetOutcome base = run_fleet_flight(1, 1);
  // The outlier plan fires 4 slowdown begins at t=40s — each raises a
  // trigger; the barrier after t=40s snapshots one bundle for all of
  // them.
  EXPECT_GE(base.flight_triggers, 4u);
  ASSERT_GE(base.flight_bundles.size(), 1u);
  EXPECT_EQ(base.flight_scratch_dropped, 0u);

  // The bundle's rings hold the fault edges with their targets.
  FlightParse parse =
      telemetry::parse_flight_rings(base.flight_bundles[0].rings);
  ASSERT_TRUE(parse.ok) << parse.error;
  int faults = 0;
  int incidents = 0;
  for (const FlightRecord& r : parse.sections[0].records) {
    if (r.kind == (std::uint32_t)FlightKind::kFault) ++faults;
    if (r.kind == (std::uint32_t)FlightKind::kIncident) ++incidents;
  }
  EXPECT_EQ(faults, 4);
  EXPECT_GE(incidents, 4);

  for (const auto& [shards, threads] :
       std::vector<std::pair<int, int>>{{2, 2}, {4, 2}}) {
    const core::FleetOutcome out = run_fleet_flight(shards, threads);
    SCOPED_TRACE("shards=" + std::to_string(shards) +
                 " threads=" + std::to_string(threads));
    EXPECT_EQ(out.flight_scratch_dropped, 0u);
    EXPECT_EQ(out.flight_triggers, base.flight_triggers);
    ASSERT_EQ(out.flight_bundles.size(), base.flight_bundles.size());
    for (std::size_t i = 0; i < base.flight_bundles.size(); ++i) {
      EXPECT_EQ(out.flight_bundles[i].id, base.flight_bundles[i].id);
      EXPECT_EQ(out.flight_bundles[i].manifest,
                base.flight_bundles[i].manifest);
      EXPECT_EQ(out.flight_bundles[i].rings, base.flight_bundles[i].rings);
    }
    EXPECT_EQ(out.flight_rings, base.flight_rings);
    EXPECT_EQ(out.fault_trace, base.fault_trace);
  }
}

// --- crash dump -------------------------------------------------------------

// Aborting mid-run must still yield a parseable bundle: the fatal-signal
// handler streams the raw rings with only async-signal-safe write()s,
// then re-raises, so the process dies by SIGABRT as usual.
TEST(FlightCrashTest, AbortMidRunYieldsParseableBundle) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A threadsafe death test runs this body again in a child process. The
  // child must write into the fresh directory the parent made and reads
  // back, so the parent names it in the environment the child inherits.
  constexpr const char* kDirEnv = "VDAP_FLIGHT_CRASH_TEST_DIR";
  std::string dir;
  if (const char* inherited = std::getenv(kDirEnv)) {
    dir = inherited;  // the death-test child
  } else {
    dir = (std::filesystem::temp_directory_path() / "vdap-flight-crash-XXXXXX")
              .string();
    ASSERT_NE(mkdtemp(dir.data()), nullptr);
    ASSERT_EQ(setenv(kDirEnv, dir.c_str(), 1), 0);
  }

  auto crash_run = [&dir] {
    core::FleetScaleConfig cfg;
    cfg.vehicles = 20;
    cfg.seed = 3;
    cfg.run_until = sim::seconds(6);
    cfg.drain = sim::seconds(2);
    cfg.flight = true;
    cfg.flight_opts.dir = dir;
    cfg.prepare = [](sim::ShardedSimulator& ssim) {
      // Armed after the recorder got its context, so the crash manifest
      // carries it.
      ssim.planes().flight()->arm_crash_dump();
      ssim.shard(0).at(sim::seconds(3), [] { std::abort(); });
    };
    core::run_fleet_scale(cfg);
  };
  EXPECT_EXIT(crash_run(), ::testing::KilledBySignal(SIGABRT), "");
  unsetenv(kDirEnv);

  // The child's handler streamed a bundle; parse it back in this process.
  std::string error;
  const std::string report =
      telemetry::render_incident_dir(dir + "/incident-crash", &error);
  ASSERT_FALSE(report.empty()) << error;
  EXPECT_NE(report.find("crash"), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
