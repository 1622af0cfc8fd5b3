// Unit tests for the telemetry subsystem: tracer span bookkeeping, labeled
// metric canonicalization, registry merge/reset, the Chrome-trace and
// snapshot exporters (parsed back through util::json), and the Session
// scoping rules.
#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "telemetry/export.hpp"
#include "telemetry/session.hpp"

namespace vdap::telemetry {
namespace {

// Every test records into a fresh domain bound for its duration.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { prev_ = bind_domain(&domain_); }
  void TearDown() override { bind_domain(prev_); }

  Domain domain_;
  Domain* prev_ = nullptr;
};

TEST_F(TelemetryTest, DisabledByDefaultOutsideASession) {
  bind_domain(nullptr);
  EXPECT_FALSE(on());
  // Guarded helpers are no-ops when off.
  count("x");
  observe("y", 1.0);
  gauge("z", 2.0);
  EXPECT_EQ(domain_.metrics().counter_value("x"), 0);
  EXPECT_EQ(domain_.metrics().histogram("y"), nullptr);
  EXPECT_DOUBLE_EQ(domain_.metrics().gauge_value("z"), 0.0);
}

TEST_F(TelemetryTest, TrackInterningIsStable) {
  Tracer t;
  std::uint32_t a = t.track("dsf");
  std::uint32_t b = t.track("net/cloud");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(t.track("dsf"), a);  // re-interning returns the same index
  ASSERT_EQ(t.tracks().size(), 2u);
  EXPECT_EQ(t.tracks()[0], "dsf");
  EXPECT_EQ(t.tracks()[1], "net/cloud");
}

TEST_F(TelemetryTest, BeginEndBalancesOpenSpans) {
  Tracer t;
  std::uint64_t s1 = t.begin(100, "task", "run-1", "dsf");
  std::uint64_t s2 = t.begin(150, "task", "run-2", "dsf");
  EXPECT_NE(s1, 0u);
  EXPECT_NE(s2, s1);
  EXPECT_EQ(t.open_spans(), 2u);
  t.end(200, s1);
  EXPECT_EQ(t.open_spans(), 1u);
  t.end(250, s2);
  EXPECT_EQ(t.open_spans(), 0u);
  ASSERT_EQ(t.events().size(), 4u);
  EXPECT_EQ(t.events()[0].ph, 'b');
  EXPECT_EQ(t.events()[2].ph, 'e');
  EXPECT_EQ(t.events()[2].id, s1);
}

TEST_F(TelemetryTest, EndIgnoresUnknownAndZeroIds) {
  Tracer t;
  t.end(10, 0);     // begin() recorded while telemetry was off
  t.end(10, 999);   // never opened
  std::uint64_t s = t.begin(10, "c", "n", "trk");
  t.end(20, s);
  t.end(30, s);     // double close
  EXPECT_EQ(t.open_spans(), 0u);
  EXPECT_EQ(t.events().size(), 2u);  // only the real begin/end pair
}

TEST_F(TelemetryTest, CompleteInstantCounterShapes) {
  Tracer t;
  t.complete(100, 50, "net", "xfer", "net/lte-up");
  t.instant(200, "offload", "decide", "offload");
  t.counter(300, "net/cellular", "bw", 0.25);
  ASSERT_EQ(t.events().size(), 3u);
  EXPECT_EQ(t.events()[0].ph, 'X');
  EXPECT_EQ(t.events()[0].dur, 50);
  EXPECT_EQ(t.events()[1].ph, 'i');
  EXPECT_EQ(t.events()[2].ph, 'C');
  EXPECT_DOUBLE_EQ(t.events()[2].args.at("value").as_double(), 0.25);
}

TEST_F(TelemetryTest, LabeledKeysAreCanonical) {
  // Keys sort, so insertion order doesn't matter.
  EXPECT_EQ(labeled("net.bytes", {{"link", "lte-up"}}),
            "net.bytes{link=lte-up}");
  EXPECT_EQ(labeled("m", {{"b", "2"}, {"a", "1"}}), "m{a=1,b=2}");
  EXPECT_EQ(labeled("m", {}), "m");
}

TEST_F(TelemetryTest, RegistryCountersGaugesHistograms) {
  MetricsRegistry r;
  r.inc("a");
  r.inc("a", 4);
  r.inc("b", {{"k", "v"}}, 2);
  r.set_gauge("g", 1.5);
  r.observe("h", 10.0);
  r.observe("h", 20.0);
  EXPECT_EQ(r.counter_value("a"), 5);
  EXPECT_EQ(r.counter_value("b{k=v}"), 2);
  EXPECT_DOUBLE_EQ(r.gauge_value("g"), 1.5);
  ASSERT_NE(r.histogram("h"), nullptr);
  EXPECT_EQ(r.histogram("h")->count(), 2u);
  EXPECT_DOUBLE_EQ(r.histogram("h")->mean(), 15.0);
  // Registry-created histograms carry the soak-safety cap.
  EXPECT_EQ(r.histogram("h")->sample_cap(),
            MetricsRegistry::kHistogramSampleCap);
}

TEST_F(TelemetryTest, RegistryMergeAndReset) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.inc("c", 1);
  b.inc("c", 2);
  b.inc("only-b");
  a.set_gauge("g", 1.0);
  b.set_gauge("g", 2.0);  // last writer wins on merge
  a.observe("h", 1.0);
  b.observe("h", 3.0);
  a.merge(b);
  EXPECT_EQ(a.counter_value("c"), 3);
  EXPECT_EQ(a.counter_value("only-b"), 1);
  EXPECT_DOUBLE_EQ(a.gauge_value("g"), 2.0);
  EXPECT_EQ(a.histogram("h")->count(), 2u);
  EXPECT_DOUBLE_EQ(a.histogram("h")->mean(), 2.0);
  a.reset();
  EXPECT_EQ(a.counter_value("c"), 0);
  EXPECT_TRUE(a.gauges().empty());
  EXPECT_TRUE(a.histograms().empty());
}

TEST_F(TelemetryTest, ScopedSpanClosesOnScopeExit) {
  {
    ScopedSpan span(10, "cat", "scoped", "trk");
    EXPECT_EQ(tracer().open_spans(), 1u);
    span.close_at(50);
  }
  EXPECT_EQ(tracer().open_spans(), 0u);
  ASSERT_EQ(tracer().events().size(), 2u);
  EXPECT_EQ(tracer().events()[1].ts, 50);
}

// --- exporters -------------------------------------------------------------

TEST_F(TelemetryTest, ChromeTraceJsonRoundTrips) {
  Tracer t;
  json::Object args;
  args["bytes"] = 1234;
  t.complete(1000, 500, "net", "xfer", "net/lte-up", std::move(args));
  std::uint64_t s = t.begin(2000, "task", "run", "dsf");
  t.instant(2500, "offload", "decide", "offload");
  t.end(3000, s);

  std::string doc = chrome_trace_json(t);
  json::Value v = json::parse(doc);  // throws on malformed output
  EXPECT_EQ(v.at("displayTimeUnit").as_string(), "ms");
  const json::Array& evs = v.at("traceEvents").as_array();
  // 3 thread_name metadata records + 4 events.
  ASSERT_EQ(evs.size(), 7u);
  EXPECT_EQ(evs[0].at("ph").as_string(), "M");
  EXPECT_EQ(evs[0].at("args").at("name").as_string(), "net/lte-up");
  const json::Value& x = evs[3];
  EXPECT_EQ(x.at("ph").as_string(), "X");
  EXPECT_EQ(x.at("ts").as_int(), 1000);
  EXPECT_EQ(x.at("dur").as_int(), 500);
  EXPECT_EQ(x.at("args").at("bytes").as_int(), 1234);
  const json::Value& b = evs[4];
  EXPECT_EQ(b.at("ph").as_string(), "b");
  EXPECT_EQ(b.at("id").as_string(), evs[6].at("id").as_string());
  EXPECT_EQ(evs[5].at("ph").as_string(), "i");
  EXPECT_EQ(evs[5].at("s").as_string(), "t");

  // Identical event sequences export byte-identically.
  EXPECT_EQ(doc, chrome_trace_json(t));
}

TEST_F(TelemetryTest, MetricsSnapshotJsonShape) {
  MetricsRegistry r;
  r.inc("dsf.completed", 7);
  r.set_gauge("ddi.staged", 42.0);
  for (int i = 1; i <= 100; ++i) r.observe("lat", i);

  json::Value v = json::parse(metrics_snapshot_json(r, 123456).dump());
  EXPECT_EQ(v.at("t").as_int(), 123456);
  EXPECT_EQ(v.at("counters").at("dsf.completed").as_int(), 7);
  EXPECT_DOUBLE_EQ(v.at("gauges").at("ddi.staged").as_double(), 42.0);
  const json::Value& h = v.at("histograms").at("lat");
  EXPECT_EQ(h.at("count").as_int(), 100);
  EXPECT_DOUBLE_EQ(h.at("mean").as_double(), 50.5);
  EXPECT_DOUBLE_EQ(h.at("min").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(h.at("max").as_double(), 100.0);
  EXPECT_NEAR(h.at("p95").as_double(), 95.0, 1.0);
  // Top-level field order is fixed by the ordered json::Object.
  std::string doc = metrics_snapshot_json(r, 123456).dump();
  EXPECT_LT(doc.find("\"counters\""), doc.find("\"gauges\""));
  EXPECT_LT(doc.find("\"gauges\""), doc.find("\"histograms\""));
}

TEST_F(TelemetryTest, TextReportListsEveryFamily) {
  MetricsRegistry r;
  r.inc("boots");
  r.set_gauge("bw", 0.5);
  r.observe("lat", 3.0);
  std::string rep = metrics_text_report(r);
  EXPECT_NE(rep.find("telemetry counters"), std::string::npos);
  EXPECT_NE(rep.find("telemetry gauges"), std::string::npos);
  EXPECT_NE(rep.find("telemetry histograms"), std::string::npos);
  EXPECT_NE(rep.find("boots"), std::string::npos);
  // Empty registry => empty report, not empty tables.
  EXPECT_TRUE(metrics_text_report(MetricsRegistry{}).empty());
}

// --- Session ---------------------------------------------------------------

TEST(TelemetrySession, EnablesForItsScopeOnly) {
  ASSERT_FALSE(on());
  sim::Simulator sim(1);
  {
    Session session(sim);
    EXPECT_TRUE(on());
    count("x");
    EXPECT_EQ(metrics().counter_value("x"), 1);
  }
  EXPECT_FALSE(on());
}

TEST(TelemetrySession, SecondConcurrentSessionThrows) {
  sim::Simulator sim(1);
  Session session(sim);
  EXPECT_THROW(Session{sim}, std::logic_error);
  // Sequential sessions are fine, and each starts clean.
}

TEST(TelemetrySession, FreshSessionResetsPriorCapture) {
  sim::Simulator sim(1);
  {
    Session session(sim);
    count("left-over");
    tracer().begin(0, "c", "n", "trk");
  }
  Session session(sim);
  EXPECT_EQ(metrics().counter_value("left-over"), 0);
  EXPECT_EQ(session.open_spans(), 0u);
}

TEST(TelemetrySession, PeriodicSnapshotsRideTheSimClock) {
  sim::Simulator sim(7);
  Session session(sim);
  session.start_snapshots(sim::seconds(10));
  sim.every(sim::seconds(1), []() { count("tick"); });
  sim.run_until(sim::seconds(35));
  ASSERT_EQ(session.snapshot_lines().size(), 3u);  // t=10,20,30
  json::Value first = json::parse(session.snapshot_lines()[0]);
  json::Value last = json::parse(session.snapshot_lines()[2]);
  EXPECT_EQ(first.at("t").as_int(), sim::seconds(10));
  EXPECT_EQ(last.at("t").as_int(), sim::seconds(30));
  EXPECT_EQ(first.at("counters").at("tick").as_int(), 10);
  EXPECT_EQ(last.at("counters").at("tick").as_int(), 30);
  // JSONL assembly: one line per snapshot.
  std::string jsonl = session.snapshots_jsonl();
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 3);
  session.stop_snapshots();
  sim.run_until(sim::seconds(60));
  EXPECT_EQ(session.snapshot_lines().size(), 3u);
}

}  // namespace
}  // namespace vdap::telemetry
