// Trace analytics (telemetry/analysis): critical-path extraction over real
// chaos captures, the chrome-trace parse-back, and the determinism the
// vdap-report tables inherit from the capture contract (byte-identical for
// a fixed (seed, fault plan)).
#include <gtest/gtest.h>

#include "chaos_harness.hpp"
#include "telemetry/analysis/critical_path.hpp"
#include "telemetry/analysis/slo.hpp"

namespace vdap {
namespace {

namespace analysis = telemetry::analysis;
using chaos::ChaosOutcome;
using chaos::run_chaos;

analysis::CriticalPathReport report_from_json(const std::string& trace_json) {
  std::vector<telemetry::TraceEvent> events;
  std::vector<std::string> tracks;
  std::string error;
  EXPECT_TRUE(
      analysis::parse_chrome_trace(trace_json, &events, &tracks, &error))
      << error;
  return analysis::extract_critical_paths(events, tracks);
}

TEST(ParseChromeTrace, RoundTripsTracksAndEvents) {
  telemetry::Tracer tracer;
  tracer.complete(100, 50, "segment", "net", "elastic/segments",
                  telemetry::TraceArgs().add("run", 7));
  std::uint64_t id = tracer.begin(10, "service", "svc", "elastic");
  tracer.end(400, id);
  tracer.instant(5, "cat", "point", "other");
  tracer.counter(6, "other", "depth", 2.5);

  std::vector<telemetry::TraceEvent> events;
  std::vector<std::string> tracks;
  std::string error;
  ASSERT_TRUE(analysis::parse_chrome_trace(telemetry::chrome_trace_json(tracer),
                                           &events, &tracks, &error))
      << error;
  ASSERT_EQ(tracks.size(), tracer.tracks().size());
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    EXPECT_EQ(tracks[i], tracer.tracks()[i]);
  }
  ASSERT_EQ(events.size(), tracer.events().size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const telemetry::TraceEvent& a = tracer.events()[i];
    const telemetry::TraceEvent& b = events[i];
    EXPECT_EQ(a.ph, b.ph);
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_EQ(a.dur, b.dur);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.tid, b.tid);
    EXPECT_EQ(a.cat, b.cat);
    EXPECT_EQ(a.name, b.name);
  }
}

TEST(ParseChromeTrace, RejectsMalformedInput) {
  std::vector<telemetry::TraceEvent> events;
  std::vector<std::string> tracks;
  std::string error;
  EXPECT_FALSE(analysis::parse_chrome_trace("{not json", &events, &tracks,
                                            &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(analysis::parse_chrome_trace("{}", &events, &tracks, &error));
  EXPECT_FALSE(
      analysis::parse_chrome_trace(R"({"traceEvents": 3})", &events, &tracks,
                                   &error));
}

TEST(CriticalPath, ExclusiveSegmentsPartitionEveryRunLatency) {
  ChaosOutcome out = run_chaos(sim::plans::flaky_rsu(), 21, "cp-partition");
  analysis::CriticalPathReport report = report_from_json(out.trace_json);

  // Every reported run appears in the trace-derived report.
  ASSERT_GT(report.runs.size(), 0u);
  EXPECT_EQ(report.runs.size(), out.reports);

  for (const analysis::RunCriticalPath& run : report.runs) {
    EXPECT_EQ(run.segments.total(), run.latency())
        << "run " << run.run_id << " (" << run.service << ")";
    // Tier attribution covers exactly the non-slack time.
    sim::SimDuration tier_sum = 0;
    for (const auto& [tier, d] : run.tier_time) tier_sum += d;
    EXPECT_EQ(tier_sum, run.latency() - run.segments.slack);
  }

  // Offloaded pipelines spent wall time on the wire; and whenever the run
  // actually took a failover, the decomposition must charge it.
  sim::SimDuration net = 0, failover = 0;
  int failovers_taken = 0;
  for (const analysis::RunCriticalPath& run : report.runs) {
    net += run.segments.network;
    failover += run.segments.failover;
    failovers_taken += run.failovers;
  }
  EXPECT_GT(net, 0);
  if (failovers_taken > 0) EXPECT_GT(failover, 0);
}

TEST(CriticalPath, InMemoryAndParsedExtractionsAgree) {
  sim::Simulator sim(5);
  telemetry::Domain domain;
  telemetry::BindScope bind({&domain});
  core::OpenVdap car(sim);
  car.install_standard_services();
  for (int i = 0; i < 8; ++i) {
    sim.at(sim::seconds(1 + i), [&] { car.run_service("lane-detection"); });
  }
  sim.run_until(sim::minutes(1));

  analysis::CriticalPathReport direct =
      analysis::extract_critical_paths(telemetry::tracer());
  analysis::CriticalPathReport parsed =
      report_from_json(telemetry::chrome_trace_json(domain.tracer()));
  EXPECT_EQ(analysis::critical_path_table(direct),
            analysis::critical_path_table(parsed));
  ASSERT_EQ(direct.runs.size(), 8u);
  for (const analysis::RunCriticalPath& run : direct.runs) {
    EXPECT_TRUE(run.ok);
    EXPECT_GT(run.segments.compute, 0);
  }
}

// The vdap-report acceptance bar: for a fixed (seed, plan), the critical-
// path and SLO tables are byte-identical across runs.
TEST(CriticalPath, TablesAreByteIdenticalAcrossReplays) {
  ChaosOutcome a = run_chaos(sim::plans::rolling_chaos(), 33, "cp-det-a");
  ChaosOutcome b = run_chaos(sim::plans::rolling_chaos(), 33, "cp-det-b");
  ASSERT_EQ(a.trace_json, b.trace_json);

  analysis::CriticalPathReport ra = report_from_json(a.trace_json);
  analysis::CriticalPathReport rb = report_from_json(b.trace_json);
  std::string table_a = analysis::critical_path_table(ra);
  EXPECT_EQ(table_a, analysis::critical_path_table(rb));
  EXPECT_NE(table_a.find("lane-detection"), std::string::npos);

  auto slo_replay = [](const analysis::CriticalPathReport& report) {
    analysis::SloEvaluator ev;
    for (analysis::SloTarget& t : analysis::standard_slos()) {
      ev.add_target(std::move(t));
    }
    sim::SimTime last = 0;
    for (const analysis::RunCriticalPath& run : report.runs) {
      analysis::RunObservation obs;
      obs.service = run.service;
      obs.finished = run.finished;
      obs.latency = run.latency();
      obs.ok = run.ok;
      obs.dominant_segment = std::string(run.segments.dominant());
      ev.observe(obs);
      last = std::max(last, run.finished);
    }
    ev.flush(last);
    return ev.compliance_table();
  };
  std::string slo_a = slo_replay(ra);
  EXPECT_EQ(slo_a, slo_replay(rb));
  EXPECT_NE(slo_a.find("SLO compliance"), std::string::npos);
}

TEST(CriticalPath, DominantPicksLargestBucket) {
  analysis::ExclusiveSegments s;
  EXPECT_EQ(s.dominant(), "compute");
  s.queue = 10;
  EXPECT_EQ(s.dominant(), "queue");
  s.network = 20;
  EXPECT_EQ(s.dominant(), "net");
  s.failover = 30;
  EXPECT_EQ(s.dominant(), "failover");
  s.compute = 40;
  EXPECT_EQ(s.dominant(), "compute");
}

}  // namespace
}  // namespace vdap
