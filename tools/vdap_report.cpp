// vdap-report: offline trace analytics (DESIGN.md §6d, §6e, §6g, §6h).
//
//   vdap-report <trace.json> [metrics.jsonl]
//   vdap-report --fleet <frames.jsonl> [--query "<expr>"]...
//   vdap-report --shards <shards.jsonl> [--json]
//   vdap-report --incident <incident-dir>
//   vdap-report --profile <profile.jsonl> [--diff <baseline.jsonl>]
//
// Trace mode reads a chrome_trace_json() capture (and optionally its
// metrics.jsonl: metrics_snapshot_json() lines, of which the runners write
// one, at the end of the run), then prints:
//   1. the per-service critical-path table — each run's latency decomposed
//      by interval sweep into exclusive queue/net/compute/failover/slack
//      segments (see telemetry/analysis/critical_path.hpp);
//   2. the health-timeline table — every closed-loop HealthController
//      instant (breaches, tier demotions with the blaming services, and
//      restores), i.e. when and why the loop acted;
//   3. the SLO-compliance table — the Table I targets replayed over the
//      extracted runs through the streaming evaluator;
//   4. with a metrics file, the final snapshot's counters and histogram
//      digests.
//
// Fleet mode replays a stream of TelemetryShipper wire frames (e.g.
// FleetOutcome::frames_jsonl) through the sharded columnar ingest
// backend and prints the cross-vehicle rollup, anomaly and per-vehicle
// transport tables, then one table per --query expression (the DDI-style
// range / near grammar of telemetry/fleet/query.hpp).
//
// Shards mode renders a runtime-plane shard report (the shards.jsonl a
// sharded run always emits — see telemetry/shard_report.hpp): per-shard
// busy/wait time, queue/wheel/overflow peaks, ingest backlog and lag
// watermarks, block-pool hit rate, plus a judgement column (imbalanced /
// overflow / backpressure / decode-errors / ok). Unlike the other modes
// this input is wall-clock derived, so it is diagnostic, not part of the
// byte-identity contract.
//
// Incident mode renders a flight-recorder bundle (DESIGN.md §6i): the
// manifest context, per-kind record counts, a blame table built from the
// recorded health-edge tier attributions and fault targets, and the full
// merged timeline. Works on both orderly (barrier-snapshotted) and crash
// (signal-handler-streamed) bundles.
//
// Profile mode renders a continuous-profiling artifact (DESIGN.md §6j —
// the profile.jsonl a sampled run emits next to shards.jsonl): the top-N
// frames by self samples with self/total shares. With --diff it renders
// the per-frame self-share delta between a candidate and a baseline
// profile instead — the table that names the code region a bench-gate
// wall regression landed in. Wall-clock sampled, diagnostic only.
//
// Any unknown flag, or a flag missing its argument, prints the usage
// line to stderr and exits 2.
//
// Output is a pure function of the input files, so for a fixed
// (seed, fault plan) capture the tables are byte-identical across runs —
// the analysis and fleet suites assert this.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <vector>

#include "telemetry/analysis/critical_path.hpp"
#include "telemetry/analysis/slo.hpp"
#include "telemetry/fleet/ingest.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/prof/report.hpp"
#include "telemetry/shard_report.hpp"
#include "util/stats.hpp"

namespace {

namespace analysis = vdap::telemetry::analysis;

int usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: vdap-report <trace.json> [metrics.jsonl]\n"
      "       vdap-report --fleet <frames.jsonl> [--query \"<expr>\"]...\n"
      "       vdap-report --shards <shards.jsonl> [--json]\n"
      "       vdap-report --incident <incident-dir>\n"
      "       vdap-report --profile <profile.jsonl> [--diff <baseline>]\n"
      "\n"
      "modes:\n"
      "  <trace.json> [metrics.jsonl]   critical-path, health-timeline and\n"
      "                                 SLO tables from a chrome trace\n"
      "  --fleet <frames.jsonl>         replay wire frames through the\n"
      "                                 ingest backend; --query runs DDI-\n"
      "                                 style expressions against it\n"
      "  --shards <shards.jsonl>        runtime-plane shard report with\n"
      "                                 per-shard judgements; --json emits\n"
      "                                 judged rows as JSONL instead\n"
      "  --incident <incident-dir>      blame-annotated timeline of a\n"
      "                                 flight-recorder incident bundle\n"
      "  --profile <profile.jsonl>      top frames by sampled self time;\n"
      "                                 --diff renders the per-frame delta\n"
      "                                 against a baseline profile\n");
  return to == stdout ? 0 : 2;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

/// Non-"on-board" tier with the most exclusive time; "on-board" if none.
std::string implicated_tier(const analysis::RunCriticalPath& run) {
  std::string best = "on-board";
  vdap::sim::SimDuration top = -1;
  for (const auto& [tier, d] : run.tier_time) {
    if (tier != "on-board" && d > top) {
      top = d;
      best = tier;
    }
  }
  return best;
}

/// Replays the extracted runs through the SLO evaluator (Table I targets).
std::string slo_table(const analysis::CriticalPathReport& report) {
  analysis::SloEvaluator evaluator;
  for (analysis::SloTarget& t : analysis::standard_slos()) {
    evaluator.add_target(std::move(t));
  }
  vdap::sim::SimTime last = 0;
  for (const analysis::RunCriticalPath& run : report.runs) {
    analysis::RunObservation obs;
    obs.service = run.service;
    obs.finished = run.finished;
    obs.latency = run.latency();
    obs.ok = run.ok;
    obs.dominant_segment = std::string(run.segments.dominant());
    obs.implicated_tier = implicated_tier(run);
    evaluator.observe(obs);
    last = std::max(last, run.finished);
  }
  evaluator.flush(last);
  return evaluator.compliance_table();
}

/// The closed-loop health timeline: every HealthController instant on the
/// "health" track, in trace order. The "detail" column carries the event's
/// most useful argument — the breaching service, or for penalize/restore
/// the services blaming the tier (why the loop acted).
std::string health_timeline(const std::vector<vdap::telemetry::TraceEvent>& events,
                            const std::vector<std::string>& tracks) {
  vdap::util::TextTable t("health timeline (closed-loop actions)");
  t.set_header({"t(s)", "event", "tier", "detail"});
  std::size_t rows = 0;
  for (const vdap::telemetry::TraceEvent& ev : events) {
    if (ev.ph != 'i' || ev.cat != "health") continue;
    if (ev.tid >= tracks.size() || tracks[ev.tid] != "health") continue;
    const vdap::json::Value wrapper{ev.args_object()};
    std::string tier = wrapper.get_string("tier");
    std::string detail;
    if (ev.name == "health.penalize" || ev.name == "health.restore") {
      detail = "services=" + wrapper.get_string("services");
      if (ev.name == "health.penalize") {
        detail += " factor=" +
                  vdap::util::TextTable::num(wrapper.get_double("factor"), 2);
      }
    } else {
      detail = wrapper.get_string("service");
      if (const vdap::json::Value* observed = wrapper.find("observed")) {
        detail += " observed=" +
                  vdap::util::TextTable::num(observed->as_double(), 3);
      }
    }
    t.add_row({vdap::util::TextTable::num(vdap::sim::to_seconds(ev.ts), 3),
               ev.name, tier.empty() ? "-" : tier, detail});
    ++rows;
  }
  return rows > 0 ? t.to_string() : std::string();
}

/// Fleet mode: replay a wire-frame JSONL stream through the sharded
/// columnar ingest backend, then run any --query expressions against it.
int print_fleet(const std::string& text,
                const std::vector<std::string>& queries) {
  vdap::telemetry::fleet::ShardedIngestBackend backend;
  std::istringstream lines(text);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++n;
    std::string error;
    if (!backend.ingest_line(line, &error)) {
      if (!error.empty()) {
        std::fprintf(stderr, "vdap-report: frame %zu: %s\n", n, error.c_str());
      }
      // Duplicates and decode errors are both tolerated — that is the
      // backend's job — but decode errors are reported above.
    }
    // A barrier per line keeps the replay's detection cadence as fine as
    // the stream itself (the watermark only moves when frames do).
    backend.barrier();
  }
  if (n == 0) {
    std::fprintf(stderr, "vdap-report: no frames\n");
    return 1;
  }
  std::fputs(backend.rollup_table().c_str(), stdout);
  std::fputs(backend.anomaly_table().c_str(), stdout);
  std::fputs(backend.vehicle_table().c_str(), stdout);
  bool query_error = false;
  for (const std::string& q : queries) {
    std::string error;
    const std::string table = backend.run_query_text(q, &error);
    if (table.empty()) {
      std::fprintf(stderr, "vdap-report: %s\n", error.c_str());
      query_error = true;
      continue;
    }
    std::fputs(table.c_str(), stdout);
  }
  return backend.decode_errors() > 0 || query_error ? 1 : 0;
}

/// Renders the last JSONL metrics snapshot (counters + histogram digests).
int print_metrics(const std::string& text) {
  std::optional<vdap::json::Value> last;
  std::istringstream lines(text);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::optional<vdap::json::Value> v = vdap::json::try_parse(line);
    if (!v.has_value()) {
      std::fprintf(stderr, "vdap-report: bad JSONL line %zu\n", n + 1);
      return 1;
    }
    last = std::move(v);
    ++n;
  }
  if (!last.has_value()) return 0;

  vdap::util::TextTable counters("final counters (t=" +
                                 std::to_string(last->get_int("t")) + " us, " +
                                 std::to_string(n) + " snapshots)");
  counters.set_header({"counter", "value"});
  if (const vdap::json::Value* c = last->find("counters");
      c != nullptr && c->is_object()) {
    for (const auto& [name, v] : c->as_object()) {
      counters.add_row({name, std::to_string(v.as_int())});
    }
  }
  std::fputs(counters.to_string().c_str(), stdout);

  vdap::util::TextTable hists("final histograms");
  hists.set_header({"histogram", "count", "mean", "p50", "p95", "p99"});
  if (const vdap::json::Value* h = last->find("histograms");
      h != nullptr && h->is_object()) {
    for (const auto& [name, digest] : h->as_object()) {
      hists.add_row({name, std::to_string(digest.get_int("count")),
                     vdap::util::TextTable::num(digest.get_double("mean"), 3),
                     vdap::util::TextTable::num(digest.get_double("p50"), 3),
                     vdap::util::TextTable::num(digest.get_double("p95"), 3),
                     vdap::util::TextTable::num(digest.get_double("p99"), 3)});
    }
  }
  std::fputs(hists.to_string().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc >= 2 ? argv[1] : "";
  if (mode == "--help" || mode == "-h") return usage(stdout);
  if (mode == "--fleet") {
    if (argc < 3) return usage(stderr);  // missing <frames.jsonl>
    std::vector<std::string> queries;
    for (int i = 3; i < argc; i += 2) {
      if (std::string(argv[i]) != "--query" || i + 1 >= argc) {
        return usage(stderr);  // unknown flag or --query without an expr
      }
      queries.emplace_back(argv[i + 1]);
    }
    std::string frames_text;
    if (!read_file(argv[2], &frames_text)) {
      std::fprintf(stderr, "vdap-report: cannot read %s\n", argv[2]);
      return 1;
    }
    return print_fleet(frames_text, queries);
  }
  if (mode == "--incident") {
    if (argc != 3) return usage(stderr);  // missing (or extra) <incident-dir>
    std::string error;
    const std::string report =
        vdap::telemetry::render_incident_dir(argv[2], &error);
    if (report.empty()) {
      std::fprintf(stderr, "vdap-report: %s\n", error.c_str());
      return 1;
    }
    std::fputs(report.c_str(), stdout);
    return 0;
  }
  if (mode == "--shards") {
    // <shards.jsonl> plus an optional --json; anything else is usage.
    if (argc != 3 && argc != 4) return usage(stderr);
    const bool as_json = argc == 4;
    if (as_json && std::string(argv[3]) != "--json") return usage(stderr);
    std::string text;
    if (!read_file(argv[2], &text)) {
      std::fprintf(stderr, "vdap-report: cannot read %s\n", argv[2]);
      return 1;
    }
    std::vector<vdap::telemetry::ShardRuntimeRow> rows;
    std::string error;
    if (!vdap::telemetry::parse_shards_report(text, &rows, &error)) {
      std::fprintf(stderr, "vdap-report: %s: %s\n", argv[2], error.c_str());
      return 1;
    }
    if (as_json) {
      std::fputs(vdap::telemetry::shards_report_judged_jsonl(rows).c_str(),
                 stdout);
    } else {
      std::fputs(vdap::telemetry::shards_report_table(rows).c_str(), stdout);
    }
    return 0;
  }
  if (mode == "--profile") {
    // <profile.jsonl> plus an optional --diff <baseline>; anything else
    // is usage.
    if (argc != 3 && argc != 5) return usage(stderr);
    const bool diff = argc == 5;
    if (diff && std::string(argv[3]) != "--diff") return usage(stderr);
    std::string text;
    if (!read_file(argv[2], &text)) {
      std::fprintf(stderr, "vdap-report: cannot read %s\n", argv[2]);
      return 1;
    }
    vdap::telemetry::prof::ProfileData cand;
    std::string error;
    if (!vdap::telemetry::prof::parse_profile_jsonl(text, &cand, &error)) {
      std::fprintf(stderr, "vdap-report: %s: %s\n", argv[2], error.c_str());
      return 1;
    }
    if (diff) {
      std::string base_text;
      if (!read_file(argv[4], &base_text)) {
        std::fprintf(stderr, "vdap-report: cannot read %s\n", argv[4]);
        return 1;
      }
      vdap::telemetry::prof::ProfileData base;
      if (!vdap::telemetry::prof::parse_profile_jsonl(base_text, &base,
                                                      &error)) {
        std::fprintf(stderr, "vdap-report: %s: %s\n", argv[4], error.c_str());
        return 1;
      }
      std::fputs(
          vdap::telemetry::prof::profile_diff_table(base, cand).c_str(),
          stdout);
    } else {
      std::fputs(vdap::telemetry::prof::profile_table(cand).c_str(), stdout);
    }
    return 0;
  }
  // Trace mode takes 1-2 positional paths; any flag here is unknown.
  if (argc < 2 || argc > 3 || mode[0] == '-') return usage(stderr);
  std::string trace_text;
  if (!read_file(argv[1], &trace_text)) {
    std::fprintf(stderr, "vdap-report: cannot read %s\n", argv[1]);
    return 1;
  }
  std::vector<vdap::telemetry::TraceEvent> events;
  std::vector<std::string> tracks;
  std::string error;
  if (!analysis::parse_chrome_trace(trace_text, &events, &tracks, &error)) {
    std::fprintf(stderr, "vdap-report: %s: %s\n", argv[1], error.c_str());
    return 1;
  }
  analysis::CriticalPathReport report =
      analysis::extract_critical_paths(events, tracks);
  std::fputs(analysis::critical_path_table(report).c_str(), stdout);
  std::fputs(health_timeline(events, tracks).c_str(), stdout);
  std::fputs(slo_table(report).c_str(), stdout);

  if (argc == 3) {
    std::string metrics_text;
    if (!read_file(argv[2], &metrics_text)) {
      std::fprintf(stderr, "vdap-report: cannot read %s\n", argv[2]);
      return 1;
    }
    return print_metrics(metrics_text);
  }
  return 0;
}
