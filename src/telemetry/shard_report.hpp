// Runtime introspection of the sharded hot path, one row per worker shard
// (DESIGN.md §6h). These rows come from the *runtime plane*: wall-clock
// busy/wait split at the epoch barriers, event-queue occupancy peaks, and
// the hosted-ingest shard's lag/backpressure/pool counters. They are
// diagnostic, not deterministic — the byte-identity contract covers only
// the capture plane (domains.hpp), never this report.
//
// The JSONL form is the interchange format: run_fleet_scale emits it,
// bench_obs writes it next to the trace artifact, and `vdap-report
// --shards` parses it back and renders the table with a per-shard
// judgement from analysis::judge_shard_runtime.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vdap::telemetry {

struct ShardRuntimeRow {
  int shard = 0;
  std::uint64_t epochs = 0;
  std::uint64_t events = 0;     // sim events fired by this shard
  double busy_s = 0.0;          // wall-clock seconds inside epoch work
  double wait_s = 0.0;          // wall-clock seconds stalled at barriers
  std::uint64_t queue_peak = 0;     // live pending events, peak
  std::uint64_t wheel_peak = 0;     // calendar-wheel physical entries, peak
  std::uint64_t overflow_peak = 0;  // overflow-heap entries, peak
  // Hosted-ingest plane; all zero when no ingest backend rode the shards.
  std::uint64_t frames = 0;
  std::uint64_t samples = 0;
  std::uint64_t ring_late = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t backlog_peak = 0;  // frames decoded between two barriers, peak
  std::int64_t lag_us_peak = 0;    // merged watermark - shard watermark, peak
  std::uint64_t pool_hits = 0;     // block-pool column+buffer reuses
  std::uint64_t pool_misses = 0;   // block-pool column+buffer fresh allocs
  std::uint64_t pool_free = 0;     // block-pool free-list occupancy at end
  // Flight-recorder plane; all zero when no recorder rode the shards.
  std::uint64_t flight_records = 0;  // records this shard's scratch ring saw
  std::uint64_t flight_dropped = 0;  // records lost to fold-lag overwrites
};

/// One JSON object per shard, one line per object.
std::string shards_report_jsonl(const std::vector<ShardRuntimeRow>& rows);

/// Like shards_report_jsonl, plus a "judgement" key per row carrying
/// analysis::judge_shard_runtime's verdict — the machine-readable form of
/// the --shards table (`vdap-report --shards --json`). Key order is the
/// std::map serialization order, stable across runs.
std::string shards_report_judged_jsonl(const std::vector<ShardRuntimeRow>& rows);

/// Parses shards_report_jsonl output. Returns false (with *error set) on
/// malformed input; unknown keys are ignored for forward compatibility.
bool parse_shards_report(std::string_view text,
                         std::vector<ShardRuntimeRow>* rows,
                         std::string* error);

/// The table `vdap-report --shards` prints: one row per shard plus the
/// judgement column from analysis::judge_shard_runtime.
std::string shards_report_table(const std::vector<ShardRuntimeRow>& rows);

}  // namespace vdap::telemetry

namespace vdap::telemetry::analysis {

/// Runtime-plane judgement for one shard row: "ok", or a comma-joined list
/// drawn from "imbalanced" (>25% of the shard's wall time spent waiting at
/// barriers, once the run is long enough to judge), "overflow" (events
/// spilled past the calendar horizon), "backpressure" (ring-late sample
/// drops), "decode-errors", and "flight-drops" (the shard's flight scratch
/// ring overwrote records between folds — shorten the epoch).
std::string judge_shard_runtime(const ShardRuntimeRow& row);

}  // namespace vdap::telemetry::analysis
