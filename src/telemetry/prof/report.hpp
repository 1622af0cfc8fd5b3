// Parse-back and rendering for profile.jsonl artifacts (DESIGN.md §6j).
//
// The JSONL form written by prof::profile_jsonl is the interchange format:
// run_fleet / run_fleet_scale / scenario_runner --capture emit it next to
// shards.jsonl, benches attach it next to their BENCH_*.json tables, and
// `vdap-report --profile <a> [--diff <b>]` parses it back and renders the
// top-N frame table (or, with --diff, the per-frame delta table that turns
// a bench-gate wall regression into a named code region).
#pragma once

#include <string>
#include <string_view>

#include "telemetry/prof/profiler.hpp"

namespace vdap::telemetry::prof {

/// Parses profile_jsonl output (meta line + collapsed-stack rows). Returns
/// false (with *error set, including the line number) on malformed input,
/// including a number that is not a non-negative integer; unknown keys are
/// ignored for forward compatibility.
bool parse_profile_jsonl(std::string_view text, ProfileData* data,
                         std::string* error);

/// Per-frame flat view of a profile: `self` counts samples where the frame
/// was the innermost one, `total` counts samples where it appeared
/// anywhere on the stack (each frame counted once per sample, so
/// recursion does not double-count).
struct FrameStat {
  std::string frame;
  std::uint64_t self = 0;
  std::uint64_t total = 0;
};

/// Flattens collapsed stacks into per-frame self/total counts, sorted by
/// descending self (ties by frame name).
std::vector<FrameStat> frame_stats(const ProfileData& data);

/// The table `vdap-report --profile` prints: top `top_n` frames by self
/// samples, with self/total shares of the sampled (non-idle) time, and the
/// meta line's `truncated` count. A non-zero count marks the title
/// INCOMPLETE.
std::string profile_table(const ProfileData& data, std::size_t top_n = 20);

/// The table `vdap-report --profile a --diff b` prints: per-frame change
/// in self-share between baseline `base` and candidate `cand`, sorted by
/// descending share gain — the frames that absorbed the regressed time
/// come first. Frames present in only one profile are included. A
/// truncated frame in either profile marks the title INCOMPLETE.
std::string profile_diff_table(const ProfileData& base,
                               const ProfileData& cand,
                               std::size_t top_n = 20);

}  // namespace vdap::telemetry::prof
