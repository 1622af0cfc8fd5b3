#include "telemetry/prof/report.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace vdap::telemetry::prof {

bool parse_profile_jsonl(std::string_view text, ProfileData* data,
                         std::string* error) {
  *data = ProfileData{};
  bool saw_meta = false;
  std::size_t line_no = 0;
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "profile line " + std::to_string(line_no) + ": " + why;
    }
    return false;
  };
  // profile_jsonl writes every number as an unsigned integer, so anything
  // else could not be written back as read; an absent one reads as 0.
  auto count = [](const json::Value& v, const std::string& key,
                  std::uint64_t* out) {
    const json::Value* n = v.find(key);
    *out = 0;
    if (n == nullptr) return true;
    if (!n->is_int() || n->as_int() < 0) return false;
    *out = static_cast<std::uint64_t>(n->as_int());
    return true;
  };
  for (const std::string& line : util::split(text, '\n')) {
    ++line_no;
    if (line.empty()) continue;
    std::optional<json::Value> v = json::try_parse(line);
    if (!v || !v->is_object()) return fail("not a JSON object");
    if (!saw_meta) {
      // First object is the meta line.
      if (!v->contains("interval_us")) return fail("missing interval_us meta");
      std::uint64_t slots = 0;
      if (!count(*v, "interval_us", &data->interval_us) ||
          !count(*v, "samples", &data->samples) ||
          !count(*v, "slots", &slots) ||
          !count(*v, "truncated", &data->truncated)) {
        return fail("meta counts must be non-negative integers");
      }
      data->slots = static_cast<std::size_t>(slots);
      saw_meta = true;
      continue;
    }
    ProfileRow row;
    std::uint64_t shard = 0;
    if (!count(*v, "shard", &shard) || !count(*v, "count", &row.count)) {
      return fail("shard and count must be non-negative integers");
    }
    row.shard = static_cast<std::size_t>(shard);
    row.stack = v->get_string("stack");
    if (row.stack.empty()) return fail("empty stack");
    data->rows.push_back(std::move(row));
  }
  if (!saw_meta) {
    if (error != nullptr) *error = "profile: no meta line";
    return false;
  }
  return true;
}

std::vector<FrameStat> frame_stats(const ProfileData& data) {
  std::map<std::string, FrameStat> by_frame;
  for (const ProfileRow& row : data.rows) {
    std::vector<std::string> frames = util::split(row.stack, ';');
    if (frames.empty()) continue;
    // total: once per distinct frame per stack (recursion-safe).
    std::set<std::string_view> seen;
    for (const std::string& f : frames) {
      if (!seen.insert(f).second) continue;
      FrameStat& s = by_frame[f];
      if (s.frame.empty()) s.frame = f;
      s.total += row.count;
    }
    by_frame[frames.back()].self += row.count;
  }
  std::vector<FrameStat> out;
  out.reserve(by_frame.size());
  for (auto& [_, s] : by_frame) out.push_back(std::move(s));
  std::sort(out.begin(), out.end(), [](const FrameStat& a, const FrameStat& b) {
    if (a.self != b.self) return a.self > b.self;
    return a.frame < b.frame;
  });
  return out;
}

namespace {

/// Samples that hit any stack at all (the denominator for shares; the
/// meta `samples` field counts ticks, including all-idle ones).
std::uint64_t sampled_total(const ProfileData& data) {
  // Sum of self counts == sum of row counts (each sample has exactly one
  // innermost frame).
  std::uint64_t total = 0;
  for (const ProfileRow& row : data.rows) total += row.count;
  return total;
}

/// `title`, marked INCOMPLETE when frames past the depth cap were dropped:
/// they were never recorded, so the shares do not add up to the run.
std::string flag_truncated(std::string title, std::uint64_t truncated) {
  if (truncated == 0) return title;
  return "INCOMPLETE " + title + ": " + std::to_string(truncated) +
         " frames dropped past the " + std::to_string(kMaxProfDepth) +
         "-frame depth cap";
}

std::string pct(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "-";
  return util::TextTable::num(100.0 * static_cast<double>(part) /
                                  static_cast<double>(whole),
                              1);
}

}  // namespace

std::string profile_table(const ProfileData& data, std::size_t top_n) {
  std::vector<FrameStat> stats = frame_stats(data);
  const std::uint64_t total = sampled_total(data);
  util::TextTable table(flag_truncated(
      "profile (wall-clock plane — sampled tag stacks, not part of the "
      "deterministic capture)",
      data.truncated));
  table.set_header({"frame", "self", "self%", "total", "total%"});
  std::size_t n = 0;
  for (const FrameStat& s : stats) {
    if (n++ >= top_n) break;
    table.add_row({s.frame, std::to_string(s.self), pct(s.self, total),
                   std::to_string(s.total), pct(s.total, total)});
  }
  table.add_row({"(sampled)", std::to_string(total), "100.0",
                 std::to_string(total), "100.0"});
  table.add_row({"(truncated)", std::to_string(data.truncated), "-", "-", "-"});
  return table.to_string();
}

std::string profile_diff_table(const ProfileData& base,
                               const ProfileData& cand, std::size_t top_n) {
  std::map<std::string, FrameStat> base_by, cand_by;
  for (FrameStat& s : frame_stats(base)) base_by[s.frame] = std::move(s);
  for (FrameStat& s : frame_stats(cand)) cand_by[s.frame] = std::move(s);
  const std::uint64_t base_total = sampled_total(base);
  const std::uint64_t cand_total = sampled_total(cand);

  struct Delta {
    std::string frame;
    double base_share = 0.0;  // self share in baseline, percent
    double cand_share = 0.0;  // self share in candidate, percent
    double delta = 0.0;       // cand - base, percentage points
    std::uint64_t base_self = 0;
    std::uint64_t cand_self = 0;
  };
  std::set<std::string> frames;
  for (const auto& [f, _] : base_by) frames.insert(f);
  for (const auto& [f, _] : cand_by) frames.insert(f);
  std::vector<Delta> deltas;
  deltas.reserve(frames.size());
  for (const std::string& f : frames) {
    Delta d;
    d.frame = f;
    if (auto it = base_by.find(f); it != base_by.end()) {
      d.base_self = it->second.self;
    }
    if (auto it = cand_by.find(f); it != cand_by.end()) {
      d.cand_self = it->second.self;
    }
    d.base_share = base_total == 0 ? 0.0
                                   : 100.0 * static_cast<double>(d.base_self) /
                                         static_cast<double>(base_total);
    d.cand_share = cand_total == 0 ? 0.0
                                   : 100.0 * static_cast<double>(d.cand_self) /
                                         static_cast<double>(cand_total);
    d.delta = d.cand_share - d.base_share;
    deltas.push_back(std::move(d));
  }
  std::sort(deltas.begin(), deltas.end(), [](const Delta& a, const Delta& b) {
    if (a.delta != b.delta) return a.delta > b.delta;
    return a.frame < b.frame;
  });

  util::TextTable table(flag_truncated(
      "profile diff (self-share percentage points, candidate vs baseline — "
      "frames that absorbed time come first)",
      base.truncated + cand.truncated));
  table.set_header(
      {"frame", "base self", "base%", "cand self", "cand%", "delta pp"});
  std::size_t n = 0;
  for (const Delta& d : deltas) {
    if (n++ >= top_n) break;
    std::string delta_str = util::TextTable::num(d.delta, 1);
    if (d.delta > 0.0) delta_str = "+" + delta_str;
    table.add_row({d.frame, std::to_string(d.base_self),
                   util::TextTable::num(d.base_share, 1),
                   std::to_string(d.cand_self),
                   util::TextTable::num(d.cand_share, 1), delta_str});
  }
  return table.to_string();
}

}  // namespace vdap::telemetry::prof
