// Machine-readable bench results.
//
// Each bench binary constructs one BenchOutput at the top of main(); the
// print_* helpers then call BenchOutput::record(table) next to their
// printf, and the destructor writes BENCH_<name>.json into the working
// directory: {"bench": name, "tables": [{title, header, rows}, ...]}.
// Serialization goes through util::json (ordered keys), so the file is
// byte-stable for a deterministic run — diffable across commits the same
// way the printed tables are.
//
// Every table is sim-plane — a pure function of the bench's seeds and
// configs, which scripts/bench_compare.py compares cell by cell as text —
// unless it is recorded as Plane::kWall, which adds "plane":"wall". Only
// record_overhead below records wall-plane tables.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace vdap::bench {

/// sim: deterministic cells, compared exactly. wall: wall-clock cells,
/// whose numbers the gate holds to a tolerance.
enum class Plane { kSim, kWall };

class BenchOutput {
 public:
  explicit BenchOutput(std::string name) : name_(std::move(name)) {
    current_ = this;
  }
  ~BenchOutput() {
    write();
    current_ = nullptr;
  }

  BenchOutput(const BenchOutput&) = delete;
  BenchOutput& operator=(const BenchOutput&) = delete;

  /// Records one printed table into the JSON document. A no-op with no
  /// BenchOutput alive.
  static void record(const util::TextTable& table,
                     Plane plane = Plane::kSim) {
    if (current_ != nullptr) current_->add_table(table, plane);
  }

  /// Opt-in profile attachment (DESIGN.md §6j): benches that run with the
  /// sampling profiler attach the profile.jsonl text here, and the
  /// destructor writes it as BENCH_<name>.profile.jsonl next to the table
  /// file. The gate never compares it (bench_compare.py loads only
  /// BENCH_*.json); when the gate fails, scripts/check.sh renders it with
  /// `vdap-report --profile --diff` against the committed one. No-op with
  /// no BenchOutput alive.
  static void record_profile(std::string profile_jsonl) {
    if (current_ != nullptr) current_->profile_ = std::move(profile_jsonl);
  }

 private:
  void add_table(const util::TextTable& table, Plane plane) {
    json::Object o;
    o["title"] = table.title();
    json::Array header;
    for (const std::string& h : table.header()) header.emplace_back(h);
    o["header"] = json::Value(std::move(header));
    json::Array rows;
    for (const auto& row : table.rows()) {
      json::Array r;
      for (const std::string& cell : row) r.emplace_back(cell);
      rows.emplace_back(std::move(r));
    }
    o["rows"] = json::Value(std::move(rows));
    if (plane == Plane::kWall) o["plane"] = "wall";
    tables_.emplace_back(std::move(o));
  }

  void write() const {
    json::Object root;
    root["bench"] = name_;
    root["tables"] = json::Value(tables_);
    std::ofstream f("BENCH_" + name_ + ".json",
                    std::ios::binary | std::ios::trunc);
    if (f) f << json::Value(std::move(root)).dump() << '\n';
    if (!profile_.empty()) {
      std::ofstream p("BENCH_" + name_ + ".profile.jsonl",
                      std::ios::binary | std::ios::trunc);
      if (p) p << profile_;
    }
  }

  static inline BenchOutput* current_ = nullptr;
  std::string name_;
  json::Array tables_;
  std::string profile_;
};

/// 64-bit FNV-1a of `bytes` as 16 hex digits: a text cell that pins an
/// artifact's exact bytes in a committed table.
inline std::string fnv_hex(const std::string& bytes) {
  const std::uint64_t h = util::fnv1a_add(util::kFnv1aBasis, bytes);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Timed on/off pairs behind each overhead row. Odd, so the median is one
/// pair's ratio.
inline constexpr int kOverheadPairs = 15;

/// Records a wall-plane overhead table (DESIGN.md §6d) of one row:
/// `vehicles`, the median of kOverheadPairs on/off wall ratios, and
/// whether every run's digest matched. Each pair times `run(false)` and
/// `run(true)`, alternating which goes first, so a drift in the host's
/// load between the two halves of a pair does not always land on the same
/// side. `run(on)` returns an outcome with a `digest`; the last on-run's
/// outcome is returned for the caller's artifacts.
template <typename Run>
auto record_overhead(const std::string& title, int vehicles, Run&& run) {
  decltype(run(true)) on_out;
  std::vector<double> ratios;
  std::uint64_t digest = 0;
  bool digests_match = true;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    double wall[2] = {0.0, 0.0};
    for (int i = 0; i < 2; ++i) {
      // Even pairs run off first, odd pairs on first.
      const bool on = (i == 0) == (pair % 2 == 1);
      const auto t0 = std::chrono::steady_clock::now();
      auto out = run(on);
      wall[on ? 1 : 0] = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
      if (pair == 0 && i == 0) digest = out.digest;
      digests_match = digests_match && out.digest == digest;
      if (on) on_out = std::move(out);
    }
    ratios.push_back(wall[1] / wall[0]);
  }
  std::sort(ratios.begin(), ratios.end());
  const double median = ratios[kOverheadPairs / 2];
  util::TextTable table(title + " (median of " +
                        std::to_string(kOverheadPairs) +
                        " alternating pairs; absolute seconds never "
                        "committed)");
  table.set_header({"vehicles", "overhead x", "digest match"});
  table.add_row({std::to_string(vehicles), util::TextTable::num(median, 2),
                 digests_match ? "yes" : "NO"});
  BenchOutput::record(table, Plane::kWall);
  std::printf("%s", table.to_string().c_str());
  // Tukey's hinges of the 15 sorted ratios: the 4th and the 12th.
  std::printf("ratio quartiles %.2f / %.2f / %.2f (raw walls not "
              "committed)\n\n",
              ratios[kOverheadPairs / 4], median,
              ratios[kOverheadPairs - 1 - kOverheadPairs / 4]);
  return on_out;
}

}  // namespace vdap::bench
