// Machine-readable bench results.
//
// Each bench binary constructs one BenchOutput at the top of main(); the
// print_* helpers then call BenchOutput::record(table) next to their
// printf, and the destructor writes BENCH_<name>.json into the working
// directory: {"bench": name, "tables": [{title, header, rows}, ...]}.
// Serialization goes through util::json (ordered keys), so the file is
// byte-stable for a deterministic run — diffable across commits the same
// way the printed tables are.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace vdap::bench {

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

  /// Records one printed table into the JSON document. Safe to call with no
  /// BenchOutput alive (unit tests of print helpers): it becomes a no-op.
  static void record(const util::TextTable& table) {
    if (current_ != nullptr) current_->add_table(table);
  }

  /// Opt-in profile attachment (DESIGN.md §6j): benches that run with the
  /// sampling profiler attach the profile.jsonl text here, and the
  /// destructor writes it as BENCH_<name>.profile.jsonl next to the table
  /// file. The `.profile.jsonl` suffix keeps it out of bench_compare.py's
  /// numeric gate (which only loads BENCH_*.json); the script instead uses
  /// baseline/candidate profile pairs to print the top regressed frames
  /// when the gate fails. No-op with no BenchOutput alive.
  static void record_profile(std::string profile_jsonl) {
    if (current_ != nullptr) current_->profile_ = std::move(profile_jsonl);
  }

  static BenchOutput* current() { return current_; }

  void add_table(const util::TextTable& table) {
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
    tables_.emplace_back(std::move(o));
  }

  std::string path() const { return "BENCH_" + name_ + ".json"; }
  std::string profile_path() const {
    return "BENCH_" + name_ + ".profile.jsonl";
  }

 private:
  void write() const {
    json::Object root;
    root["bench"] = name_;
    root["tables"] = json::Value(tables_);
    std::ofstream f(path(), std::ios::binary | std::ios::trunc);
    if (f) f << json::Value(std::move(root)).dump() << '\n';
    if (!profile_.empty()) {
      std::ofstream p(profile_path(), std::ios::binary | std::ios::trunc);
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

}  // namespace vdap::bench
