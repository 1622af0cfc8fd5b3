#include "telemetry/prof/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <sstream>

namespace vdap::telemetry::prof {

// --- tag interning ---------------------------------------------------------

namespace {

struct TagTable {
  std::mutex mu;
  std::map<std::string, TagId, std::less<>> ids;
  std::vector<std::string> names{""};  // index 0 = kInvalidTag
};

TagTable& tag_table() {
  static TagTable table;
  return table;
}

}  // namespace

TagId intern_tag(std::string_view name) {
  thread_local std::map<std::string, TagId, std::less<>> seen;
  if (auto hit = seen.find(name); hit != seen.end()) return hit->second;
  TagTable& t = tag_table();
  TagId id = kInvalidTag;
  {
    std::lock_guard<std::mutex> lock(t.mu);
    auto it = t.ids.find(name);
    if (it != t.ids.end()) {
      id = it->second;
    } else {
      id = static_cast<TagId>(t.names.size());
      t.names.emplace_back(name);
      t.ids.emplace(std::string(name), id);
    }
  }
  seen.emplace(std::string(name), id);
  return id;
}

std::string tag_name(TagId id) {
  TagTable& t = tag_table();
  std::lock_guard<std::mutex> lock(t.mu);
  if (id >= t.names.size()) return "";
  return t.names[id];
}

std::size_t tag_count() {
  TagTable& t = tag_table();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.names.size() - 1;  // slot 0 is the invalid sentinel
}

// --- ProfSlot --------------------------------------------------------------
//
// Seqlock protocol. Writer (owning thread):
//   seq <- seq+1 (odd: update in progress), release-ordered after nothing
//   ... relaxed stores to tags/depth ...
//   seq <- seq+2 (even again), release so readers ordering off the second
//   load observe the stores.
// Reader (sampler):
//   s1 <- seq (acquire); skip if odd
//   relaxed copies of tags/depth
//   acquire fence, s2 <- seq (relaxed); retry unless s1 == s2.
// Every word is an atomic, so concurrent access is defined behaviour and
// TSan-clean; the sequence check discards torn snapshots.

void ProfSlot::push(TagId id) {
  std::uint32_t d = depth_.load(std::memory_order_relaxed);
  if (d >= kMaxProfDepth) {
    truncated_.fetch_add(1, std::memory_order_relaxed);
    // Still count the virtual frame so pop() stays balanced.
    depth_.store(d + 1, std::memory_order_relaxed);
    return;
  }
  std::uint32_t s = seq_.load(std::memory_order_relaxed);
  seq_.store(s + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  tags_[d].store(id, std::memory_order_relaxed);
  depth_.store(d + 1, std::memory_order_relaxed);
  seq_.store(s + 2, std::memory_order_release);
}

void ProfSlot::pop() {
  std::uint32_t d = depth_.load(std::memory_order_relaxed);
  if (d == 0) return;
  if (d > kMaxProfDepth) {
    // Unwinding a frame that was truncated away: only the count moves.
    depth_.store(d - 1, std::memory_order_relaxed);
    return;
  }
  std::uint32_t s = seq_.load(std::memory_order_relaxed);
  seq_.store(s + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  depth_.store(d - 1, std::memory_order_relaxed);
  seq_.store(s + 2, std::memory_order_release);
}

TagId ProfSlot::top() const {
  // Owning thread only: relaxed reads of its own prior writes.
  const std::uint32_t d = depth_.load(std::memory_order_relaxed);
  if (d == 0 || d > kMaxProfDepth) return kInvalidTag;
  return tags_[d - 1].load(std::memory_order_relaxed);
}

int ProfSlot::snapshot(std::array<TagId, kMaxProfDepth>& out) const {
  for (int attempt = 0; attempt < 8; ++attempt) {
    std::uint32_t s1 = seq_.load(std::memory_order_acquire);
    if (s1 & 1u) continue;  // writer mid-update
    std::uint32_t d = depth_.load(std::memory_order_relaxed);
    std::uint32_t n = std::min<std::uint32_t>(d, kMaxProfDepth);
    for (std::uint32_t i = 0; i < n; ++i) {
      out[i] = tags_[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    std::uint32_t s2 = seq_.load(std::memory_order_relaxed);
    if (s1 == s2) return static_cast<int>(n);
  }
  return -1;
}

// --- ProfOptions -----------------------------------------------------------

ProfOptions ProfOptions::from_env() { return from_env(ProfOptions{}); }

ProfOptions ProfOptions::from_env(ProfOptions base) {
  if (const char* env = std::getenv("VDAP_PROF_INTERVAL_US")) {
    char* end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end != nullptr && end != env && *end == '\0' && v > 0) {
      base.interval_us = static_cast<std::uint64_t>(v);
    }
  }
  return base;
}

// --- Profiler --------------------------------------------------------------

Profiler::Profiler(std::size_t slots, ProfOptions opts) : opts_(opts) {
  if (opts_.interval_us < 50) opts_.interval_us = 50;
  slots_.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    slots_.push_back(std::make_unique<ProfSlot>());
  }
  folds_.resize(slots);
}

Profiler::~Profiler() { stop(); }

void Profiler::start() {
  if (running_) return;
  stop_.store(false, std::memory_order_relaxed);
  sampler_ = std::thread([this] { sampler_loop(); });
  running_ = true;
}

void Profiler::stop() {
  if (!running_) return;
  stop_.store(true, std::memory_order_relaxed);
  if (sampler_.joinable()) sampler_.join();
  running_ = false;
}

void Profiler::sampler_loop() {
  std::array<TagId, kMaxProfDepth> stack{};
  std::vector<TagId> key;
  const auto interval = std::chrono::microseconds(opts_.interval_us);
  while (!stop_.load(std::memory_order_relaxed)) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      int depth = slots_[i]->snapshot(stack);
      if (depth <= 0) continue;  // empty, or writer never settled: skip
      key.assign(stack.begin(), stack.begin() + depth);
      ++folds_[i][key];
    }
    samples_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(interval);
  }
}

ProfileData Profiler::collect() const {
  ProfileData data;
  data.interval_us = opts_.interval_us;
  data.samples = samples();
  data.slots = slots_.size();
  for (const auto& slot : slots_) data.truncated += slot->truncated();
  for (std::size_t i = 0; i < folds_.size(); ++i) {
    // Resolve ids to names, re-fold (two ids can map to one rendered
    // stack only if interning raced, which it cannot — but std::map keyed
    // by the string keeps rows sorted by stack either way).
    std::map<std::string, std::uint64_t> by_stack;
    for (const auto& [ids, count] : folds_[i]) {
      std::string stack;
      for (TagId id : ids) {
        if (!stack.empty()) stack += ';';
        stack += tag_name(id);
      }
      by_stack[stack] += count;
    }
    for (auto& [stack, count] : by_stack) {
      data.rows.push_back(ProfileRow{i, stack, count});
    }
  }
  return data;
}

// --- export ----------------------------------------------------------------

namespace {

// Tag names include run-time names (service DAGs): escape the JSON string
// specials and control bytes, so no name can break the one-row-per-line
// framing. Other bytes pass through as the reader passes them back.
std::string json_escape(const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const auto b = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (b < 0x20) {
      out += "\\u00";
      out += kHex[b >> 4];
      out += kHex[b & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string profile_jsonl(const ProfileData& data) {
  std::ostringstream out;
  out << "{\"interval_us\":" << data.interval_us
      << ",\"samples\":" << data.samples << ",\"slots\":" << data.slots
      << ",\"truncated\":" << data.truncated << "}\n";
  for (const ProfileRow& row : data.rows) {
    out << "{\"count\":" << row.count << ",\"shard\":" << row.shard
        << ",\"stack\":\"" << json_escape(row.stack) << "\"}\n";
  }
  return out.str();
}

std::string profile_folded(const ProfileData& data) {
  std::map<std::string, std::uint64_t> merged;
  for (const ProfileRow& row : data.rows) merged[row.stack] += row.count;
  std::ostringstream out;
  for (const auto& [stack, count] : merged) {
    out << stack << ' ' << count << '\n';
  }
  return out.str();
}

}  // namespace vdap::telemetry::prof
