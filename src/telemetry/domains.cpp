#include "telemetry/domains.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "telemetry/export.hpp"

namespace vdap::telemetry {

namespace {

constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();

// The args text as the sort compares it: empty text stands for "{}", the
// dump of an empty object. Compared as "", it would sort before every
// other text, where "{}" sorts after all of them ('}' > '"').
std::string_view sort_args(const std::string& args) {
  return args.empty() ? std::string_view("{}") : std::string_view(args);
}

// Canonical content order: (ts, track, name, cat, ph, dur, args). This is
// a total order on everything the exporter serializes *except* the async
// span id, which is renumbered in merged order after the sort — so the
// merged log depends only on the event multiset, not on which shard
// recorded what. Events identical in every compared field keep their
// concatenation order (stable_sort): only such content-twins can permute
// span ids across geometries, which §6h excludes by contract
// (entity-partitioned instrumentation distinguishes twins by track/args).
bool canonical_less(const TraceEvent& a, const std::string& a_track,
                    const TraceEvent& b, const std::string& b_track) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (int c = a_track.compare(b_track); c != 0) return c < 0;
  if (int c = a.name.compare(b.name); c != 0) return c < 0;
  if (int c = a.cat.compare(b.cat); c != 0) return c < 0;
  if (a.ph != b.ph) return a.ph < b.ph;
  if (a.dur != b.dur) return a.dur < b.dur;
  return sort_args(a.args) < sort_args(b.args);
}

}  // namespace

DomainSet::DomainSet(int shards) {
  if (shards < 1) throw std::invalid_argument("DomainSet: shards must be >= 1");
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Entry>());
  }
}

std::uint32_t DomainSet::master_tid(Entry& entry, std::uint32_t tid) {
  const std::vector<std::string>& tracks = entry.domain.tracer().tracks();
  if (tid >= entry.master_tids.size()) {
    entry.master_tids.resize(tracks.size(), kUnmapped);
  }
  std::uint32_t& mapped = entry.master_tids[tid];
  if (mapped == kUnmapped) mapped = master_.track(tracks[tid]);
  return mapped;
}

void DomainSet::merge_epoch() {
  // One drained event, by reference. `track` points into the source
  // tracer's interned track table (stable for the duration of the merge —
  // draining never interns).
  struct Staged {
    TraceEvent* ev;
    const std::string* track;
    Entry* entry;
  };
  // Each domain's drained events stay where take_events() left them; the
  // sort moves only references. They are staged in concatenation order
  // (shards 0..K-1, then the coordinator), so stable-sorting them gives
  // exactly the order stable-sorting the concatenated events would.
  std::vector<std::vector<TraceEvent>> drained;
  drained.reserve(shards_.size() + 1);
  std::vector<Staged> batch;
  auto drain = [&drained, &batch](Entry& entry) {
    Tracer& t = entry.domain.tracer();
    drained.push_back(t.take_events());
    const std::vector<std::string>& tracks = t.tracks();
    for (TraceEvent& ev : drained.back()) {
      batch.push_back({&ev, &tracks[ev.tid], &entry});
    }
  };
  for (const std::unique_ptr<Entry>& e : shards_) drain(*e);
  drain(coordinator_);
  if (batch.empty()) return;

  std::stable_sort(batch.begin(), batch.end(),
                   [](const Staged& a, const Staged& b) {
                     return canonical_less(*a.ev, *a.track, *b.ev, *b.track);
                   });

  std::vector<TraceEvent> chunk;
  chunk.reserve(batch.size());
  for (const Staged& s : batch) {
    TraceEvent& ev = *s.ev;
    std::map<std::uint64_t, std::uint64_t>& ids = s.entry->span_ids;
    ev.tid = master_tid(*s.entry, ev.tid);
    if (ev.ph == 'b') {
      std::uint64_t master_id = next_span_++;
      ids[ev.id] = master_id;
      ev.id = master_id;
    } else if (ev.ph == 'e') {
      auto it = ids.find(ev.id);
      if (it == ids.end()) continue;  // begin was recorded while unbound
      ev.id = it->second;
      ids.erase(it);
    }
    chunk.push_back(std::move(ev));
  }
  if (chunk.empty()) return;
  events_ += chunk.size();
  chunks_.push_back(std::move(chunk));
}

std::string DomainSet::chrome_trace() const {
  return chrome_trace_json(master_.tracks(), chunks_);
}

std::size_t DomainSet::open_spans() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Entry>& e : shards_) {
    total += e->domain.tracer().open_spans();
  }
  total += coordinator_.domain.tracer().open_spans();
  return total;
}

MetricsRegistry DomainSet::merged_metrics() const {
  MetricsRegistry out;
  for (const std::unique_ptr<Entry>& e : shards_) out.merge(e->domain.metrics());
  out.merge(coordinator_.domain.metrics());
  return out;
}

}  // namespace vdap::telemetry
