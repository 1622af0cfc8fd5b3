#include "telemetry/analysis/critical_path.hpp"

#include <algorithm>
#include <cstdlib>

namespace vdap::telemetry::analysis {

namespace {

// Sweep precedence: higher wins when slices overlap.
enum Category : int { kQueue = 0, kCompute = 1, kNetwork = 2, kFailover = 3 };

int category_of(std::string_view name) {
  if (name == "queue") return kQueue;
  if (name == "compute") return kCompute;
  if (name == "net") return kNetwork;
  if (name == "failover") return kFailover;
  return -1;
}

struct Slice {
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  int category = kQueue;
  std::string tier;  // empty ⇒ on-board
};

struct OpenRun {
  std::uint64_t run_id = 0;
  std::string service;
  sim::SimTime released = 0;
};

std::uint32_t track_index(const std::vector<std::string>& tracks,
                          std::string_view name) {
  for (std::uint32_t i = 0; i < tracks.size(); ++i) {
    if (tracks[i] == name) return i;
  }
  return static_cast<std::uint32_t>(tracks.size());  // matches nothing
}

void add_segments(ExclusiveSegments& s, int category, sim::SimDuration d) {
  switch (category) {
    case kQueue: s.queue += d; break;
    case kCompute: s.compute += d; break;
    case kNetwork: s.network += d; break;
    case kFailover: s.failover += d; break;
    default: s.slack += d; break;
  }
}

/// Exclusive sweep over one run's slices, clipped to [released, finished).
void sweep(RunCriticalPath& run, std::vector<Slice>& slices) {
  for (Slice& s : slices) {
    s.start = std::max(s.start, run.released);
    s.end = std::min(s.end, run.finished);
  }
  std::vector<sim::SimTime> cuts;
  cuts.reserve(slices.size() * 2 + 2);
  cuts.push_back(run.released);
  cuts.push_back(run.finished);
  for (const Slice& s : slices) {
    if (s.start < s.end) {
      cuts.push_back(s.start);
      cuts.push_back(s.end);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  // Stable slice order for deterministic tie-breaks within one category.
  std::stable_sort(slices.begin(), slices.end(),
                   [](const Slice& a, const Slice& b) {
                     if (a.start != b.start) return a.start < b.start;
                     return a.tier < b.tier;
                   });
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    sim::SimTime a = cuts[i];
    sim::SimTime b = cuts[i + 1];
    const Slice* winner = nullptr;
    for (const Slice& s : slices) {
      if (s.start <= a && s.end >= b &&
          (winner == nullptr || s.category > winner->category)) {
        winner = &s;
      }
    }
    sim::SimDuration d = b - a;
    if (winner == nullptr) {
      run.segments.slack += d;
      continue;
    }
    add_segments(run.segments, winner->category, d);
    run.tier_time[winner->tier.empty() ? "on-board" : winner->tier] += d;
  }
}

}  // namespace

std::string_view ExclusiveSegments::dominant() const {
  std::string_view name = "compute";
  sim::SimDuration best = compute;
  if (failover > best) { best = failover; name = "failover"; }
  if (network > best) { best = network; name = "net"; }
  if (queue > best) { best = queue; name = "queue"; }
  return name;
}

CriticalPathReport extract_critical_paths(
    const std::vector<TraceEvent>& events,
    const std::vector<std::string>& tracks) {
  const std::uint32_t elastic_tid = track_index(tracks, "elastic");
  const std::uint32_t segments_tid = track_index(tracks, "elastic/segments");

  std::map<std::uint64_t, OpenRun> open;            // span id → open run
  std::map<std::uint64_t, std::vector<Slice>> seg;  // public run id → slices
  CriticalPathReport report;

  for (const TraceEvent& ev : events) {
    if (ev.tid == segments_tid && ev.ph == 'X' && ev.cat == "segment") {
      int category = category_of(ev.name);
      const json::Object args = ev.args_object();
      const json::Value* run_arg =
          args.count("run") != 0 ? &args.at("run") : nullptr;
      if (category < 0 || run_arg == nullptr || !run_arg->is_int()) continue;
      Slice s;
      s.start = ev.ts;
      s.end = ev.ts + ev.dur;
      s.category = category;
      auto tier = args.find("tier");
      if (tier != args.end() && tier->second.is_string()) {
        s.tier = tier->second.as_string();
      }
      seg[static_cast<std::uint64_t>(run_arg->as_int())].push_back(s);
      continue;
    }
    if (ev.tid != elastic_tid || ev.cat != "service") continue;
    if (ev.ph == 'b') {
      const json::Object args = ev.args_object();
      auto run_arg = args.find("run");
      if (run_arg == args.end() || !run_arg->second.is_int()) continue;
      OpenRun r;
      r.run_id = static_cast<std::uint64_t>(run_arg->second.as_int());
      r.service = ev.name;
      r.released = ev.ts;
      open[ev.id] = std::move(r);
    } else if (ev.ph == 'e') {
      auto it = open.find(ev.id);
      if (it == open.end()) continue;
      RunCriticalPath run;
      run.run_id = it->second.run_id;
      run.service = std::move(it->second.service);
      run.released = it->second.released;
      run.finished = ev.ts;
      open.erase(it);
      const json::Value wrapper{ev.args_object()};
      run.ok = wrapper.get_bool("ok");
      run.deadline_met = wrapper.get_bool("deadline_met");
      run.pipeline = wrapper.get_string("pipeline");
      run.failovers = static_cast<int>(wrapper.get_int("failovers"));
      report.runs.push_back(std::move(run));
    }
  }

  std::stable_sort(report.runs.begin(), report.runs.end(),
                   [](const RunCriticalPath& a, const RunCriticalPath& b) {
                     if (a.finished != b.finished) return a.finished < b.finished;
                     return a.run_id < b.run_id;
                   });

  for (RunCriticalPath& run : report.runs) {
    auto it = seg.find(run.run_id);
    static const std::vector<Slice> kNone;
    std::vector<Slice> slices = it != seg.end() ? it->second : kNone;
    sweep(run, slices);

    ServiceCriticalPath& svc = report.services[run.service];
    svc.service = run.service;
    ++svc.runs;
    if (run.ok) ++svc.ok;
    if (run.deadline_met) ++svc.deadline_met;
    svc.segments.queue += run.segments.queue;
    svc.segments.network += run.segments.network;
    svc.segments.compute += run.segments.compute;
    svc.segments.failover += run.segments.failover;
    svc.segments.slack += run.segments.slack;
    for (const auto& [tier, d] : run.tier_time) svc.tier_time[tier] += d;
    svc.latency_sum += run.latency();
    svc.latency_max = std::max(svc.latency_max, run.latency());
  }
  return report;
}

std::string critical_path_table(const CriticalPathReport& report) {
  util::TextTable t("critical path (mean exclusive split per run, ms)");
  t.set_header({"service", "runs", "ok", "ddl", "mean", "max", "queue", "net",
                "compute", "failover", "slack", "dominant", "top tier"});
  for (const auto& [name, svc] : report.services) {
    double n = static_cast<double>(svc.runs);
    std::string top_tier = "-";
    sim::SimDuration top = -1;
    for (const auto& [tier, d] : svc.tier_time) {
      if (d > top) { top = d; top_tier = tier; }
    }
    t.add_row({name, std::to_string(svc.runs), std::to_string(svc.ok),
               std::to_string(svc.deadline_met),
               util::TextTable::num(sim::to_millis(svc.latency_sum) / n, 3),
               util::TextTable::num(sim::to_millis(svc.latency_max), 3),
               util::TextTable::num(sim::to_millis(svc.segments.queue) / n, 3),
               util::TextTable::num(sim::to_millis(svc.segments.network) / n, 3),
               util::TextTable::num(sim::to_millis(svc.segments.compute) / n, 3),
               util::TextTable::num(sim::to_millis(svc.segments.failover) / n, 3),
               util::TextTable::num(sim::to_millis(svc.segments.slack) / n, 3),
               std::string(svc.segments.dominant()), top_tier});
  }
  return t.to_string();
}

bool parse_chrome_trace(std::string_view text, std::vector<TraceEvent>* events,
                        std::vector<std::string>* tracks, std::string* error) {
  events->clear();
  tracks->clear();
  std::optional<json::Value> doc = json::try_parse(text);
  if (!doc.has_value()) {
    if (error != nullptr) *error = "malformed JSON";
    return false;
  }
  const json::Value* list = doc->find("traceEvents");
  if (list == nullptr || !list->is_array()) {
    if (error != nullptr) *error = "missing traceEvents array";
    return false;
  }
  for (const json::Value& ev : list->as_array()) {
    if (!ev.is_object()) {
      if (error != nullptr) *error = "non-object trace event";
      return false;
    }
    std::string ph = ev.get_string("ph");
    if (ph.size() != 1) {
      if (error != nullptr) *error = "bad ph field";
      return false;
    }
    // Hostile/corrupt input must fail cleanly, not allocate: a track id
    // far beyond anything the Tracer interns rejects the document instead
    // of driving tracks->resize() to out-of-memory.
    constexpr std::int64_t kMaxTid = 1 << 20;
    const std::int64_t raw_tid = ev.get_int("tid");
    if (raw_tid < 0 || raw_tid > kMaxTid) {
      if (error != nullptr) *error = "tid out of range";
      return false;
    }
    if (ph[0] == 'M') {
      // thread_name metadata records rebuild the track table.
      if (ev.get_string("name") != "thread_name") continue;
      auto tid = static_cast<std::size_t>(raw_tid);
      const json::Value* args = ev.find("args");
      if (args == nullptr) continue;
      if (tracks->size() <= tid) tracks->resize(tid + 1);
      (*tracks)[tid] = args->get_string("name");
      continue;
    }
    TraceEvent out;
    out.ph = ph[0];
    out.ts = ev.get_int("ts");
    out.dur = ev.get_int("dur");
    out.tid = static_cast<std::uint32_t>(raw_tid);
    out.cat = ev.get_string("cat");
    out.name = ev.get_string("name");
    std::string id = ev.get_string("id");
    if (!id.empty()) {
      out.id = std::strtoull(id.c_str(), nullptr, 16);
    }
    const json::Value* args = ev.find("args");
    if (args != nullptr) {
      if (!args->is_object()) {
        if (error != nullptr) *error = "non-object args";
        return false;
      }
      out.args = args_text(args->as_object());
    }
    events->push_back(std::move(out));
  }
  return true;
}

}  // namespace vdap::telemetry::analysis
