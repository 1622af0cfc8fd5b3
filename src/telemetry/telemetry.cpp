#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/flight.hpp"

namespace vdap::telemetry {

std::string args_text(json::Object args) {
  std::string out;
  if (!args.empty()) json::append_value(out, json::Value(std::move(args)));
  return out;
}

TraceArgs& TraceArgs::add(std::string_view key, const json::Value& value) & {
  if (!text_.empty() && key <= last_key_) {
    throw std::logic_error("TraceArgs: key out of order: " + std::string(key));
  }
  last_key_ = key;
  text_ += text_.empty() ? '{' : ',';
  json::append_string(text_, key);
  text_ += ':';
  json::append_value(text_, value);
  return *this;
}

std::string TraceArgs::text() && {
  if (!text_.empty()) text_ += '}';
  return std::move(text_);
}

json::Object TraceEvent::args_object() const {
  if (args.empty()) return {};
  return std::move(json::parse(args).as_object());
}

std::uint32_t Tracer::track(std::string_view name) {
  auto it = track_ids_.find(name);
  if (it != track_ids_.end()) return it->second;
  auto id = static_cast<std::uint32_t>(tracks_.size());
  tracks_.emplace_back(name);
  track_ids_.emplace(std::string(name), id);
  return id;
}

void Tracer::complete(sim::SimTime ts, sim::SimDuration dur,
                      std::string_view cat, std::string_view name,
                      std::string_view track, TraceArgs args) {
  TraceEvent ev;
  ev.ph = 'X';
  ev.ts = ts;
  ev.dur = dur < 0 ? 0 : dur;
  ev.tid = this->track(track);
  ev.cat = cat;
  ev.name = name;
  ev.args = std::move(args).text();
  events_.push_back(std::move(ev));
  if (internal::tls_flight != nullptr) {
    flight_span(FlightKind::kComplete, ts, cat, name, track, dur, 0.0);
  }
}

std::uint64_t Tracer::begin(sim::SimTime ts, std::string_view cat,
                            std::string_view name, std::string_view track,
                            TraceArgs args) {
  std::uint64_t id = next_span_++;
  TraceEvent ev;
  ev.ph = 'b';
  ev.ts = ts;
  ev.id = id;
  ev.tid = this->track(track);
  ev.cat = cat;
  ev.name = name;
  ev.args = std::move(args).text();
  open_[id] = OpenSpan{ev.cat, ev.name, ev.tid};
  events_.push_back(std::move(ev));
  if (internal::tls_flight != nullptr) {
    flight_span(FlightKind::kSpanBegin, ts, cat, name, track, 0, 0.0);
  }
  return id;
}

void Tracer::end(sim::SimTime ts, std::uint64_t id, TraceArgs args) {
  auto it = open_.find(id);
  if (it == open_.end()) return;  // unknown or already closed (or id 0)
  TraceEvent ev;
  ev.ph = 'e';
  ev.ts = ts;
  ev.id = id;
  ev.tid = it->second.tid;
  ev.cat = std::move(it->second.cat);
  ev.name = std::move(it->second.name);
  ev.args = std::move(args).text();
  open_.erase(it);
  if (internal::tls_flight != nullptr) {
    // The mirror carries the span's identity by name, not id — span ids
    // are per-domain counters whose values depend on shard placement.
    flight_span(FlightKind::kSpanEnd, ts, ev.cat, ev.name,
                tracks_[ev.tid], 0, 0.0);
  }
  events_.push_back(std::move(ev));
}

void Tracer::instant(sim::SimTime ts, std::string_view cat,
                     std::string_view name, std::string_view track,
                     TraceArgs args) {
  TraceEvent ev;
  ev.ph = 'i';
  ev.ts = ts;
  ev.tid = this->track(track);
  ev.cat = cat;
  ev.name = name;
  ev.args = std::move(args).text();
  events_.push_back(std::move(ev));
  if (internal::tls_flight != nullptr) {
    flight_span(FlightKind::kInstant, ts, cat, name, track, 0, 0.0);
  }
}

void Tracer::counter(sim::SimTime ts, std::string_view track,
                     std::string_view name, double value) {
  if (!std::isfinite(value)) return;  // JSON has no NaN/Inf; drop the sample
  TraceEvent ev;
  ev.ph = 'C';
  ev.ts = ts;
  ev.tid = this->track(track);
  ev.cat = "metric";
  ev.name = name;
  ev.args = TraceArgs().add("value", value).text();
  events_.push_back(std::move(ev));
  if (internal::tls_flight != nullptr) {
    flight_span(FlightKind::kCounter, ts, "metric", name, track, 0, value);
  }
}

std::vector<TraceEvent> Tracer::take_events() {
  std::vector<TraceEvent> out;
  out.swap(events_);
  return out;
}

std::string labeled(std::string_view name, Labels labels) {
  if (labels.size() == 0) return std::string(name);
  // Sort label keys so the same set always canonicalizes identically.
  std::vector<std::pair<std::string_view, std::string_view>> sorted(labels);
  std::sort(sorted.begin(), sorted.end());
  std::string key(name);
  key += '{';
  bool first = true;
  for (const auto& [k, v] : sorted) {
    if (!first) key += ',';
    first = false;
    key += k;
    key += '=';
    key += v;
  }
  key += '}';
  return key;
}

void MetricsRegistry::observe(std::string_view name, double value) {
  if (!std::isfinite(value)) return;  // keep digests (and JSONL) finite
  auto it = hists_.find(std::string(name));
  if (it == hists_.end()) {
    it = hists_.emplace(std::string(name), util::Histogram{}).first;
    it->second.set_sample_cap(kHistogramSampleCap);
  }
  it->second.add(value);
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  counters_.merge(other.counters_);
  for (const auto& [name, value] : other.gauges_) gauges_[name] = value;
  for (const auto& [name, hist] : other.hists_) {
    auto it = hists_.find(name);
    if (it == hists_.end()) {
      it = hists_.emplace(name, util::Histogram{}).first;
      it->second.set_sample_cap(kHistogramSampleCap);
    }
    it->second.merge(hist);
  }
}

}  // namespace vdap::telemetry
