#include "telemetry/export.hpp"

#include <charconv>
#include <fstream>
#include <utility>

namespace vdap::telemetry {

namespace {

// Async begin/end events need a string id; hex matches what Chrome's own
// exporters emit ("0x" plus lowercase digits, which need no escaping).
void append_span_id(std::string& out, std::uint64_t id) {
  char buf[16];
  const auto r = std::to_chars(buf, buf + sizeof(buf), id, 16);
  out += "\"0x";
  out.append(buf, r.ptr);
  out += '"';
}

// Appends a map as `{"k":v,...}` (`{}` when empty), keys in map order.
template <typename Map, typename WriteValue>
void append_members(std::string& out, const Map& members,
                    WriteValue write_value) {
  out += '{';
  bool first = true;
  for (const auto& [key, value] : members) {
    if (!first) out += ',';
    first = false;
    json::append_string(out, key);
    out += ':';
    write_value(out, value);
  }
  out += '}';
}

// Keys in sorted order, the key-order contract of export.hpp.
void append_event(std::string& out, const TraceEvent& ev) {
  out += '{';
  if (!ev.args.empty()) {
    out += "\"args\":";
    out += ev.args;
    out += ',';
  }
  out += "\"cat\":";
  json::append_string(out, ev.cat);
  if (ev.ph == 'X') {
    out += ",\"dur\":";
    json::append_int(out, ev.dur);
  }
  if (ev.ph == 'b' || ev.ph == 'e') {
    out += ",\"id\":";
    append_span_id(out, ev.id);
  }
  out += ",\"name\":";
  json::append_string(out, ev.name);
  out += ",\"ph\":";
  json::append_string(out, std::string_view(&ev.ph, 1));
  out += ",\"pid\":1";
  if (ev.ph == 'i') out += ",\"s\":\"t\"";  // instant scoped to its track
  out += ",\"tid\":";
  json::append_int(out, ev.tid);
  out += ",\"ts\":";
  json::append_int(out, ev.ts);  // already µs, the unit the format expects
  out += '}';
}

}  // namespace

std::string chrome_trace_json(const std::vector<std::string>& tracks,
                              std::span<const std::vector<TraceEvent>> chunks) {
  std::size_t events = 0;
  for (const std::vector<TraceEvent>& chunk : chunks) events += chunk.size();
  std::string out;
  // Room for typical events (~140 B each) up front; pages of the
  // reservation that stay unwritten never become resident.
  out.reserve(64 + 64 * tracks.size() + 160 * events);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Track names first, as thread_name metadata (tid order = first use).
  for (std::size_t tid = 0; tid < tracks.size(); ++tid) {
    if (!first) out += ',';
    first = false;
    out += "{\"args\":{\"name\":";
    json::append_string(out, tracks[tid]);
    out += "},\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    json::append_int(out, static_cast<std::int64_t>(tid));
    out += '}';
  }
  for (const std::vector<TraceEvent>& chunk : chunks) {
    for (const TraceEvent& ev : chunk) {
      if (!first) out += ',';
      first = false;
      append_event(out, ev);
    }
  }
  out += "]}";
  return out;
}

std::string metrics_snapshot_json(const MetricsRegistry& metrics,
                                  sim::SimTime now) {
  std::string out = "{\"counters\":";
  append_members(out, metrics.counters().all(), json::append_int);
  out += ",\"gauges\":";
  append_members(out, metrics.gauges(), json::append_double);
  out += ",\"histograms\":";
  append_members(out, metrics.histograms(),
                 [](std::string& o, const util::Histogram& h) {
                   o += "{\"count\":";
                   json::append_int(o, static_cast<std::int64_t>(h.count()));
                   const std::pair<const char*, double> digest[] = {
                       {"max", h.max()}, {"mean", h.mean()}, {"min", h.min()},
                       {"p50", h.p50()}, {"p95", h.p95()},   {"p99", h.p99()}};
                   for (const auto& [key, value] : digest) {
                     o += ",\"";
                     o += key;
                     o += "\":";
                     json::append_double(o, value);
                   }
                   o += '}';
                 });
  out += ",\"t\":";
  json::append_int(out, now);
  out += '}';
  return out;
}

bool write_text_file(const std::string& path, std::string_view content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
  // close() flushes the buffer; a write that failed there shows only in
  // the state after it.
  f.close();
  return !f.fail();
}

}  // namespace vdap::telemetry
