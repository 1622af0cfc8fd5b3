// Telemetry exporters:
//   * chrome_trace_json() — the Chrome trace-event JSON format, loadable
//     in Perfetto (https://ui.perfetto.dev) or chrome://tracing. Track
//     names become thread_name metadata records; span/instant/counter
//     events follow.
//   * metrics_snapshot_json() — one JSON object per call with every
//     counter, gauge, and histogram digest; a run's metrics.jsonl is one
//     such line, taken at the end of the run.
//
// The two JSON exporters write straight into one std::string through
// util::json's append_* writers, with no json::Value tree in between.
// Their key order is a contract: every object lists its keys in sorted
// (std::map) order, the order the json::Object DOM they replaced wrote,
// so trace.json and metrics.jsonl keep their bytes:
//   * root: displayTimeUnit, traceEvents;
//   * track metadata, all tracks first in tid order: args ({"name":
//     track}), name ("thread_name"), ph ("M"), pid, tid;
//   * event: args (only when non-empty), cat, dur ('X' only), id ('b'/'e'
//     only, "0x" + hex), name, ph (a one-char string), pid, s ('i' only),
//     tid, ts. The args value is the event's recorded args text, copied
//     as is: args_text() writes it as the object's dump, whose keys are
//     already in std::map order;
//   * metrics line: counters, gauges, histograms, t; each histogram
//     digest: count, max, mean, min, p50, p95, p99.
// The output is byte-deterministic for a deterministic input — the
// `trace` test suite compares whole exports across replayed runs, and
// telemetry_test pins both exporters against the old DOM code.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace vdap::telemetry {

/// Serializes a trace as a Chrome trace-event JSON document:
/// {"displayTimeUnit":"ms","traceEvents":[...]}, the `tracks` as metadata,
/// then the events of every chunk in order (DomainSet's merged log keeps
/// one chunk per epoch). Deterministic for a deterministic event sequence.
std::string chrome_trace_json(const std::vector<std::string>& tracks,
                              std::span<const std::vector<TraceEvent>> chunks);

/// One tracer's log: its tracks and its events as the one chunk.
inline std::string chrome_trace_json(const Tracer& tracer) {
  return chrome_trace_json(tracer.tracks(), {&tracer.events(), 1});
}

/// One metrics snapshot line, without the newline: {"counters": {...},
/// "gauges": {...}, "histograms": {name: {count,max,mean,min,p50,p95,p99},
/// ...}, "t": <sim µs>}.
std::string metrics_snapshot_json(const MetricsRegistry& metrics,
                                  sim::SimTime now);

/// Writes `content` to `path` (truncating); returns false on I/O failure,
/// including a failed flush when the file is closed.
bool write_text_file(const std::string& path, std::string_view content);

}  // namespace vdap::telemetry
