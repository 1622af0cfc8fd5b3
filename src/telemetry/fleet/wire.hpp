// Fleet telemetry wire format (DESIGN.md §6e): the sequence-numbered frame
// a vehicle's TelemetryShipper ships to the XEdge/cloud aggregation point.
//
// One frame is one compact single-line JSON object (JSONL on disk):
//
//   {"counters":{"svc.ok":3},"events":[...],"gauges":{"queue":2},
//    "samples":{"svc.latency_ms":[[1500000,12.5],...]},
//    "seq":4,"t":4000000,"v":"cav-2"}
//
// Counters carry DELTAS since the previous frame (the aggregator
// accumulates), gauges carry last values, samples carry (sim-time µs,
// value) pairs, and events carry HealthEvents observed since the previous
// frame. WireWriter, which wire_encode and the shipper's cut both write
// through, writes the bytes directly: keys in the canonical sorted order
// json::Object would give ("v" last), numbers and strings through
// util::json's writers. So a frame's bytes are a deterministic function of
// its content, and the Wire.EncoderMatchesObjectEncoder test pins them.
// wire_decode reads a line in one pass of json::Lexer straight
// into a WireFrame, with no json::Value tree, and keeps the old
// tree decoder's behaviour exactly (DESIGN.md §6e; pinned by the
// WireDecoderDifferential tests): last of duplicate keys wins, errors come
// in that decoder's order, and unknown fields are tolerated, since newer
// vehicles may ship more than an older aggregator knows. Malformed input,
// nesting past json::kMaxDepth included, is a clean error string, never a
// crash.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace vdap::telemetry::fleet {

/// HealthEvent as shipped over the wire (telemetry/analysis/slo.hpp
/// flattened to strings so the aggregator needs no evaluator state).
struct WireHealthEvent {
  sim::SimTime at = 0;
  std::string kind;      // to_string(HealthEventKind)
  std::string severity;  // to_string(Severity)
  std::string service;
  double observed = 0.0;
  double target = 0.0;
  std::string implicated_tier;  // may be empty
};

/// One (ts µs, value) metric sample.
using WireSample = std::pair<sim::SimTime, double>;

struct WireFrame {
  std::string vehicle;
  std::uint64_t seq = 0;    // 1-based, strictly increasing per vehicle
  sim::SimTime created = 0; // frame cut time on the vehicle's sim clock
  std::map<std::string, std::int64_t> counters;  // deltas
  std::map<std::string, double> gauges;          // last values
  std::map<std::string, std::vector<WireSample>> samples;
  std::vector<WireHealthEvent> events;
};

/// Writes one frame line section by section, in the wire's key order:
/// counter entries, then events, gauges and sample series, then finish()
/// with the header fields. A section is written only once an entry of it
/// is, so an empty one is omitted; an entry of an earlier section after a
/// later one throws std::logic_error. Names within a section go out in
/// the order given, which callers keep sorted (they iterate sorted maps).
///
/// This is the one encoder of the format: wire_encode writes a WireFrame
/// through it, and TelemetryShipper writes its pending buffers through it
/// at each cut without building a WireFrame. The line is built in a buffer
/// its thread reuses (shards encode concurrently), so one writer at a time
/// per thread, and finish() returns an exact-size copy: one allocation per
/// frame.
class WireWriter {
 public:
  WireWriter();

  void counter(std::string_view name, std::int64_t delta);
  void event(const WireHealthEvent& event);
  void gauge(std::string_view name, double value);
  void series(std::string_view name, const std::vector<WireSample>& samples);
  /// Closes the line with "seq", "t" and "v" and returns it.
  std::string finish(std::uint64_t seq, sim::SimTime created,
                     std::string_view vehicle);

 private:
  enum class Section { kNone, kCounters, kEvents, kGauges, kSamples };
  /// Starts an entry of `section`: its separator, or the previous
  /// section's close and this one's key.
  void open(Section section);
  void close_section();

  std::string& out_;
  Section section_ = Section::kNone;
};

/// Serializes a frame to one line of JSON (no trailing newline).
std::string wire_encode(const WireFrame& frame);

/// Parses one frame line. Unknown fields are ignored; malformed input
/// returns std::nullopt with a diagnostic in *error (when non-null).
std::optional<WireFrame> wire_decode(std::string_view line,
                                     std::string* error = nullptr);

/// Cheap shard-routing peek: extracts the vehicle name from an encoded
/// frame without a full JSON parse. wire_encode writes the sorted key
/// order itself, so `"v"` is the LAST key of every frame line (pinned by
/// the Wire.EncoderMatchesObjectEncoder test) — scan backwards for its
/// marker. Returns an empty view when the marker is absent; names
/// containing JSON escapes come back raw. The result is a
/// deterministic routing KEY (every frame of a vehicle peeks identically),
/// not necessarily the decoded name.
std::string_view wire_peek_vehicle(std::string_view line);

}  // namespace vdap::telemetry::fleet
