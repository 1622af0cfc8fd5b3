// Fleet telemetry suite (`fleet` ctest label): the columnar series and
// store (the `Tsdb` tests), the wire format, the ingest backend's
// dedup/reorder/MAD machinery (the `Aggregator` tests), and the two
// end-to-end scenarios — a canned compute fault on one vehicle is flagged
// as exactly that vehicle (byte-identically per (seed, plan)), and
// shipper loss accounting stays exact under shipping-network impairment.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/fleet.hpp"
#include "net/impair.hpp"
#include "telemetry/fleet/columnar.hpp"
#include "telemetry/fleet/ingest.hpp"
#include "telemetry/fleet/shipper.hpp"
#include "telemetry/fleet/wire.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace vdap {
namespace {

using telemetry::fleet::BlockPool;
using telemetry::fleet::ColumnarSeries;
using telemetry::fleet::ColumnarStore;
using telemetry::fleet::FleetAnomaly;
using telemetry::fleet::ShardedIngestBackend;
using telemetry::fleet::WireFrame;
using telemetry::fleet::WireHealthEvent;
using telemetry::fleet::WireSample;
using telemetry::fleet::wire_decode;
using telemetry::fleet::wire_encode;
using telemetry::fleet::wire_peek_vehicle;

// --- columnar series and store ---------------------------------------------

// Block-summary aggregates across a seal: a fully covered sealed block
// answers from its summary, a partly covered one decodes, and the active
// block is scanned.
TEST(Tsdb, BucketsCountSumMinMax) {
  ColumnarSeries::Options opts;
  opts.block_samples = 2;
  ColumnarSeries series(opts);
  series.append(sim::msec(10), 5.0, nullptr);
  series.append(sim::msec(20), 1.0, nullptr);   // seals [10 ms, 20 ms]
  series.append(sim::msec(150), 9.0, nullptr);  // active block
  EXPECT_EQ(series.sealed_blocks(), 1u);
  const ColumnarSeries::RangeAgg sealed = series.range(0, sim::msec(100));
  EXPECT_EQ(sealed.count, 2u);
  EXPECT_DOUBLE_EQ(sealed.sum, 6.0);
  EXPECT_DOUBLE_EQ(sealed.min, 1.0);
  EXPECT_DOUBLE_EQ(sealed.max, 5.0);
  const ColumnarSeries::RangeAgg partial =
      series.range(sim::msec(15), sim::msec(150));
  EXPECT_EQ(partial.count, 2u);
  EXPECT_DOUBLE_EQ(partial.sum, 10.0);
  EXPECT_DOUBLE_EQ(partial.min, 1.0);
  EXPECT_DOUBLE_EQ(partial.max, 9.0);
  const ColumnarSeries::RangeAgg all = series.range(0, sim::kTimeMax);
  EXPECT_EQ(all.count, 3u);
  EXPECT_DOUBLE_EQ(all.sum, 15.0);
  EXPECT_EQ(series.total_count(), 3u);
  EXPECT_DOUBLE_EQ(series.total_sum(), 15.0);
  EXPECT_DOUBLE_EQ(series.total_min(), 1.0);
  EXPECT_DOUBLE_EQ(series.total_max(), 9.0);
  EXPECT_EQ(series.last_at_or_before(sim::kTimeMax)->first, sim::msec(150));
}

// Eviction past the block budget conserves samples: retained + evicted =
// total, and the lifetime totals stay exact.
TEST(Tsdb, DownsamplingCascadeConservesSamples) {
  ColumnarSeries::Options opts;
  opts.block_samples = 16;
  opts.max_blocks = 3;
  ColumnarSeries series(opts);
  const std::size_t samples = 600;
  for (std::size_t i = 0; i < samples; ++i) {
    series.append(sim::msec(100) * static_cast<sim::SimTime>(i),
                  static_cast<double>(i), nullptr);
  }
  EXPECT_EQ(series.total_count(), samples);
  EXPECT_GT(series.evicted_blocks(), 0u);
  EXPECT_LE(series.sealed_blocks(), opts.max_blocks);
  const std::size_t retained = series.range(0, sim::kTimeMax).count;
  EXPECT_EQ(retained + series.evicted_samples(), samples);
  EXPECT_DOUBLE_EQ(series.total_sum(), 599.0 * 600.0 / 2.0);
  // The evicted samples are the oldest.
  const sim::SimTime last_evicted =
      sim::msec(100) * static_cast<sim::SimTime>(series.evicted_samples() - 1);
  EXPECT_EQ(series.range(0, last_evicted).count, 0u);
  EXPECT_EQ(series.range(last_evicted, sim::kTimeMax).count, retained);
}

// Exact range aggregates and sketch quantiles: the sketch is taken at
// block granularity, so a range touching a sealed block takes all of it.
TEST(Tsdb, RangeSummarizeAndQuantiles) {
  BlockPool pool;
  ColumnarSeries::Options opts;
  opts.block_samples = 16;
  ColumnarStore store(opts, &pool);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.observe("lat", sim::msec(50) * i, 10.0 + i));
  }
  const ColumnarSeries* series = store.series("lat");
  ASSERT_NE(series, nullptr);
  const ColumnarSeries::RangeAgg all = series->range(0, sim::kTimeMax);
  EXPECT_EQ(all.count, 100u);
  EXPECT_DOUBLE_EQ(all.min, 10.0);
  EXPECT_DOUBLE_EQ(all.max, 109.0);
  EXPECT_DOUBLE_EQ(all.sum, 5950.0);
  // A window that covers only the tail: samples 90..99.
  const ColumnarSeries::RangeAgg tail =
      series->range(sim::msec(50) * 90, sim::kTimeMax);
  EXPECT_EQ(tail.count, 10u);
  EXPECT_DOUBLE_EQ(tail.mean(), 104.5);
  // Nearest-rank quantiles over every sample (the cap is not hit).
  const util::Histogram sketch = series->sketch(0, sim::kTimeMax);
  EXPECT_EQ(sketch.count(), 100u);
  EXPECT_EQ(sketch.p50(), 60.0);
  EXPECT_EQ(sketch.p95(), 104.0);
  EXPECT_EQ(sketch.p99(), 108.0);
  // The tail window touches the sealed block of samples 80..95 and the
  // active block 96..99.
  const util::Histogram tail_sketch =
      series->sketch(sim::msec(50) * 90, sim::kTimeMax);
  EXPECT_EQ(tail_sketch.count(), 20u);
  EXPECT_EQ(tail_sketch.min(), 90.0);
  EXPECT_EQ(tail_sketch.max(), 109.0);
}

// Out-of-order appends across a seal stay exact, and non-finite values
// and negative times are rejected and counted.
TEST(Tsdb, OutOfOrderAndRejects) {
  BlockPool pool;
  ColumnarSeries::Options opts;
  opts.block_samples = 2;
  ColumnarStore store(opts, &pool);
  EXPECT_TRUE(store.observe("m", sim::seconds(5), 1.0));
  EXPECT_TRUE(store.observe("m", sim::seconds(1), 2.0));  // late; seals
  EXPECT_TRUE(store.observe("m", sim::seconds(3), 4.0));  // active block
  EXPECT_FALSE(store.observe("m", sim::seconds(2), std::nan("")));
  EXPECT_FALSE(store.observe(
      "m", sim::seconds(2), std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(store.observe("m", -1, 3.0));
  EXPECT_EQ(store.rejected(), 3u);
  const ColumnarSeries* series = store.series("m");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->total_count(), 3u);
  EXPECT_EQ(series->sealed_blocks(), 1u);
  EXPECT_EQ(series->last_at_or_before(sim::kTimeMax)->first,
            sim::seconds(5));
  // Ranges inside the sealed block's [1 s, 5 s] span decode it.
  const ColumnarSeries::RangeAgg early = series->range(0, sim::seconds(2));
  EXPECT_EQ(early.count, 1u);
  EXPECT_DOUBLE_EQ(early.sum, 2.0);
  const ColumnarSeries::RangeAgg mid =
      series->range(sim::seconds(2), sim::seconds(4));
  EXPECT_EQ(mid.count, 1u);
  EXPECT_DOUBLE_EQ(mid.sum, 4.0);
  const ColumnarSeries::RangeAgg late =
      series->range(sim::seconds(4), sim::seconds(5));
  EXPECT_EQ(late.count, 1u);
  EXPECT_DOUBLE_EQ(late.sum, 1.0);
  auto fix = series->last_at_or_before(sim::seconds(2));
  ASSERT_TRUE(fix.has_value());
  EXPECT_EQ(fix->first, sim::seconds(1));
  EXPECT_EQ(fix->second, 2.0);
}

// --- wire format ------------------------------------------------------------

WireFrame sample_frame() {
  WireFrame f;
  f.vehicle = "cav-3";
  f.seq = 7;
  f.created = sim::seconds(12);
  f.counters["svc.ok"] = 4;
  f.gauges["queue"] = 2.5;
  f.samples["lat_ms"] = {{sim::seconds(11), 12.5}, {sim::seconds(12), 14.0}};
  WireHealthEvent ev;
  ev.at = sim::seconds(11);
  ev.kind = "latency-breach";
  ev.severity = "warning";
  ev.service = "license-plate";
  ev.observed = 900.0;
  ev.target = 700.0;
  ev.implicated_tier = "on-board";
  f.events.push_back(ev);
  return f;
}

TEST(Wire, RoundTrip) {
  const WireFrame f = sample_frame();
  const std::string line = wire_encode(f);
  std::string error;
  auto back = wire_decode(line, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->vehicle, f.vehicle);
  EXPECT_EQ(back->seq, f.seq);
  EXPECT_EQ(back->created, f.created);
  EXPECT_EQ(back->counters, f.counters);
  EXPECT_EQ(back->gauges, f.gauges);
  EXPECT_EQ(back->samples, f.samples);
  ASSERT_EQ(back->events.size(), 1u);
  EXPECT_EQ(back->events[0].kind, "latency-breach");
  EXPECT_EQ(back->events[0].service, "license-plate");
  EXPECT_EQ(back->events[0].implicated_tier, "on-board");
  // Deterministic bytes: encoding the decoded frame reproduces the line.
  EXPECT_EQ(wire_encode(*back), line);
}

TEST(Wire, UnknownFieldsTolerated) {
  std::string error;
  auto f = wire_decode(
      R"({"v":"cav-1","seq":2,"t":1000,"future_field":{"x":1},"counters":{"a":1}})",
      &error);
  ASSERT_TRUE(f.has_value()) << error;
  EXPECT_EQ(f->vehicle, "cav-1");
  EXPECT_EQ(f->counters.at("a"), 1);
}

TEST(Wire, MalformedInputsAreCleanErrors) {
  const char* cases[] = {
      "not json at all",
      "[1,2,3]",
      R"({"seq":1,"t":0})",                         // missing vehicle
      R"({"v":"","seq":1,"t":0})",                  // empty vehicle
      R"({"v":"cav-0","seq":0,"t":0})",             // non-positive seq
      R"({"v":"cav-0","seq":1})",                   // missing t
      R"({"v":"cav-0","seq":1,"t":0,"counters":3})",
      R"({"v":"cav-0","seq":1,"t":0,"counters":{"a":1.5}})",
      R"({"v":"cav-0","seq":1,"t":0,"gauges":{"a":"x"}})",
      R"({"v":"cav-0","seq":1,"t":0,"samples":{"m":[[1]]}})",
      R"({"v":"cav-0","seq":1,"t":0,"samples":{"m":[[1,"x"]]}})",
      R"({"v":"cav-0","seq":1,"t":0,"events":[{"at":1}]})",
      R"({"v":"cav-0","seq":1,"t":0,"samples":{"m":[[1,2)",  // truncated
  };
  for (const char* line : cases) {
    std::string error;
    auto f = wire_decode(line, &error);
    EXPECT_FALSE(f.has_value()) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

// The json::Object encoder that wire_encode replaced, kept as the byte
// reference: the frame is one json::Object, so keys serialize sorted and
// "v" comes last.
std::string object_encode(const WireFrame& frame) {
  json::Object obj;
  obj["v"] = frame.vehicle;
  obj["seq"] = static_cast<std::int64_t>(frame.seq);
  obj["t"] = frame.created;
  if (!frame.counters.empty()) {
    json::Object counters;
    for (const auto& [name, v] : frame.counters) counters[name] = v;
    obj["counters"] = std::move(counters);
  }
  if (!frame.gauges.empty()) {
    json::Object gauges;
    for (const auto& [name, v] : frame.gauges) gauges[name] = v;
    obj["gauges"] = std::move(gauges);
  }
  if (!frame.samples.empty()) {
    json::Object samples;
    for (const auto& [name, vec] : frame.samples) {
      json::Array arr;
      for (const auto& s : vec) {
        json::Array pair;
        pair.emplace_back(s.first);
        pair.emplace_back(s.second);
        arr.emplace_back(std::move(pair));
      }
      samples[name] = std::move(arr);
    }
    obj["samples"] = std::move(samples);
  }
  if (!frame.events.empty()) {
    json::Array events;
    for (const WireHealthEvent& ev : frame.events) {
      json::Object e;
      e["at"] = ev.at;
      e["kind"] = ev.kind;
      e["severity"] = ev.severity;
      e["service"] = ev.service;
      e["observed"] = ev.observed;
      e["target"] = ev.target;
      if (!ev.implicated_tier.empty()) e["tier"] = ev.implicated_tier;
      events.push_back(std::move(e));
    }
    obj["events"] = std::move(events);
  }
  return json::Value(std::move(obj)).dump();
}

/// Random frames built to stress the encoder: names mixing quotes,
/// backslashes, control bytes, BMP, astral and invalid UTF-8; NaN/Inf
/// values; empty sample vectors; events with and without a tier; negative
/// times; seq above INT64_MAX; counters at the int64 limits.
class HostileFrames {
 public:
  explicit HostileFrames(std::uint64_t seed) : rng_(seed) {}

  WireFrame next() {
    WireFrame f;
    f.vehicle = chance(0.02) ? "" : name();
    if (chance(0.05)) {
      f.seq = rng_() | (std::uint64_t{1} << 63);  // above INT64_MAX
    } else {
      f.seq = chance(0.02) ? 0 : 1 + rng_() % 1000000;
    }
    f.created = time();
    for (int n = below(4); n > 0; --n) f.counters[name()] = integer();
    for (int n = below(4); n > 0; --n) f.gauges[name()] = value();
    for (int n = below(4); n > 0; --n) {
      std::vector<WireSample>& vec = f.samples[name()];  // may stay empty
      for (int k = below(4); k > 0; --k) vec.emplace_back(time(), value());
    }
    for (int n = below(3); n > 0; --n) {
      WireHealthEvent ev;
      ev.at = time();
      ev.kind = chance(0.02) ? "" : name();
      ev.severity = name();
      ev.service = chance(0.02) ? "" : name();
      ev.observed = value();
      ev.target = value();
      if (chance(0.5)) ev.implicated_tier = name();
      f.events.push_back(std::move(ev));
    }
    return f;
  }

 private:
  int below(int n) {
    return static_cast<int>(rng_() % static_cast<unsigned>(n));
  }
  bool chance(double p) {
    return std::uniform_real_distribution<double>(0, 1)(rng_) < p;
  }

  std::string name() {
    using namespace std::string_view_literals;
    static constexpr std::string_view kPieces[] = {
        "svc"sv, "."sv, "latency_ms"sv, "cav-"sv, "7"sv, " "sv, "/"sv,
        "\""sv, "\\"sv, "\n"sv, "\t"sv, "\b"sv, "\f"sv, "\r"sv,
        "\x01"sv, "\x1f"sv, "\x7f"sv, "\0"sv,               // control
        "\xC3\xA9"sv, "\xE2\x82\xAC"sv, "\xEF\xBF\xBF"sv,   // BMP
        "\xF0\x9F\x9A\x97"sv, "\xF4\x8F\xBF\xBF"sv,       // astral
        "\"v\":\""sv};
    static constexpr std::string_view kInvalidUtf8[] = {
        "\x80"sv, "\xC3"sv, "\xC0\xAF"sv, "\xED\xA0\x80"sv,
        "\xF5\x80\x80\x80"sv, "\xFF"sv, "\xE2\x82"sv};
    std::string out;
    for (int n = 1 + below(4); n > 0; --n) {
      out += kPieces[rng_() % std::size(kPieces)];
    }
    if (chance(0.02)) out += kInvalidUtf8[rng_() % std::size(kInvalidUtf8)];
    return out;
  }

  std::int64_t integer() {
    switch (below(4)) {
      case 0: return std::numeric_limits<std::int64_t>::min();
      case 1: return std::numeric_limits<std::int64_t>::max();
      case 2: return static_cast<std::int64_t>(rng_());
      default: return below(2001) - 1000;
    }
  }

  sim::SimTime time() {
    const auto t = static_cast<sim::SimTime>(rng_() % 1000000000000ULL);
    return chance(0.05) ? -t - 1 : t;
  }

  double value() {
    if (chance(0.03)) {
      constexpr double kInf = std::numeric_limits<double>::infinity();
      constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
      const double odd[] = {kNaN, kInf, -kInf};
      return odd[below(3)];
    }
    switch (below(5)) {
      case 0: return std::normal_distribution<double>(50.0, 20.0)(rng_);
      case 1: return below(20001) - 10000;
      case 2: return std::ldexp(1.0, below(2098) - 1074);
      case 3: return chance(0.5) ? 0.0 : -0.0;
      default: {
        const double d = std::bit_cast<double>(rng_());
        return std::isfinite(d) ? d : 1.5;
      }
    }
  }

  std::mt19937_64 rng_;
};

/// True when wire_decode can give `f` back: finite values, names the
/// escaper keeps intact (valid UTF-8), and a header the decoder accepts.
bool decodable(const WireFrame& f) {
  auto intact = [](const std::string& s) {
    return json::parse(json::escape(s)).as_string() == s;
  };
  constexpr auto kMaxSeq =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (f.vehicle.empty() || !intact(f.vehicle) || f.seq < 1 ||
      f.seq > kMaxSeq || f.created < 0) {
    return false;
  }
  for (const auto& [name, v] : f.counters) {
    if (!intact(name)) return false;
  }
  for (const auto& [name, v] : f.gauges) {
    if (!intact(name) || !std::isfinite(v)) return false;
  }
  for (const auto& [name, vec] : f.samples) {
    if (!intact(name)) return false;
    for (const WireSample& s : vec) {
      if (!std::isfinite(s.second)) return false;
    }
  }
  for (const WireHealthEvent& ev : f.events) {
    if (ev.kind.empty() || ev.service.empty() || !intact(ev.kind) ||
        !intact(ev.severity) || !intact(ev.service) ||
        !intact(ev.implicated_tier) || !std::isfinite(ev.observed) ||
        !std::isfinite(ev.target)) {
      return false;
    }
  }
  return true;
}

TEST(Wire, EncoderMatchesObjectEncoder) {
  HostileFrames gen(20261017);
  int round_trips = 0;
  for (int i = 0; i < 20000; ++i) {
    const WireFrame f = i == 0 ? WireFrame{} : gen.next();
    const std::string line = wire_encode(f);
    ASSERT_EQ(line, object_encode(f)) << "frame " << i;
    // "v" is the last key, so the backwards peek finds the real name.
    const std::string quoted = json::escape(f.vehicle);
    ASSERT_EQ(wire_peek_vehicle(line), quoted.substr(1, quoted.size() - 2))
        << line;
    if (!decodable(f)) continue;
    std::string error;
    const auto back = wire_decode(line, &error);
    ASSERT_TRUE(back.has_value()) << error << ": " << line;
    EXPECT_EQ(back->vehicle, f.vehicle);
    EXPECT_EQ(back->seq, f.seq);
    EXPECT_EQ(back->created, f.created);
    EXPECT_EQ(back->counters, f.counters);
    EXPECT_EQ(back->gauges, f.gauges);
    EXPECT_EQ(back->samples, f.samples);
    ASSERT_EQ(back->events.size(), f.events.size());
    for (std::size_t k = 0; k < f.events.size(); ++k) {
      EXPECT_EQ(back->events[k].at, f.events[k].at);
      EXPECT_EQ(back->events[k].kind, f.events[k].kind);
      EXPECT_EQ(back->events[k].severity, f.events[k].severity);
      EXPECT_EQ(back->events[k].service, f.events[k].service);
      EXPECT_EQ(back->events[k].observed, f.events[k].observed);
      EXPECT_EQ(back->events[k].target, f.events[k].target);
      EXPECT_EQ(back->events[k].implicated_tier, f.events[k].implicated_tier);
    }
    ++round_trips;
  }
  // The generator must keep both halves of the check busy.
  EXPECT_GT(round_trips, 5000);
  EXPECT_LT(round_trips, 15000);
}

// --- wire decoder -----------------------------------------------------------

// The json::Value decoder that wire_decode replaced, kept verbatim as the
// reference: parse the whole line into a tree, then check it field by
// field.
namespace dom {

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

bool decode_counters(const json::Value& v, WireFrame& out,
                     std::string* error) {
  if (!v.is_object()) return fail(error, "wire: \"counters\" is not an object");
  for (const auto& [name, val] : v.as_object()) {
    if (!val.is_int()) {
      return fail(error, "wire: counter \"" + name + "\" is not an integer");
    }
    out.counters[name] = val.as_int();
  }
  return true;
}

bool decode_gauges(const json::Value& v, WireFrame& out, std::string* error) {
  if (!v.is_object()) return fail(error, "wire: \"gauges\" is not an object");
  for (const auto& [name, val] : v.as_object()) {
    if (!val.is_number()) {
      return fail(error, "wire: gauge \"" + name + "\" is not a number");
    }
    out.gauges[name] = val.as_double();
  }
  return true;
}

bool decode_samples(const json::Value& v, WireFrame& out, std::string* error) {
  if (!v.is_object()) return fail(error, "wire: \"samples\" is not an object");
  for (const auto& [name, arr] : v.as_object()) {
    if (!arr.is_array()) {
      return fail(error, "wire: samples \"" + name + "\" is not an array");
    }
    std::vector<WireSample>& dst = out.samples[name];
    for (const json::Value& pair : arr.as_array()) {
      if (!pair.is_array() || pair.size() != 2 || !pair.at(0).is_int() ||
          !pair.at(1).is_number()) {
        return fail(error, "wire: samples \"" + name +
                               "\" entry is not [ts, value]");
      }
      const double value = pair.at(1).as_double();
      if (!std::isfinite(value)) {
        return fail(error, "wire: samples \"" + name + "\" value not finite");
      }
      dst.emplace_back(pair.at(0).as_int(), value);
    }
  }
  return true;
}

bool decode_events(const json::Value& v, WireFrame& out, std::string* error) {
  if (!v.is_array()) return fail(error, "wire: \"events\" is not an array");
  for (const json::Value& ev : v.as_array()) {
    if (!ev.is_object()) {
      return fail(error, "wire: events entry is not an object");
    }
    WireHealthEvent w;
    w.at = ev.get_int("at");
    w.kind = ev.get_string("kind");
    w.severity = ev.get_string("severity");
    w.service = ev.get_string("service");
    w.observed = ev.get_double("observed");
    w.target = ev.get_double("target");
    w.implicated_tier = ev.get_string("tier");
    if (w.kind.empty() || w.service.empty()) {
      return fail(error, "wire: events entry missing kind/service");
    }
    out.events.push_back(std::move(w));
  }
  return true;
}

std::optional<WireFrame> decode(std::string_view line, std::string* error) {
  std::optional<json::Value> parsed = json::try_parse(line);
  if (!parsed.has_value()) {
    fail(error, "wire: frame is not valid JSON");
    return std::nullopt;
  }
  if (!parsed->is_object()) {
    fail(error, "wire: frame is not a JSON object");
    return std::nullopt;
  }

  WireFrame out;
  out.vehicle = parsed->get_string("v");
  if (out.vehicle.empty()) {
    fail(error, "wire: frame missing vehicle (\"v\")");
    return std::nullopt;
  }
  const std::int64_t seq = parsed->get_int("seq", -1);
  if (seq < 1) {
    fail(error, "wire: frame missing positive \"seq\"");
    return std::nullopt;
  }
  out.seq = static_cast<std::uint64_t>(seq);
  out.created = parsed->get_int("t", -1);
  if (out.created < 0) {
    fail(error, "wire: frame missing timestamp (\"t\")");
    return std::nullopt;
  }

  if (const json::Value* v = parsed->find("counters")) {
    if (!decode_counters(*v, out, error)) return std::nullopt;
  }
  if (const json::Value* v = parsed->find("gauges")) {
    if (!decode_gauges(*v, out, error)) return std::nullopt;
  }
  if (const json::Value* v = parsed->find("samples")) {
    if (!decode_samples(*v, out, error)) return std::nullopt;
  }
  if (const json::Value* v = parsed->find("events")) {
    if (!decode_events(*v, out, error)) return std::nullopt;
  }
  return out;
}

}  // namespace dom

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// The first field in which two frames differ, doubles compared by bit
/// pattern (so -0.0 against 0.0 counts); empty when they are equal.
std::string frame_diff(const WireFrame& a, const WireFrame& b) {
  if (a.vehicle != b.vehicle) return "vehicle";
  if (a.seq != b.seq) return "seq";
  if (a.created != b.created) return "t";
  if (a.counters != b.counters) return "counters";
  const auto same_gauge = [](const auto& x, const auto& y) {
    return x.first == y.first && bits(x.second) == bits(y.second);
  };
  if (!std::equal(a.gauges.begin(), a.gauges.end(), b.gauges.begin(),
                  b.gauges.end(), same_gauge)) {
    return "gauges";
  }
  const auto same_sample = [](const WireSample& x, const WireSample& y) {
    return x.first == y.first && bits(x.second) == bits(y.second);
  };
  const auto same_series = [&](const auto& x, const auto& y) {
    return x.first == y.first &&
           std::equal(x.second.begin(), x.second.end(), y.second.begin(),
                      y.second.end(), same_sample);
  };
  if (!std::equal(a.samples.begin(), a.samples.end(), b.samples.begin(),
                  b.samples.end(), same_series)) {
    return "samples";
  }
  const auto same_event = [](const WireHealthEvent& x,
                             const WireHealthEvent& y) {
    return x.at == y.at && x.kind == y.kind && x.severity == y.severity &&
           x.service == y.service && bits(x.observed) == bits(y.observed) &&
           bits(x.target) == bits(y.target) &&
           x.implicated_tier == y.implicated_tier;
  };
  if (!std::equal(a.events.begin(), a.events.end(), b.events.begin(),
                  b.events.end(), same_event)) {
    return "events";
  }
  return "";
}

/// Lines checked against the reference, and how they came out.
struct Tally {
  int lines = 0;
  int accepted = 0;
  int mismatches = 0;
};

/// Decodes `line` with wire_decode and the reference; they must agree on
/// accept/reject, on the error string and on every frame field.
void check_line(std::string_view line, Tally& tally) {
  ++tally.lines;
  std::string want_error;
  std::string got_error;
  const std::optional<WireFrame> want = dom::decode(line, &want_error);
  const std::optional<WireFrame> got = wire_decode(line, &got_error);
  std::string diff;
  if (want.has_value() != got.has_value()) {
    diff = want.has_value() ? "reference accepts" : "reference rejects";
  } else if (want_error != got_error) {
    diff = "reference error " + want_error;
  } else if (want.has_value()) {
    ++tally.accepted;
    diff = frame_diff(*want, *got);
  }
  if (!diff.empty() && ++tally.mismatches <= 5) {
    ADD_FAILURE() << diff << " (wire_decode: " << got_error
                  << ") on line " << json::escape(line);
  }
}

/// Random frame lines from the corners of the grammar: duplicate keys at
/// every level (some spelled with escapes), wrong types in every field,
/// the lenient number tokens, escapes, raw control bytes and invalid
/// UTF-8, whitespace between all tokens, unknown nested fields (a few at
/// the nesting limit either side) and the odd syntax error.
class HostileLines {
 public:
  explicit HostileLines(std::uint64_t seed) : rng_(seed) {}

  std::string next() {
    // Half the lines keep every field's type; the rest get wrong types at
    // one of three rates.
    static constexpr double kWrongRates[] = {0.0, 0.0, 0.0, 0.05, 0.15, 0.4};
    wrong_ = kWrongRates[below(std::size(kWrongRates))];
    if (chance(0.01)) return ws() + any_value(3) + ws();  // not an object
    std::vector<std::string_view> keys;
    for (std::string_view k : {"v", "seq", "t"}) {
      if (chance(0.97)) keys.push_back(k);
    }
    if (chance(0.5)) keys.push_back("counters");
    if (chance(0.5)) keys.push_back("gauges");
    if (chance(0.6)) keys.push_back("samples");
    if (chance(0.3)) keys.push_back("events");
    if (chance(0.15)) keys.push_back(pick({"x", "future", "seqq", "V"}));
    if (!keys.empty() && chance(0.15)) keys.push_back(keys[below(keys.size())]);
    std::vector<std::string> members;
    for (std::string_view k : keys) members.push_back(member(k, field(k)));
    std::shuffle(members.begin(), members.end(), rng_);
    std::string line = ws() + container('{', '}', members) + ws();
    if (chance(0.03)) break_syntax(line);
    return line;
  }

 private:
  std::size_t below(std::size_t n) { return rng_() % n; }
  bool chance(double p) {
    return std::uniform_real_distribution<double>(0, 1)(rng_) < p;
  }
  std::string_view pick(std::initializer_list<std::string_view> options) {
    return options.begin()[below(options.size())];
  }

  std::string ws() {
    std::string out;
    if (chance(0.25)) {
      for (std::size_t n = 1 + below(2); n > 0; --n) out += " \t\n\r"[below(4)];
    }
    return out;
  }

  std::string container(char open, char close,
                        const std::vector<std::string>& items) {
    std::string out(1, open);
    out += ws();
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ws() + "," + ws();
      out += items[i];
    }
    return out + ws() + close;
  }

  std::string member(std::string_view key, std::string value) {
    return str(key) + ws() + ":" + ws() + value;
  }

  /// `raw` as a JSON string token, each byte raw or escaped at random, with
  /// now and then a \u escape of any BMP code point appended.
  std::string str(std::string_view raw) {
    static constexpr char kHex[] = "0123456789abcdefABCDEF";
    auto u_escape = [&](unsigned code) {
      std::string e = "\\u";
      for (int shift = 12; shift >= 0; shift -= 4) {
        const unsigned digit = (code >> shift) & 0xF;
        e += digit < 10 || chance(0.5) ? kHex[digit] : kHex[digit + 6];
      }
      return e;
    };
    std::string out = "\"";
    for (const char c : raw) {
      const auto b = static_cast<unsigned char>(c);
      if (c == '"' || c == '\\') {
        out += chance(0.8) ? std::string{'\\', c} : u_escape(b);
      } else if (b < 0x20 && chance(0.5)) {
        out += c == '\n' ? std::string("\\n") : u_escape(b);
      } else if (c == '/' && chance(0.5)) {
        out += "\\/";
      } else if (b < 0x80 && chance(0.03)) {
        out += u_escape(b);
      } else {
        out += c;  // raw control bytes and invalid UTF-8 included
      }
    }
    if (chance(0.03)) out += u_escape(static_cast<unsigned>(below(0x10000)));
    return out + "\"";
  }

  // Small name pools, so duplicates are common.
  std::string_view vehicle() {
    return pick({"cav-1", "cav-2", "cav-2", "\xC3\xA9", "a\"b\\", "\x01",
                 "\xFF", ""});
  }
  std::string_view name() {
    return pick({"a", "b", "c", "svc.latency_ms", "q", "\x01", "\xC3\xA9",
                 "a\"b", "\xFF", "", "/", "\t"});
  }

  /// An int token, mostly ordinary.
  std::string int_token() {
    if (chance(0.1)) {
      return std::string(pick({"0", "-0", "00012", "-1", "9223372036854775807",
                               "-9223372036854775808"}));
    }
    return std::to_string(static_cast<std::int64_t>(below(1000000000000)) -
                          (chance(0.05) ? 1000 : 0));
  }

  /// A number token the old rule reads as a finite value.
  std::string finite_token() {
    switch (below(4)) {
      case 0: return int_token();
      case 1:
        return std::string(pick(
            {"e", "-.", "+5", "1-2", "1e300", "-1e300", "1e-400", "-1e-400",
             "-0.0", "2.7", "-2.7", "1.5", "1e2", "1E2", ".5", "5.", "1e",
             "1e+", "--5", "+", ".", "E", "1.2.3", "1e5e3", "4.9e-324",
             "9223372036854775808", "-9223372036854775809",
             "123456789012345678901234567890", "0.1000000000000000055511151231257827",
             "2.4703282292062327e-324", "1.7976931348623157e308"}));
      case 2: {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.*g", 1 + static_cast<int>(below(17)),
                      std::normal_distribution<double>(50, 30)(rng_));
        return buf;
      }
      default: {
        std::string tok = chance(0.3) ? "-" : "";
        for (std::size_t n = 1 + below(6); n > 0; --n) {
          tok += "0123456789.eE+-"[below(15)];
        }
        // Keep it finite: random exponents could overflow.
        return tok.find_first_of("eE") == std::string::npos ? tok : "7";
      }
    }
  }

  /// Any number token, infinite ones included.
  std::string number_token() {
    return chance(0.05) ? std::string(pick({"1e999", "-1e999", "1.8e308"}))
                        : finite_token();
  }

  /// A value of any type, with at most `levels` levels of containers.
  std::string any_value(int levels) {
    switch (below(levels > 0 ? 6 : 4)) {
      case 0: return number_token();
      case 1: return str(name());
      case 2: return std::string(pick({"true", "false", "null"}));
      case 3: return chance(0.5) ? "[]" : "{}";
      case 4: {
        std::vector<std::string> items;
        for (std::size_t n = below(4); n > 0; --n) {
          items.push_back(any_value(levels - 1));
        }
        return container('[', ']', items);
      }
      default: {
        std::vector<std::string> items;
        for (std::size_t n = below(4); n > 0; --n) {
          items.push_back(member(name(), any_value(levels - 1)));
        }
        return container('{', '}', items);
      }
    }
  }

  /// An unknown field's value: usually small, now and then nested so the
  /// whole line sits at json::kMaxDepth or one level either side of it.
  std::string unknown(int depth) {
    if (!chance(0.01)) return any_value(3);
    const int levels = json::kMaxDepth - depth - 1 + static_cast<int>(below(3));
    std::string open;
    std::string close;
    for (int i = 0; i < levels; ++i) {
      if (chance(0.5)) {
        open += "[";
        close += "]";
      } else {
        open += "{\"k\":";
        close += "}";
      }
    }
    std::reverse(close.begin(), close.end());
    return open + "0" + close;
  }

  /// The value of top-level field `key`.
  std::string field(std::string_view key) {
    if (key == "v") return chance(wrong_) ? any_value(2) : str(vehicle());
    if (key == "seq") {
      if (chance(wrong_)) return chance(0.5) ? number_token() : any_value(2);
      return std::to_string(1 + below(1000000));
    }
    if (key == "t") {
      if (chance(wrong_)) return chance(0.5) ? number_token() : any_value(2);
      return int_token();
    }
    if (key == "counters") {
      return section('{', [&] {
        if (!chance(wrong_)) return int_token();
        return chance(0.5) ? number_token() : any_value(2);
      });
    }
    if (key == "gauges") {
      return section('{', [&] {
        return chance(wrong_) ? any_value(2) : number_token();
      });
    }
    if (key == "samples") return section('{', [&] { return series(); });
    if (key == "events") return section('[', [&] { return event(); });
    return unknown(1);
  }

  /// A counters/gauges/samples object or the events array, whose members
  /// come from `value`; sometimes a value of the wrong type instead.
  template <typename F>
  std::string section(char open, F value) {
    if (chance(wrong_)) return any_value(2);
    std::vector<std::string> names;
    for (std::size_t n = below(4); n > 0; --n) names.emplace_back(name());
    if (!names.empty() && chance(0.2)) names.push_back(names[below(names.size())]);
    std::vector<std::string> items;
    for (const std::string& n : names) {
      items.push_back(open == '{' ? member(n, value()) : value());
    }
    return container(open, open == '{' ? '}' : ']', items);
  }

  /// One metric's samples array.
  std::string series() {
    std::vector<std::string> entries;
    for (std::size_t n = below(4); n > 0; --n) {
      if (chance(wrong_)) {
        entries.emplace_back(pick({"[1]", "[]", "[1,2,3]", "[\"x\",1]",
                                   "[1.5,2]", "[1,\"x\"]", "1", "[1,1e999]",
                                   "[1,-1e999]", "[[1],2]", "{}"}));
      } else {
        entries.push_back(container(
            '[', ']',
            {int_token(), chance(0.97) ? finite_token() : number_token()}));
      }
    }
    return container('[', ']', entries);
  }

  /// One events entry: fields in any order, some missing, duplicated or of
  /// the wrong type, plus unknown ones.
  std::string event() {
    if (chance(wrong_)) return any_value(2);
    const auto text = [&](std::initializer_list<std::string_view> pool) {
      return chance(wrong_) ? any_value(1) : str(pick(pool));
    };
    const auto number = [&] {
      return chance(wrong_) ? any_value(1) : number_token();
    };
    std::vector<std::pair<std::string_view, std::string>> fields;
    const auto add = [&](std::string_view key) {
      if (key == "at") {
        fields.emplace_back(key, chance(wrong_) ? number_token() : int_token());
      } else if (key == "kind") {
        fields.emplace_back(key, text({"latency-breach", "fault", ""}));
      } else if (key == "severity") {
        fields.emplace_back(key, text({"warning", "critical"}));
      } else if (key == "service") {
        fields.emplace_back(key, text({"license-plate", "\xC3\xA9", ""}));
      } else if (key == "tier") {
        fields.emplace_back(key, text({"on-board", "edge", ""}));
      } else if (key == "observed" || key == "target") {
        fields.emplace_back(key, number());
      } else {
        fields.emplace_back(key, unknown(3));
      }
    };
    for (std::string_view key :
         {"at", "kind", "severity", "service", "observed", "target"}) {
      if (chance(0.95)) add(key);
    }
    if (chance(0.5)) add("tier");
    if (chance(0.1)) add("extra");
    if (!fields.empty() && chance(0.15)) add(fields[below(fields.size())].first);
    std::vector<std::string> items;
    for (auto& [key, value] : fields) items.push_back(member(key, value));
    std::shuffle(items.begin(), items.end(), rng_);
    return container('{', '}', items);
  }

  /// One small syntax error: a stray, dropped or doubled byte, or a bad
  /// escape or literal.
  void break_syntax(std::string& line) {
    const std::size_t at = below(line.size() + 1);
    switch (below(4)) {
      case 0: line.insert(at, 1, ",:{}[]\"x"[below(8)]); break;
      case 1: if (at < line.size()) line.erase(at, 1); break;
      case 2: line.insert(at, pick({"\\q", "\\u12", "tru", "-", "nul"})); break;
      default: line += pick({",", "}", " x", "\""}); break;
    }
  }

  std::mt19937_64 rng_;
  double wrong_ = 0.0;  // chance that a field takes a value of the wrong type
};

/// Encoded frames whose every truncation and single-byte mutation the
/// differential test decodes.
std::vector<std::string> mutation_seeds() {
  WireFrame minimal;
  minimal.vehicle = "a";
  minimal.seq = 1;
  WireFrame two_events = sample_frame();
  two_events.events.push_back(two_events.events[0]);
  two_events.events[1].implicated_tier.clear();
  two_events.events[1].observed = -0.0;
  two_events.gauges["q\"\\\x01"] = 1e-300;
  WireFrame escaped;
  escaped.vehicle = "cav-\xC3\xA9/\"";
  escaped.seq = 9;
  escaped.created = 5;
  escaped.counters["n"] = -9;
  escaped.samples["m"] = {{1, 2.5}};
  escaped.samples["e"] = {};
  return {wire_encode(minimal), wire_encode(sample_frame()),
          wire_encode(two_events), wire_encode(escaped)};
}

class WireDecoderDifferential : public ::testing::TestWithParam<int> {};

// 8 shards x 25,000 generated lines, plus every truncation and every
// single-byte mutation (all 256 values, and deletion) of the seed frames,
// each shard taking the byte positions congruent to its index mod 8.
TEST_P(WireDecoderDifferential, MatchesDomDecoder) {
  const int shard = GetParam();
  Tally generated;
  HostileLines gen(0xdec0de00u + static_cast<unsigned>(shard));
  for (int i = 0; i < 25000; ++i) check_line(gen.next(), generated);
  // The generator keeps both verdicts busy.
  EXPECT_GT(generated.accepted, 5000);
  EXPECT_LT(generated.accepted, 15000);

  Tally mutated;
  for (const std::string& line : mutation_seeds()) {
    for (std::size_t i = static_cast<std::size_t>(shard); i <= line.size();
         i += 8) {
      check_line(std::string_view(line).substr(0, i), mutated);
      if (i == line.size()) break;
      std::string m = line;
      for (int b = 0; b < 256; ++b) {
        m[i] = static_cast<char>(b);
        check_line(m, mutated);
      }
      check_line(line.substr(0, i) + line.substr(i + 1), mutated);
    }
  }
  EXPECT_GT(mutated.accepted, 5000);
  EXPECT_EQ(generated.mismatches + mutated.mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(Shards, WireDecoderDifferential, ::testing::Range(0, 8));

/// wire_decode of a frame header followed by `fields`.
std::optional<WireFrame> decode_with(const std::string& fields,
                                     std::string* error) {
  return wire_decode(R"({"v":"cav-1","seq":1,"t":0)" + fields + "}", error);
}

TEST(Wire, DecoderKeepsTheOldLenientRules) {
  std::string error;
  // json::Object keeps the last of duplicate keys, at every level.
  auto f = decode_with(R"(,"counters":{"a":1.5,"a":2},"v":"cav-2")", &error);
  ASSERT_TRUE(f.has_value()) << error;
  EXPECT_EQ(f->counters.at("a"), 2);
  EXPECT_EQ(f->vehicle, "cav-2");
  f = decode_with(R"(,"counters":3,"counters":{"b":1})", &error);
  ASSERT_TRUE(f.has_value()) << error;
  EXPECT_EQ(f->counters.at("b"), 1);
  // Numbers: an optional '-' and the longest run of [0-9.eE+-], read as
  // strtod reads it unless it is a plain int.
  f = decode_with(
      R"(,"counters":{"c":00012},"gauges":{"e":e,"m":-.,"p":+5,"d":1-2,"i":1e999,"z":-0.0,"y":-0})",
      &error);
  ASSERT_TRUE(f.has_value()) << error;
  EXPECT_EQ(f->counters.at("c"), 12);
  EXPECT_EQ(bits(f->gauges.at("e")), bits(0.0));
  EXPECT_EQ(bits(f->gauges.at("m")), bits(0.0));
  EXPECT_EQ(f->gauges.at("p"), 5.0);
  EXPECT_EQ(f->gauges.at("d"), 1.0);
  EXPECT_EQ(f->gauges.at("i"), std::numeric_limits<double>::infinity());
  EXPECT_EQ(bits(f->gauges.at("z")), bits(-0.0));
  EXPECT_EQ(bits(f->gauges.at("y")), bits(0.0));  // the int 0
  // A double seq or t is truncated; wrong-typed event fields default.
  f = wire_decode(R"({"v":"x","seq":2.7,"t":9.9,"events":[{"kind":"k","service":"s","observed":"x","at":-3.5}]})",
                  &error);
  ASSERT_TRUE(f.has_value()) << error;
  EXPECT_EQ(f->seq, 2u);
  EXPECT_EQ(f->created, 9);
  EXPECT_EQ(f->events.at(0).observed, 0.0);
  EXPECT_EQ(f->events.at(0).at, -3);
  // An empty samples array still creates the metric's key; escapes decode
  // and raw control bytes pass through.
  f = decode_with("," R"("samples":{"m":[]},"gauges":{"é\/)" "\x01" R"(":1})",
                  &error);
  ASSERT_TRUE(f.has_value()) << error;
  EXPECT_TRUE(f->samples.at("m").empty());
  EXPECT_EQ(f->gauges.count("\xC3\xA9/\x01"), 1u);
}

TEST(Wire, DecoderReportsTheOldFirstError) {
  const std::pair<std::string, std::string> cases[] = {
      // Sorted order within a section, whatever the line order.
      {R"({"v":"x","seq":1,"t":0,"counters":{"b":1.5,"a":"x"}})",
       R"(wire: counter "a" is not an integer)"},
      {R"({"v":"x","seq":1,"t":0,"counters":{"a":1e2}})",
       R"(wire: counter "a" is not an integer)"},
      {R"({"v":"x","seq":1,"t":0,"samples":{"m":[[1,2],[1]],"l":5}})",
       R"(wire: samples "l" is not an array)"},
      {R"({"v":"x","seq":1,"t":0,"samples":{"m":[[1,1e999],[1]]}})",
       R"(wire: samples "m" value not finite)"},
      {R"({"v":"x","seq":1,"t":0,"gauges":{"g":null}})",
       R"(wire: gauge "g" is not a number)"},
      // Sections in the fixed order, the first bad events entry.
      {R"({"events":5,"counters":{"a":"x"},"v":"x","seq":1,"t":0})",
       R"(wire: counter "a" is not an integer)"},
      {R"({"v":"x","seq":1,"t":0,"events":[{"kind":"a","kind":5,"service":"s"},1]})",
       "wire: events entry missing kind/service"},
      {R"({"v":"x","seq":1,"t":0,"events":[1,{"at":1}]})",
       "wire: events entry is not an object"},
      // The header before any section; a syntax error before everything.
      {R"({"counters":3,"v":5,"seq":1,"t":0})", R"(wire: frame missing vehicle ("v"))"},
      {R"({"v":"x","seq":"1","t":0})", R"(wire: frame missing positive "seq")"},
      {R"({"v":"x","seq":9223372036854775808,"t":0})",
       R"(wire: frame missing positive "seq")"},
      {R"({"v":"","seq":0,"t":0,"counters":{"a":"x"}])",
       "wire: frame is not valid JSON"},
      {"e", "wire: frame is not a JSON object"},
      {"[1,{}]", "wire: frame is not a JSON object"},
      {"-", "wire: frame is not valid JSON"},
  };
  for (const auto& [line, want] : cases) {
    std::string error;
    EXPECT_FALSE(wire_decode(line, &error).has_value()) << line;
    EXPECT_EQ(error, want) << line;
  }
}

TEST(Wire, DecoderNestingLimit) {
  const auto nested = [](int levels) {
    return std::string(static_cast<std::size_t>(levels), '[') +
           std::string(static_cast<std::size_t>(levels), ']');
  };
  std::string error;
  // 100k levels used to overflow the stack; now a clean error.
  EXPECT_FALSE(decode_with(",\"x\":" + nested(100000), &error).has_value());
  EXPECT_EQ(error, "wire: frame is not valid JSON");
  EXPECT_FALSE(wire_decode(nested(100000), &error).has_value());
  EXPECT_EQ(error, "wire: frame is not valid JSON");
  // The frame object is level 1, so a field may nest kMaxDepth - 1 deep.
  EXPECT_TRUE(decode_with(",\"x\":" + nested(json::kMaxDepth - 1), &error)
                  .has_value())
      << error;
  EXPECT_FALSE(
      decode_with(",\"x\":" + nested(json::kMaxDepth), &error).has_value());
  EXPECT_EQ(error, "wire: frame is not valid JSON");
  EXPECT_FALSE(wire_decode(nested(json::kMaxDepth), &error).has_value());
  EXPECT_EQ(error, "wire: frame is not a JSON object");
}

TEST(Wire, DecoderOutOfRangeDoublesReadAsInt64Min) {
  const std::pair<std::string, std::string> rejected[] = {
      {R"({"v":"x","seq":1e300,"t":0})", R"(wire: frame missing positive "seq")"},
      {R"({"v":"x","seq":1e999,"t":0})", R"(wire: frame missing positive "seq")"},
      {R"({"v":"x","seq":1,"t":-1e300})", R"(wire: frame missing timestamp ("t"))"},
      {R"({"v":"x","seq":1,"t":1e999})", R"(wire: frame missing timestamp ("t"))"},
  };
  for (const auto& [line, want] : rejected) {
    std::string error;
    EXPECT_FALSE(wire_decode(line, &error).has_value()) << line;
    EXPECT_EQ(error, want) << line;
  }
  for (const char* at : {"1e300", "-1e300", "1e999", "-1e999"}) {
    std::string error;
    const auto f = decode_with(std::string(R"(,"events":[{"kind":"k","service":"s","at":)") + at + "}]",
                               &error);
    ASSERT_TRUE(f.has_value()) << error;
    EXPECT_EQ(f->events.at(0).at, std::numeric_limits<std::int64_t>::min()) << at;
  }
}

// --- ingest backend ---------------------------------------------------------

WireFrame frame_for(const std::string& vehicle, std::uint64_t seq,
                    sim::SimTime at, double latency) {
  WireFrame f;
  f.vehicle = vehicle;
  f.seq = seq;
  f.created = at;
  f.samples["lat_ms"] = {{at, latency}};
  return f;
}

/// Ingests one batch: `latency(v)` for vehicles cav-0..cav-4, at `round`
/// seconds with sequence number `round`.
template <typename Latency>
void ingest_round(ShardedIngestBackend* backend, int round, Latency latency) {
  std::vector<std::string> lines;
  for (int v = 0; v < 5; ++v) {
    lines.push_back(wire_encode(frame_for(
        "cav-" + std::to_string(v), static_cast<std::uint64_t>(round),
        sim::seconds(round), latency(v))));
  }
  std::vector<std::string_view> views(lines.begin(), lines.end());
  backend->ingest_batch(views);
}

// Dedup, reorder and loss accounting through ingest_line, including the
// remembered sequence window.
TEST(Aggregator, DuplicatesAndReorderingTolerated) {
  ShardedIngestBackend backend;
  auto ingest = [&backend](std::uint64_t seq) {
    return backend.ingest_line(wire_encode(frame_for(
        "cav-0", seq, sim::seconds(static_cast<std::int64_t>(seq)), 10)));
  };
  EXPECT_TRUE(ingest(1));
  EXPECT_TRUE(ingest(3));
  EXPECT_TRUE(ingest(2));   // late
  EXPECT_FALSE(ingest(2));  // dup
  EXPECT_FALSE(ingest(1));  // dup
  EXPECT_EQ(backend.frames_ingested(), 3u);
  EXPECT_EQ(backend.duplicates(), 2u);
  EXPECT_EQ(backend.reordered(), 1u);
  EXPECT_EQ(backend.lost_frames(), 0u);
  // A gap: seq 6 arrives, 4 and 5 never do.
  EXPECT_TRUE(ingest(6));
  EXPECT_EQ(backend.lost_frames(), 2u);
  // Duplicate ingestion does not double-count samples.
  EXPECT_EQ(backend.samples_ingested(), 4u);
  // 4096 sequence numbers are remembered: at max_seq 5000, seq 904 is
  // taken as already seen and seq 905 as a late arrival.
  EXPECT_TRUE(ingest(5000));
  EXPECT_FALSE(ingest(904));
  EXPECT_TRUE(ingest(905));
  EXPECT_EQ(backend.frames_ingested(), 6u);
  EXPECT_EQ(backend.duplicates(), 3u);
  EXPECT_EQ(backend.reordered(), 2u);
  EXPECT_EQ(backend.lost_frames(), 5000u - 6u);
  backend.barrier();
  EXPECT_EQ(backend.watermark(), sim::seconds(5000));
}

// A malformed line is counted as a decode error and reported, and the
// next line still ingests.
TEST(Aggregator, MalformedLinesCountedNotFatal) {
  ShardedIngestBackend backend;
  std::string error;
  EXPECT_FALSE(backend.ingest_line("{{{{", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(
      backend.ingest_line(wire_encode(frame_for("cav-0", 1, 1000, 5))));
  EXPECT_EQ(backend.decode_errors(), 1u);
  EXPECT_EQ(backend.frames_ingested(), 1u);
}

// With the default detection settings the deviant vehicle is flagged
// exactly once, at the first barrier, with its own window mean.
TEST(Aggregator, MadDetectorFlagsTheDeviantVehicleOnly) {
  ShardedIngestBackend backend;
  // Five vehicles, 20 batches: cav-3 runs 3x slower than the pack.
  for (int round = 1; round <= 20; ++round) {
    ingest_round(&backend, round, [round](int v) {
      const double jitter = 0.1 * ((round + v) % 3);
      return (v == 3 ? 300.0 : 100.0) + jitter;
    });
  }
  ASSERT_EQ(backend.anomalies().size(), 1u) << backend.anomaly_table();
  const FleetAnomaly& a = backend.anomalies()[0];
  EXPECT_EQ(a.vehicle, "cav-3");
  EXPECT_EQ(a.metric, "lat_ms");
  EXPECT_EQ(a.at, sim::seconds(1));
  EXPECT_DOUBLE_EQ(a.value, 300.1);
  EXPECT_GT(a.score, 3.5);
  EXPECT_NEAR(a.fleet_median, 100.0, 5.0);
  EXPECT_EQ(backend.anomalous_vehicles(),
            std::vector<std::string>{std::string("cav-3")});
}

// A uniform fleet (MAD 0, floored) is scored at every barrier and never
// flagged.
TEST(Aggregator, UniformFleetNeverFlags) {
  ShardedIngestBackend backend;
  for (int round = 1; round <= 20; ++round) {
    ingest_round(&backend, round, [](int) { return 100.0; });
  }
  EXPECT_TRUE(backend.anomalies().empty()) << backend.anomaly_table();
  EXPECT_EQ(backend.detect_passes(), 20u);
  const std::string rollup = backend.rollup_table();
  EXPECT_NE(rollup.find("lat_ms"), std::string::npos);
}

// --- shipper over an impairable topology ------------------------------------

TEST(Shipper, DeliversFramesAndAccountsDrops) {
  sim::Simulator sim(5);
  net::Topology topo(sim);
  net::ImpairmentController imp(topo);
  std::vector<std::string> delivered;
  telemetry::fleet::TelemetryShipper::Options opts;
  opts.max_queue = 4;
  opts.max_attempts = 3;
  opts.backoff_base = sim::msec(100);
  telemetry::fleet::TelemetryShipper shipper(
      sim, "cav-0", topo,
      [&](const std::string& bytes) { delivered.push_back(bytes); }, opts);
  shipper.start();
  sim.every(sim::msec(500), [&]() { shipper.observe("m", 1.0); });

  // Healthy uplink: everything ships.
  sim.run_until(sim::seconds(10));
  EXPECT_GT(shipper.stats().frames_acked, 0u);
  EXPECT_EQ(shipper.stats().frames_dropped, 0u);

  // Tier down long enough to exhaust retries and overflow the queue.
  imp.link_down(net::Tier::kCloud);
  sim.run_until(sim::seconds(40));
  imp.link_up(net::Tier::kCloud);
  sim.run_until(sim::seconds(60));
  shipper.stop();
  shipper.flush_now();
  sim.run_until(sim::seconds(90));

  const auto& s = shipper.stats();
  EXPECT_GT(s.frames_dropped, 0u);
  EXPECT_GT(s.retries, 0u);
  EXPECT_TRUE(shipper.idle());
  // The loss-accounting identity the fleet chaos test also asserts.
  EXPECT_EQ(s.frames_enqueued - s.frames_acked, s.frames_dropped);
  EXPECT_EQ(delivered.size(), s.frames_acked);
  EXPECT_GT(s.wire_bytes, 0u);
  // The shipper counts a frame's samples when it cuts it and adds them
  // when the frame is acked: exactly the samples the callback received.
  std::uint64_t samples = 0;
  for (const std::string& bytes : delivered) {
    const std::optional<WireFrame> frame = wire_decode(bytes);
    ASSERT_TRUE(frame.has_value());
    for (const auto& [metric, series] : frame->samples) {
      samples += series.size();
    }
  }
  EXPECT_GT(samples, 0u);
  EXPECT_LT(samples, s.samples_recorded);  // the dropped frames' samples
  EXPECT_EQ(s.samples_acked, samples);
}

TEST(Shipper, PendingBuffersKeepTheNewest512SamplesAnd64Events) {
  sim::Simulator sim(5);
  net::Topology topo(sim);
  std::vector<std::string> delivered;
  telemetry::fleet::TelemetryShipper shipper(
      sim, "cav-0", topo,
      [&](const std::string& bytes) { delivered.push_back(bytes); });
  // Never started, so everything below lands in one flush window.
  for (int i = 0; i < 600; ++i) shipper.observe("m", i);
  for (int i = 0; i < 70; ++i) {
    telemetry::analysis::HealthEvent e;
    e.service = "svc";
    e.observed = i;
    shipper.on_health_event(e);
  }
  shipper.flush_now();
  sim.run_until(sim::seconds(30));

  ASSERT_EQ(delivered.size(), 1u);
  const std::optional<WireFrame> frame = wire_decode(delivered[0]);
  ASSERT_TRUE(frame.has_value());
  const std::vector<WireSample>& samples = frame->samples.at("m");
  ASSERT_EQ(samples.size(), 512u);
  for (std::size_t k = 0; k < samples.size(); ++k) {
    EXPECT_EQ(samples[k].second, static_cast<double>(88 + k)) << k;
  }
  ASSERT_EQ(frame->events.size(), 64u);
  for (std::size_t k = 0; k < frame->events.size(); ++k) {
    EXPECT_EQ(frame->events[k].observed, static_cast<double>(6 + k)) << k;
  }
  const auto& s = shipper.stats();
  EXPECT_EQ(s.samples_recorded, 600u);
  EXPECT_EQ(s.samples_dropped, 88u);
  EXPECT_TRUE(shipper.idle());
  EXPECT_EQ(s.samples_recorded, s.samples_acked + s.samples_dropped);
}

// The pending maps and cut TelemetryShipper used before its buffers became
// resident, kept verbatim as the reference: every cut moved the maps into
// a WireFrame and encoded it with wire_encode. The transport is left out,
// so cut_frame() returns the frame it would have enqueued.
namespace map_cut {

constexpr std::size_t kMaxSamplesPerMetric = 512;
constexpr std::size_t kMaxEvents = 64;

struct Outbound {
  std::uint64_t samples = 0;
  std::string bytes;
};

class Shipper {
 public:
  Shipper(sim::Simulator& sim, std::string vehicle)
      : sim_(sim), vehicle_(std::move(vehicle)) {}

  void count(std::string_view name, std::int64_t by = 1) {
    pending_counters_[std::string(name)] += by;
  }

  void gauge(std::string_view name, double value) {
    if (!std::isfinite(value)) return;
    pending_gauges_[std::string(name)] = value;
  }

  void observe(std::string_view name, double value) {
    if (!std::isfinite(value)) return;
    std::vector<WireSample>& buf = pending_samples_[std::string(name)];
    buf.emplace_back(sim_.now(), value);
    ++stats_.samples_recorded;
    if (buf.size() > kMaxSamplesPerMetric) {
      buf.erase(buf.begin());
      ++stats_.samples_dropped;
    }
  }

  void on_health_event(const telemetry::analysis::HealthEvent& event) {
    WireHealthEvent w;
    w.at = event.at;
    w.kind = std::string(telemetry::analysis::to_string(event.kind));
    w.severity = std::string(telemetry::analysis::to_string(event.severity));
    w.service = event.service;
    w.observed = event.observed;
    w.target = event.target;
    w.implicated_tier = event.implicated_tier;
    pending_events_.push_back(std::move(w));
    if (pending_events_.size() > kMaxEvents) {
      pending_events_.erase(pending_events_.begin());
    }
  }

  std::optional<Outbound> cut_frame() {
    if (pending_counters_.empty() && pending_gauges_.empty() &&
        pending_samples_.empty() && pending_events_.empty()) {
      return std::nullopt;
    }
    WireFrame frame;
    frame.vehicle = vehicle_;
    frame.seq = ++seq_;
    frame.created = sim_.now();
    frame.counters = std::move(pending_counters_);
    frame.gauges = std::move(pending_gauges_);
    frame.samples = std::move(pending_samples_);
    frame.events = std::move(pending_events_);
    pending_counters_.clear();
    pending_gauges_.clear();
    pending_samples_.clear();
    pending_events_.clear();

    Outbound ob;
    for (const auto& [metric, samples] : frame.samples) {
      ob.samples += samples.size();
    }
    ob.bytes = wire_encode(frame);
    ++stats_.frames_enqueued;
    return ob;
  }

  const telemetry::fleet::TelemetryShipper::Stats& stats() const {
    return stats_;
  }

 private:
  sim::Simulator& sim_;
  std::string vehicle_;
  std::map<std::string, std::int64_t> pending_counters_;
  std::map<std::string, double> pending_gauges_;
  std::map<std::string, std::vector<WireSample>> pending_samples_;
  std::vector<WireHealthEvent> pending_events_;
  std::uint64_t seq_ = 0;
  telemetry::fleet::TelemetryShipper::Stats stats_;
};

}  // namespace map_cut

TEST(Shipper, ResidentBuffersCutTheFramesTheMapCutDid) {
  // Random operation sequences on a shipper and on the map cut: counts
  // (0 and negative included), gauges and observations (NaN and ±inf
  // included), health events, names that need JSON escapes, windows of
  // more than 512 samples of one metric, metrics live in one window and
  // absent from the next, and windows with nothing new. Every frame must
  // be byte-equal, and so must the accounting.
  const std::vector<std::string> names = {
      "svc.latency_ms", "svc.samples", "a", "a\"b\\c", "tab\tname",
      "\xc3\xbcnicode", "ctl\x01", "loc.x", "", "z"};
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::size_t frames = 0;
  std::size_t empty_windows = 0;
  std::size_t long_windows = 0;
  for (std::uint64_t trial = 1; trial <= 24; ++trial) {
    std::mt19937_64 rng(trial);
    sim::Simulator sim(trial);
    net::Topology topo(sim);
    telemetry::fleet::TelemetryShipper::Options opts;
    opts.max_queue = 4096;
    opts.max_attempts = 1000;  // a lossy attempt must not drop a frame
    std::vector<std::string> delivered;
    const std::string vehicle = trial % 2 == 0 ? "cav-7" : "cav-\"q\"\n";
    telemetry::fleet::TelemetryShipper shipper(
        sim, vehicle, topo,
        [&](const std::string& bytes) { delivered.push_back(bytes); }, opts);
    map_cut::Shipper reference(sim, vehicle);
    std::vector<std::string> expected;
    std::uint64_t expected_samples = 0;

    auto value = [&]() {
      switch (rng() % 16) {
        case 0: return nan;
        case 1: return inf;
        case 2: return -inf;
        case 3: return 0.0;
        default:
          return std::ldexp(static_cast<double>(rng() % 2000000) - 1e6,
                            static_cast<int>(rng() % 40) - 30);
      }
    };
    for (int window = 0; window < 40; ++window) {
      // The metrics live in this window: a random subset of the names.
      std::vector<const std::string*> live;
      for (const std::string& n : names) {
        if (rng() % 3 == 0) live.push_back(&n);
      }
      const std::uint64_t shape = rng() % 8;
      int ops = static_cast<int>(rng() % 60);
      if (shape == 0 || live.empty()) {
        ops = 0;
        ++empty_windows;
      } else if (shape == 1) {
        ops = 600 + static_cast<int>(rng() % 200);
        ++long_windows;
      }
      for (int k = 0; k < ops; ++k) {
        sim.run_until(sim.now() + static_cast<sim::SimDuration>(rng() % 700));
        const std::string& name = *live[rng() % live.size()];
        const std::uint64_t op = shape == 1 ? 2 : rng() % 7;
        if (op == 0) {
          const std::int64_t by =
              rng() % 4 == 0 ? 0 : static_cast<std::int64_t>(rng() % 100) - 30;
          shipper.count(name, by);
          reference.count(name, by);
        } else if (op == 1) {
          const double v = value();
          shipper.gauge(name, v);
          reference.gauge(name, v);
        } else if (op <= 4) {
          // A long window piles its samples onto one metric.
          const std::string& series = shape == 1 ? *live[0] : name;
          const double v = value();
          shipper.observe(series, v);
          reference.observe(series, v);
        } else if (op == 5) {
          telemetry::analysis::HealthEvent e;
          e.kind = static_cast<telemetry::analysis::HealthEventKind>(rng() % 4);
          e.severity = static_cast<telemetry::analysis::Severity>(rng() % 2);
          e.at = sim.now();
          e.service = name;
          e.observed = value();
          e.target = value();
          e.implicated_tier = rng() % 2 == 0 ? "" : name;
          shipper.on_health_event(e);
          reference.on_health_event(e);
        } else {
          shipper.count(name);
          reference.count(name);
        }
      }
      shipper.flush_now();
      if (std::optional<map_cut::Outbound> ob = reference.cut_frame()) {
        expected.push_back(std::move(ob->bytes));
        expected_samples += ob->samples;
      }
      sim.run_until(sim.now() + sim::msec(200));
    }
    sim.run_until(sim.now() + sim::seconds(60));

    ASSERT_TRUE(shipper.idle()) << "trial " << trial;
    ASSERT_EQ(delivered.size(), expected.size()) << "trial " << trial;
    for (std::size_t f = 0; f < expected.size(); ++f) {
      ASSERT_EQ(delivered[f], expected[f]) << "trial " << trial << " frame " << f;
    }
    frames += expected.size();
    const auto& got = shipper.stats();
    const auto& want = reference.stats();
    EXPECT_EQ(got.frames_enqueued, want.frames_enqueued);
    EXPECT_EQ(got.frames_acked, want.frames_enqueued);
    EXPECT_EQ(got.frames_dropped, 0u);
    EXPECT_EQ(got.samples_recorded, want.samples_recorded);
    EXPECT_EQ(got.samples_dropped, want.samples_dropped);
    EXPECT_EQ(got.samples_acked, expected_samples);
  }
  // The generator must keep every shape of window busy.
  EXPECT_GT(frames, 500u);
  EXPECT_GT(empty_windows, 50u);
  EXPECT_GT(long_windows, 50u);
}

// --- end-to-end fleet scenarios ---------------------------------------------

core::FleetConfig quick_config(const std::string& tag) {
  core::FleetConfig cfg;
  cfg.vehicles = 5;
  cfg.seed = 11;
  cfg.dir_tag = tag;
  cfg.load_until = sim::seconds(120);
  cfg.run_until = sim::seconds(150);
  cfg.drain = sim::seconds(45);
  return cfg;
}

TEST(Fleet, ComputeOutlierFlagsExactlyTheImpairedVehicle) {
  const sim::FaultPlan plan = core::fleet_compute_outlier_plan(2);
  core::FleetOutcome a = core::run_fleet(plan, quick_config("outlier-a"));
  core::FleetOutcome b = core::run_fleet(plan, quick_config("outlier-b"));

  ASSERT_FALSE(a.anomalies.empty());
  for (const FleetAnomaly& an : a.anomalies) {
    EXPECT_EQ(an.vehicle, "cav-2") << an.metric;
  }
  EXPECT_EQ(a.anomalous_vehicles,
            std::vector<std::string>{std::string("cav-2")});

  // Byte-identical per (seed, plan): the full report and frame stream.
  EXPECT_EQ(a.rollup_table, b.rollup_table);
  EXPECT_EQ(a.anomaly_table, b.anomaly_table);
  EXPECT_EQ(a.vehicle_table, b.vehicle_table);
  EXPECT_EQ(a.frames_jsonl, b.frames_jsonl);
  EXPECT_EQ(a.fault_trace, b.fault_trace);

  // Sanity on the run itself.
  EXPECT_GT(a.releases, 0u);
  EXPECT_EQ(a.releases, a.reports);
  EXPECT_EQ(a.decode_errors, 0u);
  EXPECT_EQ(a.duplicates, 0u);
}

TEST(Fleet, ShipperAccountingExactUnderUplinkChaos) {
  core::FleetConfig cfg = quick_config("uplink");
  cfg.seed = 23;
  cfg.vehicles = 4;
  cfg.shipper.max_queue = 8;  // small queue: overflow drops under outage
  core::FleetOutcome out =
      core::run_fleet(core::fleet_uplink_chaos_plan(), cfg);
  std::uint64_t dropped = 0;
  for (const auto& [name, vs] : out.vehicles) {
    // Exact loss accounting per vehicle after the drain.
    EXPECT_EQ(vs.frames_enqueued - vs.frames_acked, vs.frames_dropped) << name;
    EXPECT_GT(vs.frames_acked, 0u) << name;
    dropped += vs.frames_dropped;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(out.frames_ingested,
            [&] {
              std::uint64_t acked = 0;
              for (const auto& [name, vs] : out.vehicles) {
                acked += vs.frames_acked;
              }
              return acked;
            }());
  EXPECT_EQ(out.duplicates, 0u);
  // Sequence gaps at the aggregator can only come from shipper drops
  // (trailing drops are invisible, hence <=).
  EXPECT_LE(out.lost_frames, dropped);
}

TEST(Fleet, HealthyFleetShipsCleanAndFlagsNobody) {
  core::FleetConfig cfg = quick_config("healthy");
  cfg.seed = 31;
  cfg.vehicles = 4;
  cfg.load_until = sim::seconds(60);
  cfg.run_until = sim::seconds(80);
  sim::FaultPlan none;
  none.name = "none";
  core::FleetOutcome out = core::run_fleet(none, cfg);
  EXPECT_TRUE(out.anomalies.empty()) << out.anomaly_table;
  for (const auto& [name, vs] : out.vehicles) {
    EXPECT_EQ(vs.frames_dropped, 0u) << name;
    EXPECT_EQ(vs.frames_enqueued, vs.frames_acked) << name;
  }
  EXPECT_EQ(out.lost_frames, 0u);
  EXPECT_GT(out.frames_ingested, 0u);
}

}  // namespace
}  // namespace vdap
