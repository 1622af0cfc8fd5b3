// Fleet telemetry suite (`fleet` ctest label): the downsampling
// time-series store, the wire format, the aggregator's dedup/reorder/MAD
// machinery, and the two end-to-end scenarios ISSUE 5 gates on — a canned
// compute fault on one vehicle is flagged as exactly that vehicle
// (byte-identically per (seed, plan)), and shipper loss accounting stays
// exact under shipping-network impairment.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <string_view>

#include "core/fleet.hpp"
#include "net/impair.hpp"
#include "telemetry/fleet/aggregator.hpp"
#include "telemetry/fleet/shipper.hpp"
#include "telemetry/fleet/tsdb.hpp"
#include "telemetry/fleet/wire.hpp"
#include "util/json.hpp"

namespace vdap {
namespace {

using telemetry::fleet::FleetAggregator;
using telemetry::fleet::FleetAnomaly;
using telemetry::fleet::TimeSeriesStore;
using telemetry::fleet::WireFrame;
using telemetry::fleet::WireHealthEvent;
using telemetry::fleet::WireSample;
using telemetry::fleet::wire_decode;
using telemetry::fleet::wire_encode;
using telemetry::fleet::wire_peek_vehicle;

// --- time-series store ------------------------------------------------------

TEST(Tsdb, BucketsCountSumMinMax) {
  TimeSeriesStore store;
  store.observe("m", sim::msec(10), 5.0);
  store.observe("m", sim::msec(20), 1.0);
  store.observe("m", sim::msec(150), 9.0);
  const auto* raw = store.buckets("m", TimeSeriesStore::Tier::kRaw);
  ASSERT_NE(raw, nullptr);
  ASSERT_EQ(raw->size(), 2u);
  EXPECT_EQ((*raw)[0].start, 0);
  EXPECT_EQ((*raw)[0].count, 2u);
  EXPECT_DOUBLE_EQ((*raw)[0].sum, 6.0);
  EXPECT_DOUBLE_EQ((*raw)[0].min, 1.0);
  EXPECT_DOUBLE_EQ((*raw)[0].max, 5.0);
  EXPECT_EQ((*raw)[1].start, sim::msec(100));
  EXPECT_EQ(store.total_count("m"), 3u);
  EXPECT_DOUBLE_EQ(store.total_sum("m"), 15.0);
  EXPECT_EQ(store.latest("m"), sim::msec(150));
}

TEST(Tsdb, DownsamplingCascadeConservesSamples) {
  TimeSeriesStore::Options opts;
  opts.raw_buckets = 4;
  opts.mid_buckets = 3;
  opts.coarse_buckets = 2;
  TimeSeriesStore store(opts);
  // One sample per 100 ms bucket for 60 s: forces raw→mid→coarse→evict.
  const int samples = 600;
  for (int i = 0; i < samples; ++i) {
    store.observe("m", sim::msec(100) * i, static_cast<double>(i));
  }
  EXPECT_EQ(store.total_count("m"), static_cast<std::size_t>(samples));
  EXPECT_GT(store.evicted_buckets("m"), 0u);
  std::size_t retained = 0;
  for (auto tier : {TimeSeriesStore::Tier::kRaw, TimeSeriesStore::Tier::kMid,
                    TimeSeriesStore::Tier::kCoarse}) {
    const auto* buckets = store.buckets("m", tier);
    ASSERT_NE(buckets, nullptr);
    EXPECT_LE(buckets->size(),
              tier == TimeSeriesStore::Tier::kRaw    ? opts.raw_buckets
              : tier == TimeSeriesStore::Tier::kMid ? opts.mid_buckets
                                                     : opts.coarse_buckets);
    for (const auto& b : *buckets) retained += b.count;
  }
  // Conservation: every sample is retained in some tier or counted evicted.
  EXPECT_EQ(retained + store.evicted_samples("m"),
            static_cast<std::size_t>(samples));
}

TEST(Tsdb, RangeSummarizeAndQuantiles) {
  TimeSeriesStore store;
  for (int i = 0; i < 100; ++i) {
    store.observe("lat", sim::msec(50) * i, 10.0 + i);
  }
  auto all = store.summarize("lat", 0, sim::kTimeMax);
  EXPECT_EQ(all.count, 100u);
  EXPECT_DOUBLE_EQ(all.min, 10.0);
  EXPECT_DOUBLE_EQ(all.max, 109.0);
  // A window that covers only the tail.
  auto tail = store.summarize("lat", sim::msec(50) * 90, sim::kTimeMax);
  EXPECT_LE(tail.count, 12u);
  EXPECT_GE(tail.count, 10u);
  EXPECT_GE(tail.mean(), 99.0);
  const double p50 = store.quantile("lat", 0.50);
  EXPECT_GE(p50, 40.0);
  EXPECT_LE(p50, 80.0);
  EXPECT_GE(store.quantile("lat", 0.99), store.quantile("lat", 0.5));
}

TEST(Tsdb, OutOfOrderAndRejects) {
  TimeSeriesStore store;
  EXPECT_TRUE(store.observe("m", sim::seconds(5), 1.0));
  EXPECT_TRUE(store.observe("m", sim::seconds(1), 2.0));  // late arrival
  EXPECT_FALSE(store.observe("m", sim::seconds(2), std::nan("")));
  EXPECT_FALSE(store.observe("m", -1, 3.0));
  EXPECT_EQ(store.rejected(), 2u);
  EXPECT_EQ(store.total_count("m"), 2u);
  const auto* raw = store.buckets("m", TimeSeriesStore::Tier::kRaw);
  ASSERT_NE(raw, nullptr);
  ASSERT_EQ(raw->size(), 2u);
  EXPECT_LT((*raw)[0].start, (*raw)[1].start);  // kept sorted
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

// --- aggregator -------------------------------------------------------------

WireFrame frame_for(const std::string& vehicle, std::uint64_t seq,
                    sim::SimTime at, double latency) {
  WireFrame f;
  f.vehicle = vehicle;
  f.seq = seq;
  f.created = at;
  f.samples["lat_ms"] = {{at, latency}};
  return f;
}

TEST(Aggregator, DuplicatesAndReorderingTolerated) {
  FleetAggregator agg;
  EXPECT_TRUE(agg.ingest(frame_for("cav-0", 1, sim::seconds(1), 10)));
  EXPECT_TRUE(agg.ingest(frame_for("cav-0", 3, sim::seconds(3), 10)));
  EXPECT_TRUE(agg.ingest(frame_for("cav-0", 2, sim::seconds(2), 10)));  // late
  EXPECT_FALSE(agg.ingest(frame_for("cav-0", 2, sim::seconds(2), 10)));  // dup
  EXPECT_FALSE(agg.ingest(frame_for("cav-0", 1, sim::seconds(1), 10)));  // dup
  EXPECT_EQ(agg.frames_ingested(), 3u);
  EXPECT_EQ(agg.duplicates(), 2u);
  EXPECT_EQ(agg.reordered(), 1u);
  EXPECT_EQ(agg.lost_frames(), 0u);
  // A gap: seq 6 arrives, 4 and 5 never do.
  EXPECT_TRUE(agg.ingest(frame_for("cav-0", 6, sim::seconds(6), 10)));
  EXPECT_EQ(agg.lost_frames(), 2u);
  // Duplicate ingestion does not double-count samples.
  EXPECT_EQ(agg.fleet_store().total_count("lat_ms"), 4u);
}

TEST(Aggregator, MalformedLinesCountedNotFatal) {
  FleetAggregator agg;
  std::string error;
  EXPECT_FALSE(agg.ingest_wire("{{{{", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(agg.ingest_wire(wire_encode(frame_for("cav-0", 1, 1000, 5))));
  EXPECT_EQ(agg.decode_errors(), 1u);
  EXPECT_EQ(agg.frames_ingested(), 1u);
}

TEST(Aggregator, MadDetectorFlagsTheDeviantVehicleOnly) {
  FleetAggregator::Options opts;
  opts.min_vehicles = 3;
  opts.detect_window = sim::seconds(30);
  FleetAggregator agg(opts);
  // Five vehicles, 20 frames each: cav-3 runs 3x slower than the pack.
  std::uint64_t seq = 0;
  for (int round = 0; round < 20; ++round) {
    ++seq;
    for (int v = 0; v < 5; ++v) {
      const std::string name = "cav-" + std::to_string(v);
      const double jitter = 0.1 * ((round + v) % 3);
      const double latency = (v == 3 ? 300.0 : 100.0) + jitter;
      agg.ingest(frame_for(name, seq, sim::seconds(1) * (round + 1), latency));
    }
  }
  ASSERT_FALSE(agg.anomalies().empty());
  for (const FleetAnomaly& a : agg.anomalies()) {
    EXPECT_EQ(a.vehicle, "cav-3");
    EXPECT_EQ(a.metric, "lat_ms");
    EXPECT_GT(a.score, 3.5);
    EXPECT_NEAR(a.fleet_median, 100.0, 5.0);
  }
  EXPECT_EQ(agg.anomalous_vehicles(),
            std::vector<std::string>{std::string("cav-3")});
  // Hysteresis: one transition, not one anomaly per frame.
  EXPECT_LE(agg.anomalies().size(), 2u);
}

TEST(Aggregator, UniformFleetNeverFlags) {
  FleetAggregator agg;
  for (int round = 0; round < 20; ++round) {
    for (int v = 0; v < 5; ++v) {
      agg.ingest(frame_for("cav-" + std::to_string(v),
                           static_cast<std::uint64_t>(round + 1),
                           sim::seconds(1) * (round + 1), 100.0));
    }
  }
  EXPECT_TRUE(agg.anomalies().empty());
  const std::string rollup = agg.rollup_table();
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
