// Unit tests for the telemetry subsystem: tracer span bookkeeping, labeled
// metric canonicalization, registry merge, the Chrome-trace and metrics
// exporters (parsed back through util::json, and compared byte for byte
// with the json::Object exporters they replaced), write_text_file
// failures, and the scoping rules of a capture bound by BindScope.
#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string_view>

#include "sim/simulator.hpp"
#include "telemetry/export.hpp"
#include "telemetry/planes.hpp"

namespace vdap::telemetry {
namespace {

// Every test records into a fresh domain bound for its duration.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { prev_ = bind_domain(&domain_); }
  void TearDown() override { bind_domain(prev_); }

  Domain domain_;
  Domain* prev_ = nullptr;
};

TEST_F(TelemetryTest, DisabledByDefaultOutsideASession) {
  bind_domain(nullptr);
  EXPECT_FALSE(on());
  // Guarded helpers are no-ops when off.
  count("x");
  observe("y", 1.0);
  gauge("z", 2.0);
  EXPECT_EQ(domain_.metrics().counter_value("x"), 0);
  EXPECT_EQ(domain_.metrics().histogram("y"), nullptr);
  EXPECT_DOUBLE_EQ(domain_.metrics().gauge_value("z"), 0.0);
}

TEST_F(TelemetryTest, TrackInterningIsStable) {
  Tracer t;
  std::uint32_t a = t.track("dsf");
  std::uint32_t b = t.track("net/cloud");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(t.track("dsf"), a);  // re-interning returns the same index
  ASSERT_EQ(t.tracks().size(), 2u);
  EXPECT_EQ(t.tracks()[0], "dsf");
  EXPECT_EQ(t.tracks()[1], "net/cloud");
}

TEST_F(TelemetryTest, BeginEndBalancesOpenSpans) {
  Tracer t;
  std::uint64_t s1 = t.begin(100, "task", "run-1", "dsf");
  std::uint64_t s2 = t.begin(150, "task", "run-2", "dsf");
  EXPECT_NE(s1, 0u);
  EXPECT_NE(s2, s1);
  EXPECT_EQ(t.open_spans(), 2u);
  t.end(200, s1);
  EXPECT_EQ(t.open_spans(), 1u);
  t.end(250, s2);
  EXPECT_EQ(t.open_spans(), 0u);
  ASSERT_EQ(t.events().size(), 4u);
  EXPECT_EQ(t.events()[0].ph, 'b');
  EXPECT_EQ(t.events()[2].ph, 'e');
  EXPECT_EQ(t.events()[2].id, s1);
}

TEST_F(TelemetryTest, EndIgnoresUnknownAndZeroIds) {
  Tracer t;
  t.end(10, 0);     // begin() recorded while telemetry was off
  t.end(10, 999);   // never opened
  std::uint64_t s = t.begin(10, "c", "n", "trk");
  t.end(20, s);
  t.end(30, s);     // double close
  EXPECT_EQ(t.open_spans(), 0u);
  EXPECT_EQ(t.events().size(), 2u);  // only the real begin/end pair
}

TEST_F(TelemetryTest, CompleteInstantCounterShapes) {
  Tracer t;
  t.complete(100, 50, "net", "xfer", "net/lte-up");
  t.instant(200, "offload", "decide", "offload");
  t.counter(300, "net/cellular", "bw", 0.25);
  ASSERT_EQ(t.events().size(), 3u);
  EXPECT_EQ(t.events()[0].ph, 'X');
  EXPECT_EQ(t.events()[0].dur, 50);
  EXPECT_EQ(t.events()[1].ph, 'i');
  EXPECT_EQ(t.events()[2].ph, 'C');
  EXPECT_DOUBLE_EQ(t.events()[2].args_object().at("value").as_double(), 0.25);
}

TEST_F(TelemetryTest, LabeledKeysAreCanonical) {
  // Keys sort, so insertion order doesn't matter.
  EXPECT_EQ(labeled("net.bytes", {{"link", "lte-up"}}),
            "net.bytes{link=lte-up}");
  EXPECT_EQ(labeled("m", {{"b", "2"}, {"a", "1"}}), "m{a=1,b=2}");
  EXPECT_EQ(labeled("m", {}), "m");
}

TEST_F(TelemetryTest, RegistryCountersGaugesHistograms) {
  MetricsRegistry r;
  r.inc("a");
  r.inc("a", 4);
  r.inc("b", {{"k", "v"}}, 2);
  r.set_gauge("g", 1.5);
  r.observe("h", 10.0);
  r.observe("h", 20.0);
  EXPECT_EQ(r.counter_value("a"), 5);
  EXPECT_EQ(r.counter_value("b{k=v}"), 2);
  EXPECT_DOUBLE_EQ(r.gauge_value("g"), 1.5);
  ASSERT_NE(r.histogram("h"), nullptr);
  EXPECT_EQ(r.histogram("h")->count(), 2u);
  EXPECT_DOUBLE_EQ(r.histogram("h")->mean(), 15.0);
  // Registry-created histograms carry the soak-safety cap.
  EXPECT_EQ(r.histogram("h")->sample_cap(),
            MetricsRegistry::kHistogramSampleCap);
}

TEST_F(TelemetryTest, RegistryMergeAndReset) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.inc("c", 1);
  b.inc("c", 2);
  b.inc("only-b");
  a.set_gauge("g", 1.0);
  b.set_gauge("g", 2.0);  // last writer wins on merge
  a.observe("h", 1.0);
  b.observe("h", 3.0);
  a.merge(b);
  EXPECT_EQ(a.counter_value("c"), 3);
  EXPECT_EQ(a.counter_value("only-b"), 1);
  EXPECT_DOUBLE_EQ(a.gauge_value("g"), 2.0);
  EXPECT_EQ(a.histogram("h")->count(), 2u);
  EXPECT_DOUBLE_EQ(a.histogram("h")->mean(), 2.0);
  // The merged-in registry is left as it was.
  EXPECT_EQ(b.counter_value("c"), 2);
  EXPECT_DOUBLE_EQ(b.gauge_value("g"), 2.0);
  EXPECT_EQ(b.histogram("h")->count(), 1u);
}

// --- exporters -------------------------------------------------------------

TEST_F(TelemetryTest, ChromeTraceJsonRoundTrips) {
  Tracer t;
  t.complete(1000, 500, "net", "xfer", "net/lte-up",
             TraceArgs().add("bytes", 1234));
  std::uint64_t s = t.begin(2000, "task", "run", "dsf");
  t.instant(2500, "offload", "decide", "offload");
  t.end(3000, s);

  std::string doc = chrome_trace_json(t);
  json::Value v = json::parse(doc);  // throws on malformed output
  EXPECT_EQ(v.at("displayTimeUnit").as_string(), "ms");
  const json::Array& evs = v.at("traceEvents").as_array();
  // 3 thread_name metadata records + 4 events.
  ASSERT_EQ(evs.size(), 7u);
  EXPECT_EQ(evs[0].at("ph").as_string(), "M");
  EXPECT_EQ(evs[0].at("args").at("name").as_string(), "net/lte-up");
  const json::Value& x = evs[3];
  EXPECT_EQ(x.at("ph").as_string(), "X");
  EXPECT_EQ(x.at("ts").as_int(), 1000);
  EXPECT_EQ(x.at("dur").as_int(), 500);
  EXPECT_EQ(x.at("args").at("bytes").as_int(), 1234);
  const json::Value& b = evs[4];
  EXPECT_EQ(b.at("ph").as_string(), "b");
  EXPECT_EQ(b.at("id").as_string(), evs[6].at("id").as_string());
  EXPECT_EQ(evs[5].at("ph").as_string(), "i");
  EXPECT_EQ(evs[5].at("s").as_string(), "t");

  // Identical event sequences export byte-identically.
  EXPECT_EQ(doc, chrome_trace_json(t));
}

TEST_F(TelemetryTest, MetricsSnapshotJsonShape) {
  MetricsRegistry r;
  r.inc("dsf.completed", 7);
  r.set_gauge("ddi.staged", 42.0);
  for (int i = 1; i <= 100; ++i) r.observe("lat", i);

  json::Value v = json::parse(metrics_snapshot_json(r, 123456));
  EXPECT_EQ(v.at("t").as_int(), 123456);
  EXPECT_EQ(v.at("counters").at("dsf.completed").as_int(), 7);
  EXPECT_DOUBLE_EQ(v.at("gauges").at("ddi.staged").as_double(), 42.0);
  const json::Value& h = v.at("histograms").at("lat");
  EXPECT_EQ(h.at("count").as_int(), 100);
  EXPECT_DOUBLE_EQ(h.at("mean").as_double(), 50.5);
  EXPECT_DOUBLE_EQ(h.at("min").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(h.at("max").as_double(), 100.0);
  EXPECT_NEAR(h.at("p95").as_double(), 95.0, 1.0);
  // Top-level field order is fixed by the ordered json::Object.
  std::string doc = metrics_snapshot_json(r, 123456);
  EXPECT_LT(doc.find("\"counters\""), doc.find("\"gauges\""));
  EXPECT_LT(doc.find("\"gauges\""), doc.find("\"histograms\""));
}

// The end-of-run metrics line names every family, each under its own key,
// and an empty registry still writes all three (empty) families.
TEST_F(TelemetryTest, TextReportListsEveryFamily) {
  MetricsRegistry r;
  r.inc("boots");
  r.set_gauge("bw", 0.5);
  r.observe("lat", 3.0);
  json::Value v = json::parse(metrics_snapshot_json(r, 0));
  EXPECT_EQ(v.at("counters").at("boots").as_int(), 1);
  EXPECT_DOUBLE_EQ(v.at("gauges").at("bw").as_double(), 0.5);
  EXPECT_EQ(v.at("histograms").at("lat").at("count").as_int(), 1);
  EXPECT_EQ(metrics_snapshot_json(MetricsRegistry{}, 0),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{},\"t\":0}");
}

// --- exporter bytes against the DOM exporters -------------------------------

// The json::Object exporters that the direct-write ones replaced, kept
// verbatim as the byte reference: every object is a std::map, so keys
// serialize sorted.
std::string span_id(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(id));
  return buf;
}

// `args[i]` is the object the i-th event's args text was recorded from;
// the DOM exporter serializes the object, and an event holds only text.
std::string dom_chrome_trace_json(const Tracer& tracer,
                                  const std::vector<json::Object>& args) {
  json::Array events;
  events.reserve(tracer.events().size() + tracer.tracks().size());

  // Track names first, as thread_name metadata (tid order = first use).
  for (std::size_t tid = 0; tid < tracer.tracks().size(); ++tid) {
    json::Object meta;
    meta["name"] = "thread_name";
    meta["ph"] = "M";
    meta["pid"] = 1;
    meta["tid"] = static_cast<std::int64_t>(tid);
    json::Object args;
    args["name"] = tracer.tracks()[tid];
    meta["args"] = json::Value(std::move(args));
    events.emplace_back(std::move(meta));
  }

  for (std::size_t i = 0; i < tracer.events().size(); ++i) {
    const TraceEvent& ev = tracer.events()[i];
    json::Object o;
    o["name"] = ev.name;
    o["cat"] = ev.cat;
    o["ph"] = std::string(1, ev.ph);
    o["ts"] = ev.ts;  // already µs, the unit the format expects
    o["pid"] = 1;
    o["tid"] = static_cast<std::int64_t>(ev.tid);
    if (ev.ph == 'X') o["dur"] = ev.dur;
    if (ev.ph == 'b' || ev.ph == 'e') o["id"] = span_id(ev.id);
    if (ev.ph == 'i') o["s"] = "t";  // instant scoped to its track
    if (!args[i].empty()) o["args"] = json::Value(args[i]);
    events.emplace_back(std::move(o));
  }

  json::Object root;
  root["displayTimeUnit"] = "ms";
  root["traceEvents"] = json::Value(std::move(events));
  return json::Value(std::move(root)).dump();
}

json::Value dom_metrics_snapshot_json(const MetricsRegistry& metrics,
                                      sim::SimTime now) {
  json::Object root;
  root["t"] = now;

  json::Object counters;
  for (const auto& [name, v] : metrics.counters().all()) counters[name] = v;
  root["counters"] = json::Value(std::move(counters));

  json::Object gauges;
  for (const auto& [name, v] : metrics.gauges()) gauges[name] = v;
  root["gauges"] = json::Value(std::move(gauges));

  json::Object hists;
  for (const auto& [name, h] : metrics.histograms()) {
    json::Object digest;
    digest["count"] = static_cast<std::int64_t>(h.count());
    digest["mean"] = h.mean();
    digest["min"] = h.min();
    digest["max"] = h.max();
    digest["p50"] = h.p50();
    digest["p95"] = h.p95();
    digest["p99"] = h.p99();
    hists[name] = json::Value(std::move(digest));
  }
  root["histograms"] = json::Value(std::move(hists));
  return json::Value(std::move(root));
}

/// Random tracers and registries built to stress the exporters: strings
/// mixing quotes, backslashes, control bytes, BMP, astral and invalid
/// UTF-8; every phase byte; nested args with non-finite, signed-zero,
/// subnormal and extreme numbers; extreme times, durations and ids; tracks
/// with no events; counters at the int64 limits; histograms empty, with
/// one sample, or thinned past the cap.
class HostileCapture {
 public:
  explicit HostileCapture(std::uint64_t seed) : rng_(seed) {}

  /// A tracer and, per event, the args object its text was recorded from.
  struct Trace {
    Tracer tracer;
    std::vector<json::Object> args;
  };

  Trace tracer() {
    Trace out;
    Tracer& t = out.tracer;
    for (int n = below(4); n > 0; --n) t.track(text());  // maybe never used
    for (int n = below(7); n > 0; --n) {
      TraceEvent ev;
      ev.ph = phase();
      ev.ts = time();
      ev.dur = time();
      ev.id = id();
      ev.tid = chance(0.05) ? static_cast<std::uint32_t>(rng_())
                            : t.track(text());
      ev.cat = text();
      ev.name = text();
      out.args.push_back(chance(0.6) ? object(0) : json::Object{});
      ev.args = args_text(out.args.back());
      t.absorb(std::move(ev));
    }
    return out;
  }

  /// Hostile args: nested values, non-finite and extreme numbers, escapes.
  json::Object args() { return object(0); }

  /// One args member: the json::Value args_text() writes it from, and a
  /// call adding the same value to a TraceArgs in the C++ type a
  /// recording site passes.
  struct Member {
    json::Value value;
    std::function<void(TraceArgs&, const std::string&)> add;
  };

  /// Hostile members by key (a repeated key keeps its first value), with
  /// values of every type the recording sites pass: int, std::size_t and
  /// int64 at their limits, doubles (non-finite and signed zero
  /// included), bools, strings as std::string, std::string_view and
  /// const char*, null, and nested objects and arrays.
  std::map<std::string, Member> members() {
    std::map<std::string, Member> out;
    for (int n = below(6); n > 0; --n) out.emplace(text(), member());
    return out;
  }

  MetricsRegistry registry() {
    MetricsRegistry r;
    std::set<std::string> counters;  // one inc each: sums cannot overflow
    for (int n = below(4); n > 0; --n) {
      std::string name = text();
      if (counters.insert(name).second) r.inc(name, integer());
    }
    for (int n = below(4); n > 0; --n) r.set_gauge(text(), number());
    for (int n = below(4); n > 0; --n) {
      const std::string name = text();
      const int samples = chance(0.0005) ? 20000 : below(3) == 0 ? 1 : below(40);
      for (int k = 0; k < samples; ++k) r.observe(name, number());
      if (chance(0.1) && r.histogram(name) != nullptr) {
        // observe() never leaves a histogram empty; clear one in place.
        const_cast<util::Histogram*>(r.histogram(name))->clear();
      }
    }
    return r;
  }

  sim::SimTime time() {
    switch (below(6)) {
      case 0: return std::numeric_limits<std::int64_t>::min();
      case 1: return std::numeric_limits<std::int64_t>::max();
      case 2: return static_cast<std::int64_t>(rng_());
      case 3: return -static_cast<std::int64_t>(rng_() % 1000000);
      default: return static_cast<std::int64_t>(rng_() % 1000000000000ULL);
    }
  }

 private:
  int below(int n) {
    return static_cast<int>(rng_() % static_cast<unsigned>(n));
  }
  bool chance(double p) {
    return std::uniform_real_distribution<double>(0, 1)(rng_) < p;
  }

  std::string text() {
    using namespace std::string_view_literals;
    static constexpr std::string_view kPieces[] = {
        "svc"sv, "."sv, "latency_ms"sv, "cav-"sv, "7"sv, " "sv, "/"sv,
        "\""sv, "\\"sv, "\n"sv, "\t"sv, "\b"sv, "\f"sv, "\r"sv,
        "\x01"sv, "\x1f"sv, "\x7f"sv, "\0"sv,               // control
        "\xC3\xA9"sv, "\xE2\x82\xAC"sv, "\xEF\xBF\xBF"sv,   // BMP
        "\xF0\x9F\x9A\x97"sv, "\xF4\x8F\xBF\xBF"sv,       // astral
        "{"sv, "}"sv, ":"sv, ","sv, "[]"sv};
    static constexpr std::string_view kInvalidUtf8[] = {
        "\x80"sv, "\xC3"sv, "\xC0\xAF"sv, "\xED\xA0\x80"sv,
        "\xF5\x80\x80\x80"sv, "\xFF"sv, "\xE2\x82"sv};
    if (chance(0.03)) return "";
    std::string out;
    for (int n = 1 + below(3); n > 0; --n) {
      out += kPieces[rng_() % std::size(kPieces)];
    }
    if (chance(0.03)) out += kInvalidUtf8[rng_() % std::size(kInvalidUtf8)];
    return out;
  }

  char phase() {
    static constexpr char kPhases[] = {'X', 'b', 'e', 'i', 'C'};
    if (chance(0.1)) return static_cast<char>(rng_());  // \0, '"', >= 0x80...
    return kPhases[below(5)];
  }

  std::uint64_t id() {
    switch (below(4)) {
      case 0: return 0;
      case 1: return std::numeric_limits<std::uint64_t>::max();
      case 2: return rng_();
      default: return 1 + rng_() % 1000;
    }
  }

  std::int64_t integer() {
    switch (below(4)) {
      case 0: return std::numeric_limits<std::int64_t>::min();
      case 1: return std::numeric_limits<std::int64_t>::max();
      case 2: return static_cast<std::int64_t>(rng_());
      default: return below(2001) - 1000;
    }
  }

  double number() {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    switch (below(9)) {
      case 0: {
        const double odd[] = {std::numeric_limits<double>::quiet_NaN(), kInf,
                              -kInf, -0.0, 0.0, 1e308, -1e308,
                              std::numeric_limits<double>::denorm_min(),
                              std::numeric_limits<double>::max()};
        return odd[rng_() % std::size(odd)];
      }
      case 1: return std::ldexp(1.0, below(2098) - 1074);
      case 2: return below(20001) - 10000;
      case 3: {
        const double d = std::bit_cast<double>(rng_());
        return std::isfinite(d) ? d : 1.5;
      }
      default: return std::normal_distribution<double>(50.0, 20.0)(rng_);
    }
  }

  json::Value value(int depth) {
    switch (below(depth < 3 ? 9 : 6)) {
      case 0: return json::Value(nullptr);
      case 1: return json::Value(chance(0.5));
      case 2: return json::Value(integer());
      case 3: return json::Value(number());
      case 4: return json::Value(text());
      case 5: return json::Value(time());
      case 6: return json::Value(object(depth + 1));  // may be empty
      default: {
        json::Array a;  // may be empty
        for (int n = below(4); n > 0; --n) a.push_back(value(depth + 1));
        return json::Value(std::move(a));
      }
    }
  }

  json::Object object(int depth) {
    json::Object o;
    for (int n = below(4); n > 0; --n) o[text()] = value(depth);
    return o;
  }

  template <typename T>
  static Member typed(T v) {
    return {json::Value(v),
            [v](TraceArgs& a, const std::string& key) { a.add(key, v); }};
  }

  Member member() {
    switch (below(11)) {
      case 0: {
        const int odd[] = {std::numeric_limits<int>::min(),
                           std::numeric_limits<int>::max(), 0, -1};
        return typed(chance(0.5) ? odd[below(4)] : below(2001) - 1000);
      }
      case 1: {
        const std::size_t odd[] = {0, std::numeric_limits<std::size_t>::max(),
                                   std::size_t{1} << 63};
        return typed(chance(0.5) ? odd[below(3)]
                                 : static_cast<std::size_t>(rng_() % 100000));
      }
      case 2: return typed(integer());
      case 3: return typed(number());
      case 4: return typed(chance(0.5));
      case 5: return typed(text());
      case 6: {
        static constexpr const char* kLiterals[] = {
            "", "(hung)", "quote\"back\\slash", "\x01\x1f\x7f",
            "\xC3\xA9\xF0\x9F\x9A\x97", "\xFF\xC0\xAF"};
        return typed(kLiterals[below(6)]);
      }
      case 7: {
        const std::string s = text();
        return {json::Value(std::string_view(s)),
                [s](TraceArgs& a, const std::string& key) {
                  a.add(key, std::string_view(s));
                }};
      }
      case 8: return typed(nullptr);
      case 9: return typed(object(1));
      default: {
        json::Array arr;
        for (int n = below(4); n > 0; --n) arr.push_back(value(1));
        return typed(std::move(arr));
      }
    }
  }

  std::mt19937_64 rng_;
};

TEST(TelemetryExport, StreamingExportersMatchDomExporters) {
  HostileCapture gen(20261017);
  for (int i = 0; i < 100000; ++i) {
    const HostileCapture::Trace t = gen.tracer();
    ASSERT_EQ(chrome_trace_json(t.tracer),
              dom_chrome_trace_json(t.tracer, t.args))
        << "tracer " << i;
    const MetricsRegistry r = gen.registry();
    const sim::SimTime now = gen.time();
    ASSERT_EQ(metrics_snapshot_json(r, now),
              dom_metrics_snapshot_json(r, now).dump())
        << "registry " << i;
  }
}

TEST(TelemetryExport, StreamingExportersMatchDomOnEdgeCases) {
  const Tracer empty;
  EXPECT_EQ(chrome_trace_json(empty),
            R"({"displayTimeUnit":"ms","traceEvents":[]})");
  EXPECT_EQ(dom_chrome_trace_json(empty, {}), chrome_trace_json(empty));
  EXPECT_EQ(metrics_snapshot_json(MetricsRegistry{}, 0),
            R"({"counters":{},"gauges":{},"histograms":{},"t":0})");

  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Tracer t;
  t.track("idle track");  // no events
  t.track("");
  json::Object nested;
  nested["arr"] = json::Array{json::Value(json::Array{}),
                              json::Value(json::Object{}), json::Value(nullptr),
                              json::Value(true), json::Value(false)};
  nested["nums"] = json::Array{
      json::Value(std::numeric_limits<double>::quiet_NaN()), json::Value(kInf),
      json::Value(-kInf), json::Value(-0.0),
      json::Value(std::numeric_limits<double>::denorm_min()),
      json::Value(1e308), json::Value(kMin), json::Value(kMax)};
  nested["obj"] = json::Object{{"", json::Value("\"\\\x01\xC3\xA9\xF0\x9F\x9A\x97\xFF")}};
  nested["empty"] = json::Object{};
  const std::string phases = std::string("XbeiC") + '\0' + '"' + '\\' +
                             '\x1f' + '\x7f' + '\x80' + '\xff';
  std::uint64_t id = std::numeric_limits<std::uint64_t>::max();
  std::vector<json::Object> args;
  for (char ph : phases) {
    for (sim::SimTime ts : {kMin, sim::SimTime{-1}, sim::SimTime{0}, kMax}) {
      TraceEvent ev;
      ev.ph = ph;
      ev.ts = ts;
      ev.dur = ~ts;  // kMin <-> kMax, -1 <-> 0
      ev.id = id--;
      ev.tid = t.track(std::string("trk\"") + ph);
      ev.cat = std::string(1, ph);
      ev.name = "\xED\xA0\x80\t";
      args.push_back(ts == 0 ? nested : json::Object{});
      ev.args = args_text(args.back());
      t.absorb(std::move(ev));
    }
  }
  EXPECT_EQ(chrome_trace_json(t), dom_chrome_trace_json(t, args));
  EXPECT_NO_THROW(json::parse(chrome_trace_json(t)));

  MetricsRegistry r;
  r.inc("min", kMin);
  r.inc("max", kMax);
  r.inc("lbl", {{"k", "\"v\\\n\xF0\x9F\x9A\x97"}, {"", "\xC0\xAF"}}, 3);
  r.set_gauge("-0", -0.0);
  r.set_gauge("sub", std::numeric_limits<double>::denorm_min());
  r.set_gauge("big", 1e308);
  r.observe("one", 42.5);
  for (int i = 0; i < 3 * static_cast<int>(MetricsRegistry::kHistogramSampleCap);
       ++i) {
    r.observe("thinned", i * 0.25);
  }
  r.observe("empty", 1.0);
  const_cast<util::Histogram*>(r.histogram("empty"))->clear();
  for (sim::SimTime now : {kMin, kMax}) {
    EXPECT_EQ(metrics_snapshot_json(r, now),
              dom_metrics_snapshot_json(r, now).dump());
  }
}

/// `obj`'s members added to a TraceArgs in key order.
TraceArgs trace_args(const json::Object& obj) {
  TraceArgs args;
  for (const auto& [key, value] : obj) args.add(key, value);
  return args;
}

// The writer against the object dump: random member sets, each value
// passed in the C++ type a recording site passes and added in key order,
// write exactly args_text() of the same object. An out-of-order or a
// repeated key throws, so a writer that skipped the order check fails
// here.
TEST(TraceEventArgs, WriterMatchesArgsTextOfTheSameObject) {
  EXPECT_EQ(TraceArgs().text(), "");
  HostileCapture gen(20261020);
  std::size_t multi = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::map<std::string, HostileCapture::Member> members = gen.members();
    json::Object obj;
    TraceArgs args;
    for (const auto& [key, m] : members) {
      obj.emplace(key, m.value);
      m.add(args, key);
    }
    ASSERT_EQ(std::move(args).text(), args_text(obj)) << "set " << i;
    if (members.empty()) continue;

    const auto& [last_key, last] = *members.rbegin();
    TraceArgs repeated;
    for (const auto& [key, m] : members) m.add(repeated, key);
    EXPECT_THROW(last.add(repeated, last_key), std::logic_error)
        << "set " << i;
    if (members.size() < 2) continue;
    ++multi;
    const auto& [first_key, first] = *members.begin();
    TraceArgs reversed;
    last.add(reversed, last_key);
    EXPECT_THROW(first.add(reversed, first_key), std::logic_error)
        << "set " << i;
  }
  EXPECT_GT(multi, 5000u);
}

// Every Tracer method records its args once, at record time, as the
// object's compact dump; no args record as "".
TEST(TraceEventArgs, RecordedTextIsTheObjectDump) {
  HostileCapture gen(20261019);
  for (int i = 0; i < 20000; ++i) {
    const json::Object obj = gen.args();
    const std::string want = obj.empty() ? "" : json::Value(obj).dump();
    EXPECT_EQ(args_text(obj), want);
    Tracer t;
    t.complete(1, 2, "c", "n", "trk", trace_args(obj));
    t.end(3, t.begin(1, "c", "n", "trk", trace_args(obj)), trace_args(obj));
    t.instant(4, "c", "n", "trk", trace_args(obj));
    ASSERT_EQ(t.events().size(), 4u);
    for (const TraceEvent& ev : t.events()) {
      ASSERT_EQ(ev.args, want) << "object " << i << " ph " << ev.ph;
    }
  }
}

TEST(TraceEventArgs, EdgeCases) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<json::Object, std::string> cases[] = {
      {{}, ""},
      {{{"x", json::Value(nan)}}, R"({"x":null})"},
      {{{"inf", json::Value(kInf)}, {"ninf", json::Value(-kInf)}},
       R"({"inf":null,"ninf":null})"},
      {{{"min", json::Value(kMin)}, {"max", json::Value(kMax)}},
       R"({"max":9223372036854775807,"min":-9223372036854775808})"},
      {{{"q\"\\\n", json::Value("\t\x01")}}, R"({"q\"\\\n":"\t\u0001"})"},
      {{{"a", json::Array{json::Value(json::Array{}), json::Value(json::Object{}),
                          json::Value(nullptr), json::Value(true)}},
        {"o", json::Object{{"k", json::Object{{"z", json::Value(-0.0)}}}}}},
       R"({"a":[[],{},null,true],"o":{"k":{"z":-0}}})"},
  };
  for (const auto& [obj, text] : cases) {
    Tracer t;
    t.instant(0, "c", "n", "trk", trace_args(obj));
    EXPECT_EQ(t.events().back().args, text);
    if (!obj.empty()) EXPECT_EQ(text, json::Value(obj).dump());
  }

  // Counters write {"value":v} through the same number writer.
  Tracer t;
  for (double v : {0.25, -0.0, 1e308, std::numeric_limits<double>::denorm_min()}) {
    t.counter(0, "trk", "c", v);
    EXPECT_EQ(t.events().back().args,
              json::Value(json::Object{{"value", json::Value(v)}}).dump());
  }
  t.counter(0, "trk", "c", nan);  // dropped, as before
  EXPECT_EQ(t.events().size(), 4u);
  EXPECT_EQ(t.events()[1].args, R"({"value":-0})");

  // Readers parse the text back.
  t.instant(0, "c", "n", "trk", TraceArgs().add("run", 7).add("tier", "edge"));
  EXPECT_EQ(t.events().back().args_object(),
            (json::Object{{"run", 7}, {"tier", "edge"}}));
  EXPECT_TRUE(TraceEvent{}.args_object().empty());
}

TEST(TelemetryExport, WriteTextFileReportsFailedWrites) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  // Three bytes fit the stream buffer, so they fail only at the flush on
  // close; a megabyte fails while writing.
  EXPECT_FALSE(write_text_file("/dev/full", "abc"));
  EXPECT_FALSE(write_text_file("/dev/full", std::string(1 << 20, 'x')));

  std::string dir =
      (std::filesystem::temp_directory_path() / "vdap-export-XXXXXX").string();
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  const std::string path = dir + "/out.jsonl";
  EXPECT_TRUE(write_text_file(path, "{\"t\":0}\n"));
  std::ifstream in(path, std::ios::binary);
  const std::string back((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(back, "{\"t\":0}\n");
  std::filesystem::remove_all(dir);
}

// --- a capture bound by BindScope ------------------------------------------

TEST(TelemetrySession, EnablesForItsScopeOnly) {
  ASSERT_FALSE(on());
  Domain domain;
  {
    BindScope bind({&domain});
    EXPECT_TRUE(on());
    count("x");
  }
  EXPECT_FALSE(on());
  count("x");  // unbound: recorded nowhere
  EXPECT_EQ(domain.metrics().counter_value("x"), 1);
}

// Nested scopes restore the outer domain, which never sees the inner
// scope's records.
TEST(TelemetrySession, SecondConcurrentSessionThrows) {
  Domain outer;
  Domain inner;
  BindScope bind_outer({&outer});
  {
    BindScope bind_inner({&inner});
    EXPECT_EQ(bound_domain(), &inner);
    count("inner");
  }
  EXPECT_EQ(bound_domain(), &outer);
  count("outer");
  EXPECT_EQ(outer.metrics().counter_value("inner"), 0);
  EXPECT_EQ(outer.metrics().counter_value("outer"), 1);
  EXPECT_EQ(inner.metrics().counter_value("inner"), 1);
}

// Sequential captures are separate domains: the second starts clean.
TEST(TelemetrySession, FreshSessionResetsPriorCapture) {
  {
    Domain first;
    BindScope bind({&first});
    count("left-over");
    tracer().begin(0, "c", "n", "trk");
    EXPECT_EQ(first.tracer().open_spans(), 1u);
  }
  Domain second;
  BindScope bind({&second});
  EXPECT_EQ(metrics().counter_value("left-over"), 0);
  EXPECT_EQ(second.tracer().open_spans(), 0u);
  EXPECT_TRUE(second.tracer().events().empty());
}

// A capture exports one metrics line, stamped with the sim time it is
// taken at and holding only what was recorded while the domain was bound.
TEST(TelemetrySession, PeriodicSnapshotsRideTheSimClock) {
  sim::Simulator sim(7);
  Domain domain;
  sim.every(sim::seconds(1), []() { count("tick"); });
  sim.run_until(sim::seconds(10));  // ticks at t=0..10 s, unbound
  std::string line;
  {
    BindScope bind({&domain});
    sim.run_until(sim::seconds(35));  // ticks at t=11..35 s
    line = metrics_snapshot_json(domain.metrics(), sim.now());
  }
  sim.run_until(sim::seconds(60));  // unbound again
  json::Value v = json::parse(line);
  EXPECT_EQ(v.at("t").as_int(), sim::seconds(35));
  EXPECT_EQ(v.at("counters").at("tick").as_int(), 25);
  EXPECT_EQ(domain.metrics().counter_value("tick"), 25);
}

}  // namespace
}  // namespace vdap::telemetry
