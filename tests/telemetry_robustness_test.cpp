// Exporter robustness and capture scoping (DESIGN.md §6c): hostile strings
// (non-ASCII, control chars, invalid UTF-8) must round-trip through every
// exported artifact; non-finite metric values are rejected at the door;
// nested, empty and mid-run captures bound by BindScope behave, and
// zero-event exports parse. Also the disk-shaped fleet surfaces (DESIGN.md
// §6g): the VCB1 columnar block codec and the DDI-style query parser are
// fuzzed here — truncations, bit flips, hostile lengths and token soup
// must all come back as clean errors, never crashes (the suite runs under
// ASan in check.sh).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>

#include "sim/simulator.hpp"
#include "telemetry/analysis/critical_path.hpp"
#include "telemetry/export.hpp"
#include "telemetry/fleet/columnar.hpp"
#include "telemetry/fleet/query.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/planes.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace vdap {
namespace {

// Decodes an escaped JSON string by parsing it back.
std::string roundtrip(const std::string& s) {
  return json::parse(json::escape(s)).as_string();
}

TEST(JsonEscape, BmpNonAsciiBecomesEscapesAndRoundTrips) {
  // Latin-1 and CJK stay inside the BMP: pure-ASCII output, lossless.
  for (const std::string s :
       {std::string("\u00b5s"), std::string("na\u00efve"),
        std::string("\u8eca\u8f09")}) {
    std::string escaped = json::escape(s);
    for (char c : escaped) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
      EXPECT_LT(static_cast<unsigned char>(c), 0x80u);
    }
    EXPECT_EQ(roundtrip(s), s);
  }
  EXPECT_EQ(json::escape("\u00b5s"), "\"\\u00b5s\"");
}

TEST(JsonEscape, ControlCharsAreEscaped) {
  std::string s = "a\x01\x1f\n\t\"b\\";
  std::string escaped = json::escape(s);
  EXPECT_EQ(escaped, "\"a\\u0001\\u001f\\n\\t\\\"b\\\\\"");
  EXPECT_EQ(roundtrip(s), s);
}

TEST(JsonEscape, AstralPlanesPassThroughRaw) {
  // 4-byte UTF-8 (outside the BMP) passes through unescaped — the parser
  // has no surrogate pairs — and round-trips byte-for-byte.
  std::string car = "\xF0\x9F\x9A\x97";  // U+1F697
  EXPECT_EQ(json::escape(car), "\"" + car + "\"");
  EXPECT_EQ(roundtrip(car), car);
}

TEST(JsonEscape, InvalidUtf8BecomesReplacementChar) {
  for (const std::string s :
       {std::string("a\xffz"), std::string("\xc3"),      // truncated lead
        std::string("\xe2\x28\xa1"),                     // bad continuation
        std::string("\xc0\xaf")}) {                      // overlong
    std::string escaped = json::escape(s);
    std::string decoded = json::parse(escaped).as_string();
    EXPECT_NE(decoded.find("\xEF\xBF\xBD"), std::string::npos) << escaped;
  }
  // The valid neighbors survive.
  EXPECT_EQ(roundtrip("a\xffz").front(), 'a');
  EXPECT_EQ(roundtrip("a\xffz").back(), 'z');
}

TEST(Metrics, NonFiniteValuesAreRejected) {
  telemetry::Domain domain;
  telemetry::BindScope bind({&domain});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  telemetry::observe("lat", nan);
  telemetry::observe("lat", {{"svc", "x"}}, inf);
  telemetry::gauge("g", -inf);
  telemetry::metrics().set_gauge("g2", {{"svc", "x"}}, nan);
  telemetry::tracer().counter(0, "track", "c", nan);
  telemetry::tracer().counter(0, "track", "c", inf);

  EXPECT_EQ(telemetry::metrics().histogram("lat"), nullptr);
  EXPECT_EQ(telemetry::metrics().histogram("lat{svc=x}"), nullptr);
  EXPECT_TRUE(telemetry::metrics().gauges().empty());
  EXPECT_TRUE(telemetry::tracer().events().empty());

  // Finite values still land, and a later non-finite write can't clobber.
  telemetry::gauge("g", 2.5);
  telemetry::gauge("g", nan);
  EXPECT_DOUBLE_EQ(telemetry::metrics().gauge_value("g"), 2.5);
  telemetry::observe("lat", 10.0);
  ASSERT_NE(telemetry::metrics().histogram("lat"), nullptr);
  EXPECT_EQ(telemetry::metrics().histogram("lat")->count(), 1u);

  // No artifact ever contains a non-finite token.
  for (const std::string& artifact :
       {telemetry::chrome_trace_json(domain.tracer()),
        telemetry::metrics_snapshot_json(domain.metrics(), 0)}) {
    EXPECT_EQ(artifact.find("nan"), std::string::npos);
    EXPECT_EQ(artifact.find("inf"), std::string::npos);
  }
}

TEST(Exporters, HostileStringsRoundTripThroughEveryArtifact) {
  telemetry::Domain domain;
  telemetry::BindScope bind({&domain});

  const std::string weird = "svc \u00b5/\u8eca \xF0\x9F\x9A\x97 \x01\"\\";
  const std::string bad = "bad\xff bytes";
  telemetry::tracer().instant(5, weird, weird, weird,
                              telemetry::TraceArgs().add(weird, weird));
  std::uint64_t id = telemetry::tracer().begin(10, "cat", bad, bad);
  telemetry::tracer().end(20, id);
  telemetry::count("runs", {{"svc", weird}});
  telemetry::observe("lat", {{"svc", bad}}, 1.5);
  telemetry::gauge(weird, 1.0);

  // Chrome trace: parses as JSON, and through the analysis parser; the
  // BMP/control portions decode back losslessly.
  std::string trace = telemetry::chrome_trace_json(domain.tracer());
  json::Value doc = json::parse(trace);
  ASSERT_TRUE(doc.contains("traceEvents"));

  std::vector<telemetry::TraceEvent> events;
  std::vector<std::string> tracks;
  std::string error;
  ASSERT_TRUE(telemetry::analysis::parse_chrome_trace(trace, &events, &tracks,
                                                      &error))
      << error;
  bool found = false;
  for (const telemetry::TraceEvent& ev : events) {
    if (ev.ph == 'i' && ev.ts == 5) {
      found = true;
      EXPECT_EQ(ev.name, weird);
      EXPECT_EQ(ev.cat, weird);
      ASSERT_LT(ev.tid, tracks.size());
      EXPECT_EQ(tracks[ev.tid], weird);
      EXPECT_EQ(ev.args_object().at(weird).as_string(), weird);
    }
  }
  EXPECT_TRUE(found);

  // The metrics line is valid JSON, and the hostile names come back.
  json::Value snap = json::parse(
      telemetry::metrics_snapshot_json(domain.metrics(), sim::seconds(3)));
  EXPECT_EQ(snap.at("t").as_int(), sim::seconds(3));
  EXPECT_TRUE(snap.at("gauges").contains(weird));
  EXPECT_TRUE(snap.at("counters").contains(
      telemetry::labeled("runs", {{"svc", weird}})));
  EXPECT_EQ(snap.at("histograms").size(), 1u);
}

// Captures nest by shadowing, never by throwing: an inner scope that
// binds nothing turns capture off for its extent only, and the outer
// domain is bound again after it.
TEST(Session, NestedCaptureThrows) {
  telemetry::Domain outer;
  telemetry::BindScope bind({&outer});
  {
    telemetry::BindScope off({});
    EXPECT_FALSE(telemetry::on());
    telemetry::count("hidden");
  }
  EXPECT_EQ(telemetry::bound_domain(), &outer);
  EXPECT_EQ(outer.metrics().counter_value("hidden"), 0);
}

// A domain bound mid-run records from the current sim time on, and its
// metrics line is stamped with it.
TEST(Session, MidRunCaptureUsesCurrentSimTime) {
  sim::Simulator sim(1);
  sim.run_until(sim::seconds(5));
  telemetry::Domain domain;
  telemetry::BindScope bind({&domain});  // capture starts mid-run: fine
  ASSERT_TRUE(telemetry::on());
  const std::uint64_t span =
      telemetry::tracer().begin(sim.now(), "cat", "late", "track");
  sim.at(sim::seconds(7), [&] {
    if (telemetry::on()) telemetry::tracer().end(sim.now(), span);
  });
  sim.run_until(sim::seconds(10));
  const std::vector<telemetry::TraceEvent>& evs = domain.tracer().events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].ts, sim::seconds(5));
  EXPECT_EQ(evs[1].ts, sim::seconds(7));
  EXPECT_EQ(json::parse(telemetry::metrics_snapshot_json(domain.metrics(),
                                                         sim.now()))
                .get_int("t"),
            static_cast<std::int64_t>(sim::seconds(10)));
}

// Turning capture off where it is already off is harmless: empty scopes
// nested on an unbound thread drop every record and leave it unbound.
TEST(Session, StopAndDoubleStopAreNoops) {
  ASSERT_FALSE(telemetry::on());
  {
    telemetry::BindScope off({});
    {
      telemetry::BindScope again({});
      telemetry::count("dropped");
      telemetry::observe("dropped", 1.0);
      if (telemetry::on()) {
        const std::uint64_t span =
            telemetry::tracer().begin(0, "cat", "dropped", "track");
        telemetry::tracer().end(0, span);
      }
    }
    EXPECT_FALSE(telemetry::on());
  }
  EXPECT_EQ(telemetry::bound_domain(), nullptr);
  EXPECT_EQ(telemetry::bound_flight(), nullptr);
}

TEST(Session, ZeroEventExportsAreValid) {
  telemetry::Domain domain;
  telemetry::BindScope bind({&domain});
  std::string trace = telemetry::chrome_trace_json(domain.tracer());
  json::Value doc = json::parse(trace);
  EXPECT_EQ(doc.at("traceEvents").size(), 0u);
  json::Value line =
      json::parse(telemetry::metrics_snapshot_json(domain.metrics(), 0));
  EXPECT_EQ(line.at("counters").size(), 0u);
  EXPECT_EQ(line.at("gauges").size(), 0u);
  EXPECT_EQ(line.at("histograms").size(), 0u);
  EXPECT_EQ(domain.tracer().open_spans(), 0u);

  // And the zero-event trace feeds the analysis layer cleanly.
  std::vector<telemetry::TraceEvent> events;
  std::vector<std::string> tracks;
  std::string error;
  EXPECT_TRUE(telemetry::analysis::parse_chrome_trace(trace, &events, &tracks,
                                                      &error))
      << error;
  EXPECT_TRUE(events.empty());
}

// --- parse-back error paths (DESIGN.md §6d) --------------------------------
// Artifacts re-read by vdap-report and the analysis layer come from disk,
// so truncation and corruption must produce clean errors, never crashes
// (the suite runs under ASan in check.sh).

TEST(ParseBack, TruncatedAndMalformedJsonlLinesAreCleanErrors) {
  // Cut a real metrics line at every prefix length: each cut either parses
  // (short valid prefixes like "{}" don't exist here, so it won't) or
  // returns nullopt — no throw, no crash.
  telemetry::MetricsRegistry metrics;
  metrics.inc("runs", 3);
  metrics.observe("lat", 1.5);
  const std::string line = telemetry::metrics_snapshot_json(metrics, 0);
  for (std::size_t cut = 0; cut < line.size(); ++cut) {
    std::optional<json::Value> v = json::try_parse(line.substr(0, cut));
    if (cut > 0) {
      EXPECT_FALSE(v.has_value()) << "cut=" << cut;
    }
  }
  EXPECT_TRUE(json::try_parse(line).has_value());
  EXPECT_FALSE(json::try_parse("{\"t\":1,").has_value());
  EXPECT_FALSE(json::try_parse("\xff\xfe garbage").has_value());
}

TEST(ParseBack, MalformedChromeTraceIsRejectedWithError) {
  std::vector<telemetry::TraceEvent> events;
  std::vector<std::string> tracks;
  const char* cases[] = {
      "",                                             // empty file
      "not json",
      "{\"traceEvents\": 7}",                         // wrong type
      "{\"other\": []}",                              // missing array
      "{\"traceEvents\": [7]}",                       // non-object event
      "{\"traceEvents\": [{\"ph\": \"XX\"}]}",        // bad ph
      "{\"traceEvents\": [{\"ph\": \"\"}]}",
      "{\"traceEvents\": [{\"ph\": \"X\", \"args\": 3}]}",  // non-object args
      "{\"traceEvents\": [{\"ph\": \"X\", \"ts\": 1",       // truncated
  };
  for (const char* text : cases) {
    std::string error;
    EXPECT_FALSE(
        telemetry::analysis::parse_chrome_trace(text, &events, &tracks, &error))
        << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(ParseBack, HostileTidsAreRejectedNotAllocated) {
  // A corrupt tid must not drive tracks.resize() toward out-of-memory, and
  // a negative one must not wrap to a huge unsigned index.
  std::vector<telemetry::TraceEvent> events;
  std::vector<std::string> tracks;
  const char* cases[] = {
      "{\"traceEvents\": [{\"ph\": \"M\", \"name\": \"thread_name\","
      " \"tid\": 99999999999, \"args\": {\"name\": \"x\"}}]}",
      "{\"traceEvents\": [{\"ph\": \"i\", \"tid\": -5}]}",
      "{\"traceEvents\": [{\"ph\": \"X\", \"tid\": 2147483648}]}",
  };
  for (const char* text : cases) {
    std::string error;
    EXPECT_FALSE(
        telemetry::analysis::parse_chrome_trace(text, &events, &tracks, &error))
        << text;
    EXPECT_EQ(error, "tid out of range") << text;
  }
}

TEST(ParseBack, UnknownFieldsAndEventsAreTolerated) {
  // Forward compatibility: fields and ph kinds this version doesn't know
  // must be carried or skipped, not rejected.
  std::vector<telemetry::TraceEvent> events;
  std::vector<std::string> tracks;
  std::string error;
  const std::string text =
      "{\"otherTopLevel\": {\"a\": 1}, \"traceEvents\": ["
      "{\"ph\": \"M\", \"name\": \"process_sort_index\", \"tid\": 0},"
      "{\"ph\": \"i\", \"ts\": 5, \"tid\": 0, \"name\": \"n\","
      " \"cat\": \"c\", \"novel_field\": [1, 2, 3]},"
      "{\"ph\": \"q\", \"ts\": 9, \"tid\": 0, \"name\": \"future-kind\"}"
      "]}";
  ASSERT_TRUE(telemetry::analysis::parse_chrome_trace(text, &events, &tracks,
                                                      &error))
      << error;
  ASSERT_EQ(events.size(), 2u);  // metadata consumed, both events kept
  EXPECT_EQ(events[0].ph, 'i');
  EXPECT_EQ(events[1].ph, 'q');
}

// --- columnar block codec (DESIGN.md §6g) ----------------------------------

using telemetry::fleet::ColumnData;
using telemetry::fleet::columnar_decode;
using telemetry::fleet::columnar_encode;

ColumnData sample_columns() {
  ColumnData cols;
  // Includes a backward time step (reordered sample): the zigzag delta
  // encoding must carry negative deltas.
  std::mt19937_64 rng(404);
  sim::SimTime t = 0;
  for (int i = 0; i < 64; ++i) {
    t += static_cast<sim::SimTime>(rng() % 2'000'000) - 400'000;
    if (t < 0) t = 0;
    cols.times.push_back(t);
    cols.values.push_back(
        std::ldexp(static_cast<double>(rng() % 1'000'000), -7));
  }
  return cols;
}

TEST(ColumnarCodec, RoundTripsIncludingBackwardTimeSteps) {
  const ColumnData cols = sample_columns();
  const std::string bytes = columnar_encode(cols);
  ColumnData back;
  std::string error;
  ASSERT_TRUE(columnar_decode(bytes, &back, &error)) << error;
  EXPECT_EQ(back.times, cols.times);
  EXPECT_EQ(back.values, cols.values);
  // Deterministic bytes: re-encoding reproduces the encoding.
  EXPECT_EQ(columnar_encode(back), bytes);
  // An empty block round-trips too.
  ColumnData empty;
  const std::string empty_bytes = columnar_encode(empty);
  ASSERT_TRUE(columnar_decode(empty_bytes, &back, &error)) << error;
  EXPECT_TRUE(back.empty());
}

// Round trips cannot catch a change that moves the encoder and the
// decoder together (a wrong FNV basis, say): pin one block's exact bytes.
// Layout: "VCB1", u32 count, zigzag varint time deltas, f64 values, then
// the FNV-1a-64 of everything after the magic.
TEST(ColumnarCodec, FixedBlockEncodesToGoldenBytes) {
  ColumnData cols;
  cols.times = {0, 1'000'000, 900'000, 2'500'000};
  cols.values = {1.5, -2.0, 0.0, 1e6};
  std::string hex;
  for (unsigned char c : columnar_encode(cols)) {
    hex += util::format("%02x", c);
  }
  EXPECT_EQ(hex,
            "56434231"                // "VCB1"
            "04000000"                // count 4
            "00" "80897a" "bf9a0c"    // deltas 0, +1 s, -0.1 s,
            "80a8c301"                // +1.6 s
            "000000000000f83f"        // 1.5
            "00000000000000c0"        // -2.0
            "0000000000000000"        // 0.0
            "0000000080842e41"        // 1e6
            "01da83d2e590dd7f");      // checksum
}

TEST(ColumnarCodec, EveryTruncationIsACleanError) {
  const std::string bytes = columnar_encode(sample_columns());
  ColumnData out;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::string error;
    EXPECT_FALSE(
        columnar_decode(std::string_view(bytes).substr(0, cut), &out, &error))
        << "cut=" << cut;
    EXPECT_FALSE(error.empty()) << "cut=" << cut;
  }
  // Trailing garbage is also rejected (declared count vs actual size).
  std::string padded = bytes + "x";
  EXPECT_FALSE(columnar_decode(padded, &out));
}

TEST(ColumnarCodec, EverySingleBitFlipIsDetected) {
  // The checksum covers everything after the magic, and the magic is
  // compared byte-for-byte — so no single-bit corruption may decode.
  const std::string bytes = columnar_encode(sample_columns());
  ColumnData out;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      std::string error;
      EXPECT_FALSE(columnar_decode(corrupt, &out, &error))
          << "byte=" << i << " bit=" << bit;
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(ColumnarCodec, HostileCountsDoNotDriveAllocation) {
  // A block declaring 2^32-1 samples in a 16-byte payload must be
  // rejected by arithmetic (count vs available bytes) BEFORE any reserve.
  std::string hostile = "VCB1";
  hostile += '\xff';
  hostile += '\xff';
  hostile += '\xff';
  hostile += '\xff';
  hostile += std::string(8, '\0');
  ColumnData out;
  std::string error;
  EXPECT_FALSE(columnar_decode(hostile, &out, &error));
  EXPECT_NE(error.find("count"), std::string::npos) << error;
}

TEST(ColumnarCodec, RandomGarbageNeverCrashes) {
  std::mt19937_64 rng(1234);
  ColumnData out;
  for (int round = 0; round < 2000; ++round) {
    std::string garbage(rng() % 96, '\0');
    for (char& c : garbage) c = static_cast<char>(rng() & 0xFF);
    if (round % 3 == 0 && garbage.size() >= 4) {
      garbage.replace(0, 4, "VCB1");  // valid magic, hostile payload
    }
    std::string error;
    if (!columnar_decode(garbage, &out, &error)) {
      EXPECT_FALSE(error.empty());
    }
  }
}

// --- query parser (DESIGN.md §6g) ------------------------------------------

using telemetry::fleet::Query;
using telemetry::fleet::parse_query;

TEST(QueryParser, AcceptsTheDocumentedGrammar) {
  Query q;
  std::string error;
  ASSERT_TRUE(parse_query("range metric=lat_ms", &q, &error)) << error;
  EXPECT_EQ(q.kind, Query::Kind::kRange);
  EXPECT_EQ(q.metric, "lat_ms");
  EXPECT_EQ(q.from, 0);
  EXPECT_EQ(q.to, sim::kTimeMax);

  ASSERT_TRUE(parse_query(
      "range metric=lat_ms vehicle=cav-3 from=40s to=1.5min", &q, &error))
      << error;
  EXPECT_EQ(q.vehicle, "cav-3");
  EXPECT_EQ(q.from, sim::seconds(40));
  EXPECT_EQ(q.to, sim::seconds(90));

  ASSERT_TRUE(parse_query("near x=100 y=-50.5 r=25 at=60s within=500ms", &q,
                          &error))
      << error;
  EXPECT_EQ(q.kind, Query::Kind::kNear);
  EXPECT_DOUBLE_EQ(q.x, 100.0);
  EXPECT_DOUBLE_EQ(q.y, -50.5);
  EXPECT_DOUBLE_EQ(q.radius, 25.0);
  EXPECT_EQ(q.at, sim::seconds(60));
  EXPECT_EQ(q.within, sim::msec(500));

  // Unit suffixes: us, ms, bare number = seconds.
  ASSERT_TRUE(parse_query("range metric=m from=1500us to=2500ms", &q, &error));
  EXPECT_EQ(q.from, 1500);
  EXPECT_EQ(q.to, sim::msec(2500));
  ASSERT_TRUE(parse_query("range metric=m from=2 to=3", &q, &error));
  EXPECT_EQ(q.from, sim::seconds(2));
}

TEST(QueryParser, RejectsMalformedQueriesWithDiagnostics) {
  const char* cases[] = {
      "",                                    // empty
      "   ",                                 // whitespace only
      "scan metric=m",                       // unknown keyword
      "range",                               // missing metric
      "range metric=",                       // empty value
      "range metric=m metric=m2",            // duplicate key
      "range metric=m x=1",                  // near-only key
      "range metric=m from=10s to=5s",       // inverted range
      "range metric=m from=-5s",             // negative time
      "range metric=m from=abc",             // bad number
      "range metric=m from=1e400",           // overflow
      "range metric=m from=9e18",            // out of SimTime range
      "range metric=m junk",                 // not key=value
      "range metric=m =v",                   // empty key
      "near x=1 y=2 r=3",                    // missing at
      "near x=1 y=2 at=5s r=-2",             // negative radius
      "near x=nan y=2 r=3 at=5s",            // non-finite
      "near x=1 y=2 r=3 at=5s vehicle=v",    // range-only key
  };
  for (const char* text : cases) {
    Query q;
    std::string error;
    EXPECT_FALSE(parse_query(text, &q, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(QueryParser, TokenSoupNeverCrashes) {
  // Random byte soup biased toward the grammar's alphabet: every parse
  // returns either a Query or a non-empty diagnostic.
  const std::string alphabet = "rangenearmetricvehiclfromtxywithin=.- 0123456789smu\t\xff";
  std::mt19937_64 rng(777);
  for (int round = 0; round < 4000; ++round) {
    std::string text(rng() % 64, ' ');
    for (char& c : text) c = alphabet[rng() % alphabet.size()];
    Query q;
    std::string error;
    if (!parse_query(text, &q, &error)) {
      EXPECT_FALSE(error.empty()) << text;
    }
  }
  // Mutations of a valid query: drop/duplicate/garble one token.
  const std::string valid = "near x=100 y=-50.5 r=25 at=60s within=500ms";
  for (int round = 0; round < 2000; ++round) {
    std::string text = valid;
    const std::size_t pos = rng() % text.size();
    switch (rng() % 3) {
      case 0: text.erase(pos, rng() % 5); break;
      case 1: text.insert(pos, 1, alphabet[rng() % alphabet.size()]); break;
      default: text[pos] = static_cast<char>(rng() & 0xFF); break;
    }
    Query q;
    std::string error;
    if (!parse_query(text, &q, &error)) {
      EXPECT_FALSE(error.empty()) << text;
    }
  }
}

// --- flight-recorder bundle parse-back (DESIGN.md §6i) ----------------------
// Incident bundles are read back after crashes, so the VFR1 parser and
// the bundle renderer face torn files by design: truncations, bit flips
// and hostile counts must come back as clean diagnostics, never
// allocation blowups or UB.

static std::string sample_rings() {
  telemetry::FlightRecorder fr(2);
  fr.ring(0).append(telemetry::make_flight_record(
      telemetry::FlightKind::kMetric, 10, "m.count", "track", "", 3, 0.0));
  fr.ring(1).append(telemetry::make_flight_record(
      telemetry::FlightKind::kHealth, 20, "license-plate", "breach",
      "cloud", 1, 99.5));
  fr.ring(0).append(telemetry::make_flight_record(
      telemetry::FlightKind::kIncident, 30, "unit", "incident", "", 0, 0.0));
  fr.fold_barrier(40);
  return fr.serialize_rings();
}

TEST(FlightParseBack, EveryTruncationIsACleanError) {
  const std::string bytes = sample_rings();
  ASSERT_TRUE(telemetry::parse_flight_rings(bytes).ok);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    telemetry::FlightParse p =
        telemetry::parse_flight_rings(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(p.ok) << "cut=" << cut;
    EXPECT_FALSE(p.error.empty()) << "cut=" << cut;
  }
  // Trailing garbage is rejected too (declared sections vs actual size).
  telemetry::FlightParse padded = telemetry::parse_flight_rings(bytes + "x");
  EXPECT_FALSE(padded.ok);
  EXPECT_FALSE(padded.error.empty());
}

TEST(FlightParseBack, EverySingleBitFlipIsACleanOutcome) {
  // Record pages are covered by the section checksum, so flips there are
  // detected; header-field flips may land on another self-consistent
  // layout, but every outcome must be a clean parse or a clean error.
  const std::string bytes = sample_rings();
  std::size_t detected = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      telemetry::FlightParse p = telemetry::parse_flight_rings(corrupt);
      if (!p.ok) {
        EXPECT_FALSE(p.error.empty()) << "byte=" << i << " bit=" << bit;
        ++detected;
      }
    }
  }
  EXPECT_GT(detected, bytes.size());  // the vast majority must be caught
}

TEST(FlightParseBack, HostileCountsDoNotDriveAllocation) {
  // A section declaring 2^22 records in a tiny payload must be rejected
  // by byte-budget arithmetic BEFORE any vector reserve.
  auto put_u32 = [](std::string& s, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) s += static_cast<char>((v >> (8 * i)) & 0xFF);
  };
  auto put_u64 = [](std::string& s, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) s += static_cast<char>((v >> (8 * i)) & 0xFF);
  };
  std::string hostile = "VFR1";
  put_u32(hostile, 1);    // version
  put_u32(hostile, 104);  // record size
  put_u32(hostile, 1);    // one section
  put_u32(hostile, static_cast<std::uint32_t>(-1));  // domain
  put_u32(hostile, 0);                               // reserved
  put_u64(hostile, 1u << 22);                        // appended
  put_u64(hostile, 0);                               // head
  put_u64(hostile, 1u << 22);                        // hostile count
  telemetry::FlightParse p = telemetry::parse_flight_rings(hostile);
  EXPECT_FALSE(p.ok);
  EXPECT_FALSE(p.error.empty());

  // A hostile section COUNT is bounded before the loop even starts.
  std::string many = "VFR1";
  put_u32(many, 1);
  put_u32(many, 104);
  put_u32(many, 0xFFFFFFFFu);
  telemetry::FlightParse q = telemetry::parse_flight_rings(many);
  EXPECT_FALSE(q.ok);
  EXPECT_FALSE(q.error.empty());
}

TEST(FlightParseBack, RandomGarbageNeverCrashes) {
  std::mt19937_64 rng(90210);
  for (int round = 0; round < 2000; ++round) {
    std::string garbage(rng() % 160, '\0');
    for (char& c : garbage) c = static_cast<char>(rng() & 0xFF);
    if (round % 3 == 0 && garbage.size() >= 4) {
      garbage.replace(0, 4, "VFR1");  // valid magic, hostile payload
    }
    telemetry::FlightParse p = telemetry::parse_flight_rings(garbage);
    if (!p.ok) EXPECT_FALSE(p.error.empty());
  }
}

TEST(FlightParseBack, BrokenBundleDirsAreCleanRenderErrors) {
  namespace fs = std::filesystem;
  std::string made =
      (fs::temp_directory_path() / "vdap-flight-robust-XXXXXX").string();
  ASSERT_NE(mkdtemp(made.data()), nullptr) << made;
  const fs::path dir = made;
  auto write = [&dir](const char* name, const std::string& bytes) {
    std::ofstream f(dir / name, std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  auto render = [&dir](std::string* error) {
    return telemetry::render_incident_dir(dir.string(), error);
  };
  std::string error;

  // Empty dir: missing manifest.
  EXPECT_TRUE(render(&error).empty());
  EXPECT_NE(error.find("manifest.json"), std::string::npos) << error;

  // Truncated manifest (every prefix of a real one): malformed-JSON error.
  telemetry::FlightRecorder fr(1);
  const std::string manifest = fr.manifest_json(nullptr);
  const std::string rings = sample_rings();
  for (std::size_t cut = 1; cut + 1 < manifest.size(); cut += 7) {
    write("manifest.json", manifest.substr(0, cut));
    write("rings.vfr", rings);
    EXPECT_TRUE(render(&error).empty()) << "cut=" << cut;
    EXPECT_FALSE(error.empty()) << "cut=" << cut;
  }

  // Valid manifest, missing rings.
  write("manifest.json", manifest);
  fs::remove(dir / "rings.vfr");
  EXPECT_TRUE(render(&error).empty());
  EXPECT_NE(error.find("rings.vfr"), std::string::npos) << error;

  // Valid manifest, bit-flipped ring page: the parser's diagnostic
  // surfaces through the renderer.
  std::string corrupt = rings;
  corrupt[corrupt.size() / 2] ^= 0x10;
  write("rings.vfr", corrupt);
  EXPECT_TRUE(render(&error).empty());
  EXPECT_FALSE(error.empty());

  // And the intact pair renders.
  write("rings.vfr", rings);
  EXPECT_FALSE(render(&error).empty()) << error;
  fs::remove_all(dir);
}

TEST(Tracer, EndOfUnknownOrDoubleClosedSpanIsIgnored) {
  telemetry::Domain domain;
  telemetry::BindScope bind({&domain});
  telemetry::Tracer& tracer = telemetry::tracer();
  tracer.end(5, 12345);  // unknown id: ignored
  tracer.end(5, 0);      // id 0 (begin recorded while off): ignored
  std::uint64_t id = tracer.begin(1, "cat", "op", "track");
  tracer.end(2, id);
  tracer.end(3, id);  // double close: ignored
  EXPECT_EQ(tracer.open_spans(), 0u);
  std::size_t ends = 0;
  for (const telemetry::TraceEvent& ev : tracer.events()) {
    if (ev.ph == 'e') ++ends;
  }
  EXPECT_EQ(ends, 1u);
}

}  // namespace
}  // namespace vdap
