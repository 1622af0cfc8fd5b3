// Oracle-equivalence suite for the sharded columnar ingest backend
// (DESIGN.md §6g), run under the `ingest` ctest label (and under
// TSan/ASan via scripts/check.sh).
//
// Randomized wire streams — duplicates, reordering, transport gaps,
// decode garbage, one injected outlier vehicle — are replayed through:
//   * a {1,2,8} shards × {1,2,8} threads matrix of backends, whose every
//     observable output (tables, queries, accounting, anomalies) must be
//     BYTE-identical to the 1×1 reference;
//   * a replay written from the dedup and detection contracts alone as
//     the accounting and detection oracle;
//   * an in-test brute-force replay as ground truth for range/near
//     query answers.
// Plus the regression pins: exactly one impaired vehicle among 10k is
// flagged by the unthrottled MAD pass, the registry's ingest counters
// prove detection scans O(V) per barrier, not O(V) per frame, names
// containing '|' keep their hysteresis state apart, and concurrent
// read-only queries answer exactly as sequential ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "telemetry/fleet/columnar.hpp"
#include "telemetry/fleet/ingest.hpp"
#include "telemetry/fleet/query.hpp"
#include "telemetry/fleet/wire.hpp"
#include "telemetry/planes.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace vdap::telemetry::fleet {
namespace {

std::string veh_name(int i) { return util::format("cav-%04d", i); }

struct StreamSpec {
  std::uint64_t seed = 1;
  int vehicles = 8;
  int batches = 30;
  int outlier = -1;          // vehicle index whose latency is shifted
  double outlier_shift = 60.0;
  // Batches [healthy_from, healthy_to) in which the outlier reports
  // healthy latencies (a recovery, then a relapse).
  int healthy_from = -1;
  int healthy_to = -1;
  bool garbage_lines = true; // inject undecodable lines
};

/// A generated wire stream plus its brute-force ground truth: the
/// accepted (post-dedup) samples per vehicle per metric, in ingest order.
struct Stream {
  std::vector<std::vector<std::string>> batches;
  std::map<std::string, std::map<std::string, std::vector<WireSample>>> truth;
  std::uint64_t truth_samples = 0;  // accepted samples, all metrics
  std::string outlier_vehicle;
};

/// Epoch-shaped batches: each vehicle ships 1-2 frames per batch (seq
/// strictly increasing), with duplicate re-emissions, same-vehicle swaps
/// (reordering), silently skipped seqs (transport loss), health events
/// (some of them breaches) and optional garbage lines. Sequence numbers
/// stay far inside the 4096-frame sequence window, so acceptance is
/// exactly "seq not seen before".
Stream make_stream(const StreamSpec& spec) {
  std::mt19937_64 rng(spec.seed);
  Stream out;
  std::vector<std::uint64_t> seq(static_cast<std::size_t>(spec.vehicles), 0);
  std::vector<std::vector<std::string>> history(
      static_cast<std::size_t>(spec.vehicles));
  if (spec.outlier >= 0) out.outlier_vehicle = veh_name(spec.outlier);

  for (int b = 0; b < spec.batches; ++b) {
    const sim::SimTime t0 = sim::seconds(b + 1);
    std::vector<std::string> batch;
    for (int i = 0; i < spec.vehicles; ++i) {
      const std::size_t vi = static_cast<std::size_t>(i);
      if (rng() % 16 == 0) continue;       // vehicle idle this epoch
      if (rng() % 8 == 0) ++seq[vi];       // frame lost in transport
      const int frames = rng() % 5 == 0 ? 2 : 1;
      std::vector<std::string> emitted;
      for (int f = 0; f < frames; ++f) {
        WireFrame frame;
        frame.vehicle = veh_name(i);
        frame.seq = ++seq[vi];
        frame.created = t0 + sim::usec(17) * (i * 2 + f);
        const bool sick = i == spec.outlier &&
                          (b < spec.healthy_from || b >= spec.healthy_to);
        const double base =
            25.0 + 0.5 * (i % 5) + (sick ? spec.outlier_shift : 0.0);
        for (int k = 0; k < 2; ++k) {
          const double noise =
              (static_cast<double>(rng() % 1000) - 500.0) / 2000.0;
          frame.samples["svc.latency_ms"].push_back(
              {t0 - sim::msec(100) * k, base + noise});
        }
        frame.samples["loc.x"].push_back({frame.created, 10.0 * i + 0.25 * b});
        frame.samples["loc.y"].push_back({frame.created, -5.0 * i});
        frame.counters["svc.ok"] = 1 + static_cast<std::int64_t>(rng() % 3);
        frame.gauges["q.depth"] = static_cast<double>(rng() % 7);
        if ((b + i + f) % 4 == 0) {
          WireHealthEvent ev;
          ev.at = frame.created;
          ev.kind = b % 3 == 0 ? "latency-breach" : "latency-recovered";
          ev.severity = "warning";
          ev.service = "svc";
          frame.events.push_back(ev);
        }
        emitted.push_back(wire_encode(frame));
      }
      if (frames == 2 && rng() % 2 == 0) {
        std::swap(emitted[0], emitted[1]);  // same-vehicle reorder
      }
      for (std::string& line : emitted) {
        history[vi].push_back(line);
        batch.push_back(std::move(line));
      }
      if (rng() % 6 == 0 && !history[vi].empty()) {
        batch.push_back(history[vi][rng() % history[vi].size()]);  // dup
      }
    }
    if (spec.garbage_lines && b == spec.batches / 2) {
      batch.push_back("{\"v\":\"cav-0000\"");  // truncated JSON
      batch.push_back("not a frame at all");
    }
    out.batches.push_back(std::move(batch));
  }

  // Ground truth: replay the final line order through the documented
  // dedup contract (seq already seen => duplicate, everything else —
  // including reordered seqs — accepted).
  std::map<std::string, std::set<std::uint64_t>> seen;
  for (const std::vector<std::string>& batch : out.batches) {
    for (const std::string& line : batch) {
      std::optional<WireFrame> frame = wire_decode(line);
      if (!frame.has_value()) continue;
      if (!seen[frame->vehicle].insert(frame->seq).second) continue;
      for (const auto& [metric, samples] : frame->samples) {
        auto& dst = out.truth[frame->vehicle][metric];
        dst.insert(dst.end(), samples.begin(), samples.end());
        out.truth_samples += samples.size();
      }
    }
  }
  return out;
}

void feed(ShardedIngestBackend* backend, const Stream& stream) {
  for (const std::vector<std::string>& batch : stream.batches) {
    std::vector<std::string_view> views(batch.begin(), batch.end());
    backend->ingest_batch(views);
  }
}

/// Every output surface the byte-identity contract covers, concatenated.
std::string snapshot(const ShardedIngestBackend& b,
                     const std::vector<std::string>& queries) {
  std::string s = b.rollup_table() + b.anomaly_table() + b.vehicle_table();
  for (const std::string& q : queries) {
    std::string error;
    const std::string table = b.run_query_text(q, &error);
    s += table.empty() ? "error: " + error + "\n" : table;
  }
  for (const std::string& v : b.vehicles()) {
    s += util::format("%s ok=%lld\n", v.c_str(),
                      static_cast<long long>(b.counter_total(v, "svc.ok")));
  }
  for (const std::string& v : b.anomalous_vehicles()) s += "anomalous " + v + "\n";
  s += util::format(
      "frames=%llu dup=%llu reorder=%llu lost=%llu decode_errors=%llu "
      "samples=%llu batches=%llu watermark=%lld passes=%llu scanned=%llu\n",
      static_cast<unsigned long long>(b.frames_ingested()),
      static_cast<unsigned long long>(b.duplicates()),
      static_cast<unsigned long long>(b.reordered()),
      static_cast<unsigned long long>(b.lost_frames()),
      static_cast<unsigned long long>(b.decode_errors()),
      static_cast<unsigned long long>(b.samples_ingested()),
      static_cast<unsigned long long>(b.batches()),
      static_cast<long long>(b.watermark()),
      static_cast<unsigned long long>(b.detect_passes()),
      static_cast<unsigned long long>(b.detect_scanned()));
  return s;
}

// --- satellite 1: the shard × thread byte-identity matrix ------------------

TEST(IngestOracle, ByteIdenticalAcrossShardAndThreadMatrix) {
  std::mt19937_64 meta(2026);
  for (int draw = 0; draw < 3; ++draw) {
    StreamSpec spec;
    spec.seed = meta();
    spec.vehicles = 5 + static_cast<int>(meta() % 8);
    spec.batches = 20 + static_cast<int>(meta() % 15);
    spec.outlier = static_cast<int>(meta() % spec.vehicles);
    const Stream stream = make_stream(spec);
    const std::vector<std::string> queries = {
        "range metric=svc.latency_ms",
        "range metric=svc.latency_ms vehicle=" + veh_name(1) +
            " from=3s to=18s",
        "range metric=loc.x from=0.5min",
        "near x=0 y=0 r=40 at=" + std::to_string(spec.batches) +
            "s within=20s",
        "range metric=svc.latency_ms vehicle=cav-9999",  // absent vehicle
        "range metric=svc.absent vehicle=" + veh_name(0),  // absent metric
    };

    std::string reference;
    for (int shards : {1, 2, 8}) {
      for (int threads : {1, 2, 8}) {
        IngestOptions opts;
        opts.shards = shards;
        opts.threads = threads;
        opts.block.block_samples = 16;  // force the sealed-block paths
        ShardedIngestBackend backend(opts);
        feed(&backend, stream);
        const std::string got = snapshot(backend, queries);
        if (reference.empty()) {
          reference = got;
          // The injected outlier — and only it — is flagged.
          EXPECT_EQ(backend.anomalous_vehicles(),
                    std::vector<std::string>{stream.outlier_vehicle})
              << "draw " << draw;
          EXPECT_GT(backend.duplicates(), 0u) << "draw " << draw;
          EXPECT_GT(backend.reordered(), 0u) << "draw " << draw;
          EXPECT_GT(backend.lost_frames(), 0u) << "draw " << draw;
          EXPECT_EQ(backend.decode_errors(), 2u) << "draw " << draw;
        } else {
          EXPECT_EQ(got, reference)
              << "draw " << draw << " shards=" << shards
              << " threads=" << threads;
        }
      }
    }
  }
}

// --- the replay oracle: accounting and detection ---------------------------

// The contracts the replay is written from (DESIGN.md §6g).
constexpr std::uint64_t kSeqWindow = 4096;
constexpr sim::SimDuration kSlot = sim::seconds(1);
constexpr sim::SimDuration kWindow = sim::seconds(15);
constexpr std::int64_t kRingSlots = 17;  // the newest slots a series keeps

/// What the backend must report for a stream, replayed line by line from
/// the dedup contract and the MAD detector's definition. It shares no code
/// with the backend beyond wire_decode and util::TextTable.
struct Replay {
  struct Vehicle {
    std::set<std::uint64_t> seen;
    std::uint64_t max_seq = 0;
    std::uint64_t frames = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t reordered = 0;
    std::uint64_t health_events = 0;
    std::uint64_t breaches = 0;
    std::int64_t ok = 0;  // svc.ok total
    /// metric -> 1 s slot -> (count, sum in arrival order).
    std::map<std::string,
             std::map<std::int64_t, std::pair<std::uint64_t, double>>>
        slots;
  };
  std::map<std::string, Vehicle> vehicles;
  std::uint64_t frames = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reordered = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t batches = 0;
  sim::SimTime watermark = 0;
  std::uint64_t passes = 0;
  std::uint64_t scanned = 0;
  std::vector<FleetAnomaly> anomalies;
  std::map<std::string, std::set<std::string>> flagged;  // metric -> vehicles

  std::uint64_t lost() const {
    std::uint64_t n = 0;
    for (const auto& [name, v] : vehicles) {
      if (v.max_seq > v.frames) n += v.max_seq - v.frames;
    }
    return n;
  }

  std::string vehicle_table() const {
    util::TextTable table("fleet vehicles");
    table.set_header({"vehicle", "frames", "dup", "reorder", "lost",
                      "health ev", "breaches"});
    for (const auto& [name, v] : vehicles) {
      table.add_row({name, std::to_string(v.frames),
                     std::to_string(v.duplicates), std::to_string(v.reordered),
                     std::to_string(v.max_seq > v.frames ? v.max_seq - v.frames
                                                         : 0),
                     std::to_string(v.health_events),
                     std::to_string(v.breaches)});
    }
    return table.to_string();
  }
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// One barrier's detection: every vehicle's mean over the slots of its
/// newest kRingSlots that intersect [watermark - kWindow, watermark],
/// scored per dirty metric in name order.
void replay_detect(Replay* r, const std::set<std::string>& dirty) {
  const sim::SimTime from = r->watermark > kWindow ? r->watermark - kWindow : 0;
  for (const std::string& metric : dirty) {
    if (metric.rfind("loc.", 0) == 0) continue;
    std::vector<std::pair<std::string, double>> means;
    for (const auto& [name, v] : r->vehicles) {
      auto it = v.slots.find(metric);
      if (it == v.slots.end()) continue;
      const std::int64_t newest = it->second.rbegin()->first;
      std::uint64_t count = 0;
      double sum = 0.0;
      for (const auto& [slot, cell] : it->second) {  // oldest first
        if (slot <= newest - kRingSlots) continue;
        if (slot * kSlot + kSlot <= from || slot * kSlot > r->watermark) {
          continue;
        }
        count += cell.first;
        sum += cell.second;
      }
      if (count > 0) means.emplace_back(name, sum / static_cast<double>(count));
    }
    ++r->passes;
    r->scanned += means.size();
    if (means.size() < 3) continue;
    std::vector<double> values;
    for (const auto& [name, x] : means) values.push_back(x);
    const double med = median(values);
    std::vector<double> deviations;
    for (double x : values) deviations.push_back(std::abs(x - med));
    const double mad =
        std::max(median(deviations), 0.005 * std::max(std::abs(med), 1e-6));
    std::set<std::string>& flagged = r->flagged[metric];
    for (const auto& [name, x] : means) {
      const double score = 0.6745 * std::abs(x - med) / mad;
      if (flagged.count(name) == 0 && score >= 3.5) {
        flagged.insert(name);
        r->anomalies.push_back({r->watermark, name, metric, x, med, score});
      } else if (flagged.count(name) > 0 && score < 3.5 * 0.7) {
        flagged.erase(name);
      }
    }
  }
}

Replay replay(const Stream& stream) {
  Replay r;
  for (const std::vector<std::string>& batch : stream.batches) {
    if (batch.empty()) continue;
    ++r.batches;
    std::set<std::string> dirty;
    for (const std::string& line : batch) {
      std::optional<WireFrame> frame = wire_decode(line);
      if (!frame.has_value()) {
        ++r.decode_errors;
        continue;
      }
      Replay::Vehicle& v = r.vehicles[frame->vehicle];
      const std::uint64_t floor =
          v.max_seq > kSeqWindow ? v.max_seq - kSeqWindow : 0;
      if (frame->seq <= floor || !v.seen.insert(frame->seq).second) {
        ++v.duplicates;
        ++r.duplicates;
        continue;
      }
      if (frame->seq < v.max_seq) {
        ++v.reordered;
        ++r.reordered;
      }
      v.max_seq = std::max(v.max_seq, frame->seq);
      ++v.frames;
      ++r.frames;
      r.watermark = std::max(r.watermark, frame->created);
      if (auto ok = frame->counters.find("svc.ok");
          ok != frame->counters.end()) {
        v.ok += ok->second;
      }
      for (const WireHealthEvent& ev : frame->events) {
        ++v.health_events;
        if (ev.kind.find("breach") != std::string::npos) ++v.breaches;
      }
      for (const auto& [metric, samples] : frame->samples) {
        if (!samples.empty()) dirty.insert(metric);
        for (const WireSample& s : samples) {
          r.watermark = std::max(r.watermark, s.first);
          if (!std::isfinite(s.second) || s.first < 0) continue;
          auto& cell = v.slots[metric][s.first / kSlot];
          ++cell.first;
          cell.second += s.second;
        }
      }
    }
    replay_detect(&r, dirty);
  }
  return r;
}

// Accounting, the vehicle table and every anomaly (time, value, median,
// score) against the replay, exactly.
TEST(IngestOracle, MatchesFleetAggregatorAccountingAndDetection) {
  std::mt19937_64 meta(7041);
  for (int draw = 0; draw < 4; ++draw) {
    StreamSpec spec;
    spec.seed = meta();
    spec.vehicles = 6 + static_cast<int>(meta() % 6);
    spec.batches = 25;
    // Draws alternate between one impaired vehicle and a healthy fleet.
    spec.outlier =
        draw % 2 == 0 ? static_cast<int>(meta() % spec.vehicles) : -1;
    std::size_t flags = spec.outlier >= 0 ? 1 : 0;
    if (draw == 3) {
      // Sick, healthy for batches 10-39 (detection clears), then sick
      // again over a full window of healthy history: flagged twice.
      spec.outlier = static_cast<int>(meta() % spec.vehicles);
      spec.batches = 60;
      spec.healthy_from = 10;
      spec.healthy_to = 40;
      flags = 2;
    }
    const Stream stream = make_stream(spec);
    const Replay want = replay(stream);

    // The replay itself flags exactly the planted outlier.
    ASSERT_EQ(want.anomalies.size(), flags) << "draw " << draw;
    for (const FleetAnomaly& a : want.anomalies) {
      EXPECT_EQ(a.vehicle, stream.outlier_vehicle) << "draw " << draw;
    }

    IngestOptions iopts;
    iopts.shards = 4;
    iopts.threads = 2;
    ShardedIngestBackend backend(iopts);
    feed(&backend, stream);

    EXPECT_EQ(backend.frames_ingested(), want.frames);
    EXPECT_EQ(backend.duplicates(), want.duplicates);
    EXPECT_EQ(backend.reordered(), want.reordered);
    EXPECT_EQ(backend.decode_errors(), want.decode_errors);
    EXPECT_EQ(backend.lost_frames(), want.lost());
    EXPECT_EQ(backend.batches(), want.batches);
    EXPECT_EQ(backend.watermark(), want.watermark);
    std::vector<std::string> names;
    for (const auto& [name, v] : want.vehicles) {
      names.push_back(name);
      EXPECT_EQ(backend.counter_total(name, "svc.ok"), v.ok) << name;
    }
    EXPECT_EQ(backend.vehicles(), names);
    EXPECT_EQ(backend.vehicle_table(), want.vehicle_table());

    EXPECT_EQ(backend.detect_passes(), want.passes) << "draw " << draw;
    EXPECT_EQ(backend.detect_scanned(), want.scanned) << "draw " << draw;
    ASSERT_EQ(backend.anomalies().size(), want.anomalies.size())
        << "draw " << draw << "\n" << backend.anomaly_table();
    for (std::size_t i = 0; i < want.anomalies.size(); ++i) {
      const FleetAnomaly& got = backend.anomalies()[i];
      const FleetAnomaly& exp = want.anomalies[i];
      EXPECT_EQ(got.at, exp.at) << "draw " << draw << " anomaly " << i;
      EXPECT_EQ(got.vehicle, exp.vehicle) << "draw " << draw;
      EXPECT_EQ(got.metric, exp.metric) << "draw " << draw;
      EXPECT_EQ(got.value, exp.value) << "draw " << draw << " anomaly " << i;
      EXPECT_EQ(got.fleet_median, exp.fleet_median)
          << "draw " << draw << " anomaly " << i;
      EXPECT_EQ(got.score, exp.score) << "draw " << draw << " anomaly " << i;
    }
  }
}

// --- satellite 1: brute-force ground truth for the query layer -------------

TEST(IngestOracle, QueriesMatchBruteForceGroundTruth) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    StreamSpec spec;
    spec.seed = seed;
    spec.vehicles = 6;
    spec.batches = 25;
    spec.garbage_lines = false;
    const Stream stream = make_stream(spec);

    IngestOptions opts;
    opts.shards = 4;
    opts.threads = 2;
    opts.block.block_samples = 8;   // many sealed blocks, partial decodes
    opts.block.max_blocks = 4096;   // no eviction: truth covers everything
    ShardedIngestBackend backend(opts);
    feed(&backend, stream);
    ASSERT_EQ(backend.samples_ingested(), stream.truth_samples);

    std::mt19937_64 rng(seed * 31 + 7);
    for (int round = 0; round < 24; ++round) {
      sim::SimTime from = sim::msec(rng() % (26 * 1000));
      sim::SimTime to = sim::msec(rng() % (26 * 1000));
      if (round == 0) { from = 0; to = sim::kTimeMax; }  // full history
      if (from > to) std::swap(from, to);
      Query q;
      q.kind = Query::Kind::kRange;
      q.metric = "svc.latency_ms";
      q.from = from;
      q.to = to;
      const QueryResult r = backend.run_query(q);

      std::size_t row = 0;
      for (const auto& [vehicle, metrics] : stream.truth) {
        auto it = metrics.find(q.metric);
        if (it == metrics.end()) continue;
        ASSERT_LT(row, r.per_vehicle.size());
        const QueryVehicleRow& got = r.per_vehicle[row++];
        EXPECT_EQ(got.vehicle, vehicle);
        std::size_t count = 0;
        double sum = 0.0, mn = 0.0, mx = 0.0;
        for (const WireSample& s : it->second) {
          if (s.first < from || s.first > to) continue;
          if (count == 0) {
            mn = mx = s.second;
          } else {
            mn = std::min(mn, s.second);
            mx = std::max(mx, s.second);
          }
          ++count;
          sum += s.second;
        }
        EXPECT_EQ(got.agg.count, count) << vehicle;
        EXPECT_DOUBLE_EQ(got.agg.sum, sum) << vehicle;
        if (count > 0) {
          EXPECT_EQ(got.agg.min, mn) << vehicle;
          EXPECT_EQ(got.agg.max, mx) << vehicle;
        }

        // The vehicle-scoped lookup answers with exactly the fleet-wide
        // row for that vehicle.
        Query one = q;
        one.vehicle = vehicle;
        const QueryResult scoped = backend.run_query(one);
        ASSERT_EQ(scoped.per_vehicle.size(), 1u) << vehicle;
        const QueryVehicleRow& solo = scoped.per_vehicle[0];
        EXPECT_EQ(solo.vehicle, got.vehicle);
        EXPECT_EQ(solo.agg.count, got.agg.count) << vehicle;
        EXPECT_EQ(solo.agg.sum, got.agg.sum) << vehicle;
        EXPECT_EQ(solo.agg.min, got.agg.min) << vehicle;
        EXPECT_EQ(solo.agg.max, got.agg.max) << vehicle;
        EXPECT_EQ(solo.p50, got.p50) << vehicle;
        EXPECT_EQ(solo.p95, got.p95) << vehicle;
        EXPECT_EQ(solo.p99, got.p99) << vehicle;
        EXPECT_EQ(scoped.fleet.count, got.agg.count) << vehicle;
        EXPECT_EQ(scoped.fleet.sum, got.agg.sum) << vehicle;
      }
      EXPECT_EQ(row, r.per_vehicle.size());

      // An absent vehicle, and a present vehicle without the metric,
      // answer with no rows and a zero fleet aggregate.
      Query absent = q;
      absent.vehicle = "cav-9999";
      Query no_metric = q;
      no_metric.vehicle = stream.truth.begin()->first;
      no_metric.metric = "svc.absent";
      for (const Query& empty : {absent, no_metric}) {
        const QueryResult none = backend.run_query(empty);
        EXPECT_TRUE(none.per_vehicle.empty()) << empty.vehicle;
        EXPECT_EQ(none.fleet.count, 0u) << empty.vehicle;
        EXPECT_EQ(none.fleet.sum, 0.0) << empty.vehicle;
        EXPECT_EQ(none.fleet.min, 0.0) << empty.vehicle;
        EXPECT_EQ(none.fleet.max, 0.0) << empty.vehicle;
      }
    }

    // `near` against a brute-force replay of last_at_or_before semantics
    // (later-appended wins timestamp ties; both fixes within `within`).
    for (int round = 0; round < 12; ++round) {
      Query q;
      q.kind = Query::Kind::kNear;
      q.x = static_cast<double>(rng() % 60);
      q.y = -static_cast<double>(rng() % 30);
      q.radius = 5.0 + static_cast<double>(rng() % 40);
      q.at = sim::msec(rng() % (26 * 1000));
      q.within = sim::seconds(1 + rng() % 20);
      const QueryResult r = backend.run_query(q);

      std::vector<QueryNearHit> expected;
      const sim::SimTime horizon = q.at > q.within ? q.at - q.within : 0;
      for (const auto& [vehicle, metrics] : stream.truth) {
        auto gx = metrics.find("loc.x");
        auto gy = metrics.find("loc.y");
        if (gx == metrics.end() || gy == metrics.end()) continue;
        const WireSample* fx = nullptr;
        const WireSample* fy = nullptr;
        for (const WireSample& s : gx->second) {
          if (s.first <= q.at && (fx == nullptr || s.first >= fx->first)) {
            fx = &s;
          }
        }
        for (const WireSample& s : gy->second) {
          if (s.first <= q.at && (fy == nullptr || s.first >= fy->first)) {
            fy = &s;
          }
        }
        if (fx == nullptr || fy == nullptr) continue;
        if (fx->first < horizon || fy->first < horizon) continue;
        const double dx = fx->second - q.x;
        const double dy = fy->second - q.y;
        const double dist = std::sqrt(dx * dx + dy * dy);
        if (dist > q.radius) continue;
        expected.push_back({vehicle, fx->second, fy->second, dist,
                            std::max(fx->first, fy->first)});
      }
      std::sort(expected.begin(), expected.end(),
                [](const QueryNearHit& a, const QueryNearHit& b) {
                  if (a.dist != b.dist) return a.dist < b.dist;
                  return a.vehicle < b.vehicle;
                });
      ASSERT_EQ(r.hits.size(), expected.size()) << "round " << round;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(r.hits[i].vehicle, expected[i].vehicle);
        EXPECT_DOUBLE_EQ(r.hits[i].x, expected[i].x);
        EXPECT_DOUBLE_EQ(r.hits[i].y, expected[i].y);
        EXPECT_DOUBLE_EQ(r.hits[i].dist, expected[i].dist);
        EXPECT_EQ(r.hits[i].at, expected[i].at);
      }
    }
  }
}

// --- satellite 3: one impaired vehicle among 10k, unthrottled --------------

TEST(IngestOracle, ExactlyOneImpairedVehicleAmongTenThousandIsFlagged) {
  const int kVehicles = 10'000;
  const int kImpaired = 4242;
  IngestOptions opts;
  opts.shards = 8;
  opts.threads = 8;
  ShardedIngestBackend backend(opts);

  for (int b = 0; b < 3; ++b) {
    const sim::SimTime t0 = sim::seconds(b + 1);
    std::vector<std::string> batch;
    batch.reserve(static_cast<std::size_t>(kVehicles));
    for (int i = 0; i < kVehicles; ++i) {
      WireFrame frame;
      frame.vehicle = veh_name(i);
      frame.seq = static_cast<std::uint64_t>(b) + 1;
      frame.created = t0;
      const double value =
          25.0 + 0.01 * (i % 7) + (i == kImpaired ? 80.0 : 0.0);
      frame.samples["svc.latency_ms"].push_back({t0, value});
      batch.push_back(wire_encode(frame));
    }
    std::vector<std::string_view> views(batch.begin(), batch.end());
    backend.ingest_batch(views);
  }

  EXPECT_EQ(backend.frames_ingested(),
            static_cast<std::uint64_t>(kVehicles) * 3);
  EXPECT_EQ(backend.anomalous_vehicles(),
            std::vector<std::string>{veh_name(kImpaired)});
  for (const FleetAnomaly& a : backend.anomalies()) {
    EXPECT_EQ(a.vehicle, veh_name(kImpaired));
    EXPECT_EQ(a.metric, "svc.latency_ms");
    EXPECT_GE(a.score, 3.5);
  }
  // Hysteresis: one impairment, one flag event — not one per barrier.
  EXPECT_EQ(backend.anomalies().size(), 1u);
}

// --- satellite 3: the registry counters pin O(V)-per-barrier cost ----------

TEST(IngestOracle, RegistryCountersProveDetectionScansLinearlyPerBarrier) {
  const int kVehicles = 200;
  const int kBatches = 10;
  Domain domain;
  BindScope bind({&domain, nullptr, nullptr});

  IngestOptions opts;
  opts.shards = 4;
  opts.threads = 2;
  ShardedIngestBackend backend(opts);
  for (int b = 0; b < kBatches; ++b) {
    const sim::SimTime t0 = sim::seconds(b + 1);
    std::vector<std::string> batch;
    for (int i = 0; i < kVehicles; ++i) {
      WireFrame frame;
      frame.vehicle = veh_name(i);
      frame.seq = static_cast<std::uint64_t>(b) + 1;
      frame.created = t0;
      frame.samples["svc.latency_ms"].push_back({t0, 25.0 + 0.1 * (i % 4)});
      batch.push_back(wire_encode(frame));
    }
    std::vector<std::string_view> views(batch.begin(), batch.end());
    backend.ingest_batch(views);
  }

  const MetricsRegistry& m = domain.metrics();
  // One pass per (barrier, dirty metric); every pass examines each
  // vehicle's window mean exactly once. The PR-4 per-frame behaviour
  // would have scanned batches × V × V means — two orders of magnitude
  // more — so this equality pins the O(V)-per-barrier cost.
  EXPECT_EQ(m.counter_value("fleet.ingest.detect.passes"), kBatches);
  EXPECT_EQ(m.counter_value("fleet.ingest.detect.scanned"),
            static_cast<std::int64_t>(kBatches) * kVehicles);
  EXPECT_EQ(m.counter_value("fleet.ingest.frames"),
            static_cast<std::int64_t>(backend.frames_ingested()));
  EXPECT_EQ(m.counter_value("fleet.ingest.samples"),
            static_cast<std::int64_t>(backend.samples_ingested()));
  EXPECT_EQ(m.counter_value("fleet.ingest.duplicates"), 0);
  EXPECT_EQ(m.gauge_value("fleet.ingest.vehicles"),
            static_cast<double>(kVehicles));
}

// --- names containing '|' keep their hysteresis state apart ---------------

/// The rollup table's outliers column, by metric.
std::map<std::string, std::string> rollup_outliers(const std::string& table) {
  std::map<std::string, std::string> out;
  std::istringstream lines(table);
  std::string line;
  for (int n = 0; std::getline(lines, line); ++n) {
    if (n < 3) continue;  // title, header, rule
    std::istringstream cells(line);
    std::string metric, cell, last;
    cells >> metric;
    while (cells >> cell) last = cell;
    out[metric] = last;
  }
  return out;
}

TEST(IngestOracle, PipeInNamesKeepsHysteresisApart) {
  IngestOptions opts;
  opts.shards = 2;
  ShardedIngestBackend backend(opts);
  // One batch: `odd` reports `metric` at 90 against three vehicles near 10.
  auto batch = [&backend](std::uint64_t seq, const std::string& metric,
                          const std::string& odd) {
    const sim::SimTime t = sim::seconds(static_cast<int>(seq));
    std::vector<std::string> lines;
    for (const auto& [vehicle, value] :
         std::vector<std::pair<std::string, double>>{
             {odd, 90.0}, {"v1", 10.0}, {"v2", 10.2}, {"v3", 9.8}}) {
      WireFrame frame;
      frame.vehicle = vehicle;
      frame.seq = seq;
      frame.created = t;
      frame.samples[metric].push_back({t, value});
      lines.push_back(wire_encode(frame));
    }
    std::vector<std::string_view> views(lines.begin(), lines.end());
    backend.ingest_batch(views);
  };
  // (a|x, y) and (a, x|y) would share one "metric|vehicle" key.
  batch(1, "a|x", "y");
  batch(2, "a", "x|y");

  ASSERT_EQ(backend.anomalies().size(), 2u) << backend.anomaly_table();
  EXPECT_EQ(backend.anomalies()[0].metric, "a|x");
  EXPECT_EQ(backend.anomalies()[0].vehicle, "y");
  EXPECT_EQ(backend.anomalies()[1].metric, "a");
  EXPECT_EQ(backend.anomalies()[1].vehicle, "x|y");
  const std::map<std::string, std::string> outliers =
      rollup_outliers(backend.rollup_table());
  EXPECT_EQ(outliers, (std::map<std::string, std::string>{{"a", "1"},
                                                          {"a|x", "1"}}))
      << backend.rollup_table();
}

// --- concurrent read-only queries ------------------------------------------

TEST(IngestOracle, ConcurrentQueriesMatchSequential) {
  StreamSpec spec;
  spec.seed = 505;
  spec.vehicles = 24;
  spec.batches = 20;
  const Stream stream = make_stream(spec);
  IngestOptions opts;
  opts.shards = 4;
  opts.threads = 4;
  opts.block.block_samples = 16;
  ShardedIngestBackend backend(opts);
  feed(&backend, stream);

  const std::vector<std::string> queries = {
      "range metric=svc.latency_ms",
      "range metric=svc.latency_ms from=5s to=15s",
      "range metric=loc.x",
      "near x=0 y=0 r=60 at=20s within=20s",
      "near x=100 y=-50 r=80 at=12s within=5s",
  };
  std::vector<std::string> sequential;
  for (const std::string& q : queries) {
    std::string error;
    sequential.push_back(backend.run_query_text(q, &error));
    ASSERT_FALSE(sequential.back().empty()) << q << ": " << error;
  }

  // Two readers share the quiesced backend, and so its thread pool.
  int mismatches[2] = {0, 0};
  auto reader = [&](int id) {
    for (int rep = 0; rep < 20; ++rep) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        if (backend.run_query_text(queries[i]) != sequential[i]) {
          ++mismatches[id];
        }
      }
    }
  };
  std::thread a(reader, 0);
  std::thread b(reader, 1);
  a.join();
  b.join();
  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
}

// Standalone routing is FNV-1a-64(vehicle) % shards. Every output is
// shard-count invariant by design, so no other test would notice the
// routing move (a wrong FNV basis, say): pin it for fixed names.
TEST(IngestOracle, ShardOfRoutesFixedNamesToGoldenShards) {
  const std::vector<std::string> names = {
      "cav-0", "cav-1", "cav-2",  "cav-3",    "cav-4",   "cav-5", "cav-6",
      "cav-7", "cav-8", "cav-9", "cav-10", "cav-99", "cav-1234", "truck-a",
      ""};
  const std::map<int, std::vector<int>> golden = {
      {4, {0, 3, 2, 1, 0, 3, 2, 1, 0, 3, 1, 2, 0, 2, 1}},
      {8, {0, 3, 6, 1, 4, 7, 2, 5, 0, 3, 1, 6, 4, 2, 5}}};
  for (const auto& [shards, want] : golden) {
    IngestOptions opts;
    opts.shards = shards;
    const ShardedIngestBackend backend(opts);
    std::vector<int> got;
    for (const std::string& name : names) got.push_back(backend.shard_of(name));
    EXPECT_EQ(got, want) << "shards=" << shards;
  }
}

// --- columnar series / store / pool units ----------------------------------

TEST(ColumnarSeries, SealingRangeAndEvictionAccounting) {
  ColumnarSeries::Options opts;
  opts.block_samples = 16;
  opts.max_blocks = 256;
  ColumnarSeries series(opts);
  std::vector<WireSample> all;
  std::mt19937_64 rng(99);
  for (int i = 0; i < 100; ++i) {
    const sim::SimTime at = sim::msec(10) * i;
    const double v = static_cast<double>(rng() % 1000) / 8.0;
    series.append(at, v, nullptr);
    all.push_back({at, v});
  }
  EXPECT_EQ(series.total_count(), 100u);
  EXPECT_EQ(series.sealed_blocks(), 100u / 16);
  EXPECT_EQ(series.evicted_blocks(), 0u);
  EXPECT_GT(series.encoded_bytes(), 0u);

  for (int round = 0; round < 50; ++round) {
    sim::SimTime from = sim::msec(rng() % 1100);
    sim::SimTime to = sim::msec(rng() % 1100);
    if (from > to) std::swap(from, to);
    const ColumnarSeries::RangeAgg agg = series.range(from, to);
    std::size_t count = 0;
    double sum = 0.0, mn = 0.0, mx = 0.0;
    for (const WireSample& s : all) {
      if (s.first < from || s.first > to) continue;
      if (count == 0) {
        mn = mx = s.second;
      } else {
        mn = std::min(mn, s.second);
        mx = std::max(mx, s.second);
      }
      ++count;
      sum += s.second;
    }
    EXPECT_EQ(agg.count, count);
    EXPECT_DOUBLE_EQ(agg.sum, sum);
    if (count > 0) {
      EXPECT_EQ(agg.min, mn);
      EXPECT_EQ(agg.max, mx);
    }
  }
  // The full-range sketch holds every sample (cap not hit here).
  EXPECT_EQ(series.sketch(0, sim::kTimeMax).count(), 100u);

  // Eviction: a 3-block budget drops the oldest blocks with exact
  // accounting; lifetime totals stay exact.
  ColumnarSeries::Options small = opts;
  small.max_blocks = 3;
  ColumnarSeries evicting(small);
  for (int i = 0; i < 100; ++i) {
    evicting.append(sim::msec(10) * i, static_cast<double>(i), nullptr);
  }
  EXPECT_EQ(evicting.evicted_blocks(), 3u);
  EXPECT_EQ(evicting.evicted_samples(), 3u * 16);
  EXPECT_EQ(evicting.sealed_blocks(), 3u);
  EXPECT_EQ(evicting.total_count(), 100u);
  EXPECT_EQ(evicting.total_max(), 99.0);
  // Evicted samples are gone from range() but not from the totals.
  EXPECT_EQ(evicting.range(0, sim::kTimeMax).count, 100u - 48u);
}

TEST(ColumnarSeries, LastAtOrBeforePrefersLaterAppendedOnTies) {
  ColumnarSeries series;
  series.append(sim::seconds(10), 1.0, nullptr);
  series.append(sim::seconds(10), 2.0, nullptr);
  series.append(sim::seconds(30), 9.0, nullptr);
  auto fix = series.last_at_or_before(sim::seconds(20));
  ASSERT_TRUE(fix.has_value());
  EXPECT_EQ(fix->first, sim::seconds(10));
  EXPECT_EQ(fix->second, 2.0);  // later-appended wins the tie
  EXPECT_FALSE(series.last_at_or_before(sim::seconds(9)).has_value());
  // Ties across a block seal keep the same rule.
  ColumnarSeries::Options opts;
  opts.block_samples = 2;
  ColumnarSeries sealed(opts);
  sealed.append(sim::seconds(10), 1.0, nullptr);
  sealed.append(sim::seconds(10), 2.0, nullptr);  // sealed block
  sealed.append(sim::seconds(10), 3.0, nullptr);  // active block
  fix = sealed.last_at_or_before(sim::seconds(10));
  ASSERT_TRUE(fix.has_value());
  EXPECT_EQ(fix->second, 3.0);
}

TEST(ColumnarStore, PoolRecyclesBlockMemoryAcrossSeals) {
  BlockPool pool;
  ColumnarSeries::Options opts;
  opts.block_samples = 8;
  opts.max_blocks = 4;  // force evictions so encode buffers recycle too
  ColumnarStore store(opts, &pool);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(store.observe("m", sim::msec(i), static_cast<double>(i)));
  }
  // 50 seals: after the first few, columns and encode buffers come from
  // the free lists instead of fresh allocations.
  EXPECT_GT(pool.column_reuses(), 40u);
  EXPECT_GT(pool.buffer_reuses(), 0u);
  EXPECT_LT(pool.column_allocs(), 5u);
  // Validation contract: non-finite values and negative times rejected.
  EXPECT_FALSE(store.observe("m", sim::msec(1), std::nan("")));
  EXPECT_FALSE(store.observe("m", -1, 1.0));
  EXPECT_EQ(store.rejected(), 2u);
  EXPECT_EQ(store.series("m")->total_count(), 400u);
}

}  // namespace
}  // namespace vdap::telemetry::fleet
