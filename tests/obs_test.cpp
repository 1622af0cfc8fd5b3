// Shard-aware telemetry suite (DESIGN.md §6h).
//
// The load-bearing assertions are the capture sweeps: with per-shard
// domains attached, the SAME (seed, config) must export BYTE-identical
// trace + metrics artifacts no matter how many shards partition the fleet
// or how many threads drive them — and turning capture on must never move
// the run's digest. The DomainSet unit tests exist to localize a sweep
// failure; the shard-report tests cover the runtime (wall-clock) plane
// that is deliberately outside the byte-identity contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/fleet.hpp"
#include "core/fleet_scale.hpp"
#include "sim/sharded.hpp"
#include "telemetry/domains.hpp"
#include "telemetry/export.hpp"
#include "telemetry/planes.hpp"
#include "telemetry/shard_report.hpp"

namespace {

using namespace vdap;
using telemetry::Domain;
using telemetry::DomainSet;
using telemetry::ShardRuntimeRow;
using telemetry::TraceArgs;

// The 100k acceptance sweep runs at full size on a plain build but is
// scaled down under ASan/TSan, where a 100k-vehicle run costs minutes.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// --- DomainSet merge mechanics ----------------------------------------------

// The merged log in order, across its per-epoch chunks.
std::vector<telemetry::TraceEvent> merged_events(const DomainSet& set) {
  std::vector<telemetry::TraceEvent> out;
  for (const std::vector<telemetry::TraceEvent>& chunk : set.chunks()) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

// The determinism keystone: the merged export is a pure function of the
// event MULTISET, not of which domain recorded what. Record the same
// events under two different shard placements and the merged traces must
// match byte for byte.
TEST(DomainSetTest, MergeIndependentOfDomainPlacement) {
  auto record = [](DomainSet& set, const std::vector<int>& placement) {
    // Three instants + one complete slice, "placed" per the vector.
    set.shard_domain(placement[0])->tracer().instant(
        sim::usec(30), "net", "send", "net/uplink");
    set.shard_domain(placement[1])->tracer().instant(
        sim::usec(10), "net", "send", "net/uplink");
    set.shard_domain(placement[2])->tracer().complete(
        sim::usec(10), sim::usec(5), "task", "decode", "ingest/0");
    set.shard_domain(placement[3])->tracer().instant(
        sim::usec(20), "net", "ack", "net/uplink");
    set.merge_epoch();
  };
  DomainSet a(2);
  DomainSet b(2);
  record(a, {0, 0, 1, 1});
  record(b, {1, 0, 0, 1});
  EXPECT_EQ(a.chrome_trace(), b.chrome_trace());
  EXPECT_EQ(a.events(), 4u);
  // And the canonical order is by timestamp first.
  EXPECT_EQ(merged_events(a)[0].ts, sim::usec(10));
  EXPECT_EQ(merged_events(a)[3].ts, sim::usec(30));
}

TEST(DomainSetTest, SpanIdsRenumberedInMergedOrder) {
  DomainSet set(2);
  // Shard 1 opens its span first in wall order, but shard 0's begins
  // earlier in sim time — the merged ids follow merged (canonical) order.
  const std::uint64_t late =
      set.shard_domain(1)->tracer().begin(sim::usec(50), "svc", "run-b", "svc");
  const std::uint64_t early =
      set.shard_domain(0)->tracer().begin(sim::usec(5), "svc", "run-a", "svc");
  set.shard_domain(1)->tracer().end(sim::usec(60), late);
  set.shard_domain(0)->tracer().end(sim::usec(70), early);
  set.merge_epoch();

  std::vector<std::uint64_t> begin_ids;
  for (const telemetry::TraceEvent& ev : merged_events(set)) {
    if (ev.ph == 'b') begin_ids.push_back(ev.id);
  }
  EXPECT_EQ(begin_ids, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(set.open_spans(), 0u);
}

// 'b'/'e' pairs may straddle an epoch barrier; the id mapping must
// survive the merge in between.
TEST(DomainSetTest, SpanPairsSurviveEpochBarriers) {
  DomainSet set(1);
  const std::uint64_t id =
      set.shard_domain(0)->tracer().begin(sim::usec(5), "svc", "run", "svc");
  set.merge_epoch();
  EXPECT_EQ(set.open_spans(), 1u);
  set.shard_domain(0)->tracer().end(sim::usec(9), id);
  set.merge_epoch();
  EXPECT_EQ(set.open_spans(), 0u);
  ASSERT_EQ(set.events(), 2u);
  EXPECT_EQ(merged_events(set)[0].id, merged_events(set)[1].id);
}

TEST(DomainSetTest, MergedMetricsFoldAllDomains) {
  DomainSet set(2);
  set.shard_domain(0)->metrics().inc("frames", 3);
  set.shard_domain(1)->metrics().inc("frames", 4);
  set.coordinator_domain()->metrics().inc("frames", 5);
  set.shard_domain(1)->metrics().observe("lat", 2.0);
  const telemetry::MetricsRegistry merged = set.merged_metrics();
  EXPECT_EQ(merged.counter_value("frames"), 12);
  ASSERT_NE(merged.histogram("lat"), nullptr);
}

// The merge that sorted staged copies of every drained event, kept
// verbatim as the byte reference for DomainSet::merge_epoch, which sorts
// references instead and maps tracks once per domain track.
struct Staged {
  telemetry::TraceEvent ev;
  const std::string* track = nullptr;
  int entry = 0;  // 0..shards-1, then shards for the coordinator
};

bool canonical_less(const Staged& a, const Staged& b) {
  if (a.ev.ts != b.ev.ts) return a.ev.ts < b.ev.ts;
  if (int c = a.track->compare(*b.track); c != 0) return c < 0;
  if (int c = a.ev.name.compare(b.ev.name); c != 0) return c < 0;
  if (int c = a.ev.cat.compare(b.ev.cat); c != 0) return c < 0;
  if (a.ev.ph != b.ev.ph) return a.ev.ph < b.ev.ph;
  if (a.ev.dur != b.ev.dur) return a.ev.dur < b.ev.dur;
  if (a.ev.args.empty() && b.ev.args.empty()) return false;
  // json::Object is a std::map, so dumping is itself deterministic. Args
  // comparisons only run for events tied on all cheaper fields.
  return json::Value(a.ev.args_object()).dump() <
         json::Value(b.ev.args_object()).dump();
}

class CopyMergeSet {
 public:
  explicit CopyMergeSet(int shards) {
    for (int i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Entry>());
  }
  Domain* shard_domain(int i) {
    return &shards_[static_cast<std::size_t>(i)]->domain;
  }
  Domain* coordinator_domain() { return &coordinator_.domain; }
  const telemetry::Tracer& tracer() const { return master_; }

  void merge_epoch() {
    std::vector<Staged> batch;
    auto drain = [&batch](Entry& entry, int index) {
      telemetry::Tracer& t = entry.domain.tracer();
      const std::vector<std::string>& tracks = t.tracks();
      for (telemetry::TraceEvent& ev : t.take_events()) {
        Staged s;
        s.track = &tracks[ev.tid];
        s.entry = index;
        s.ev = std::move(ev);
        batch.push_back(std::move(s));
      }
    };
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      drain(*shards_[i], static_cast<int>(i));
    }
    drain(coordinator_, static_cast<int>(shards_.size()));
    if (batch.empty()) return;

    std::stable_sort(batch.begin(), batch.end(), canonical_less);

    for (Staged& s : batch) {
      std::map<std::uint64_t, std::uint64_t>& ids =
          s.entry < static_cast<int>(shards_.size())
              ? shards_[static_cast<std::size_t>(s.entry)]->span_ids
              : coordinator_.span_ids;
      telemetry::TraceEvent ev = std::move(s.ev);
      ev.tid = master_.track(*s.track);
      if (ev.ph == 'b') {
        std::uint64_t master_id = next_span_++;
        ids[ev.id] = master_id;
        ev.id = master_id;
      } else if (ev.ph == 'e') {
        auto it = ids.find(ev.id);
        if (it == ids.end()) continue;  // begin was recorded while unbound
        ev.id = it->second;
        ids.erase(it);
      }
      master_.absorb(std::move(ev));
    }
  }

 private:
  struct Entry {
    Domain domain;
    std::map<std::uint64_t, std::uint64_t> span_ids;
  };
  std::vector<std::unique_ptr<Entry>> shards_;
  Entry coordinator_;
  telemetry::Tracer master_;
  std::uint64_t next_span_ = 1;
};

// Random epochs recorded identically into a DomainSet and the reference:
// few timestamps, tracks, names and categories, so the sort meets content
// twins across and within domains (begins whose ends differ, so their
// order shows in the span ids), ties broken only by args, 'b'/'e' pairs
// spanning epochs, 'e' events whose begin the merge never saw, and tracks
// first seen in later epochs.
TEST(DomainSetTest, MergeByReferenceMatchesCopyMerge) {
  std::mt19937_64 rng(20261018);
  auto below = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };
  for (int trial = 0; trial < 200; ++trial) {
    const int shards = 1 + below(4);
    DomainSet set(shards);
    CopyMergeSet ref(shards);
    auto domains = [&](int d) {
      return d < shards ? std::pair{set.shard_domain(d), ref.shard_domain(d)}
                        : std::pair{set.coordinator_domain(),
                                    ref.coordinator_domain()};
    };
    struct Open {
      int domain;
      std::uint64_t id;
      std::uint64_t ref_id;
    };
    std::vector<Open> open;
    const int epochs = 1 + below(5);
    for (int epoch = 0; epoch < epochs; ++epoch) {
      const sim::SimTime base = sim::usec(100 * epoch);
      for (int n = below(120); n > 0; --n) {
        const int d = below(shards + 1);
        const sim::SimTime ts = base + below(4);
        // Later epochs add tracks, names that sort before earlier ones.
        const std::string track = "trk/" + std::to_string(below(2 + 2 * epoch));
        const std::string name = below(2) == 0 ? "run" : "xfer";
        const std::string cat = below(3) == 0 ? "net" : "svc";
        const sim::SimDuration dur = below(2);
        TraceArgs args;
        if (below(2) == 0) args.add("k", below(3));
        auto [mine, theirs] = domains(d);
        switch (below(6)) {
          case 0:
            mine->tracer().complete(ts, dur, cat, name, track, args);
            theirs->tracer().complete(ts, dur, cat, name, track, args);
            break;
          case 1:
            mine->tracer().instant(ts, cat, name, track, args);
            theirs->tracer().instant(ts, cat, name, track, args);
            break;
          case 2: {
            // A begin, often twinned in further domains.
            for (int twins = below(3) == 0 ? 1 + below(3) : 0, k = d;
                 twins >= 0; --twins, k = below(shards + 1)) {
              auto [m, t] = domains(k);
              open.push_back({k, m->tracer().begin(ts, cat, name, track, args),
                              t->tracer().begin(ts, cat, name, track, args)});
            }
            break;
          }
          case 3:
          case 4:
            if (!open.empty()) {
              const std::size_t i =
                  static_cast<std::size_t>(below(static_cast<int>(open.size())));
              const Open o = open[i];
              open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
              auto [m, t] = domains(o.domain);
              m->tracer().end(ts + dur, o.id, args);
              t->tracer().end(ts + dur, o.ref_id, args);
            }
            break;
          default: {
            // An 'e' whose begin the merge never saw.
            telemetry::TraceEvent ev;
            ev.ph = 'e';
            ev.ts = ts;
            ev.id = below(2) == 0 ? 0 : 1'000'000'000 + rng() % 1000;
            ev.cat = cat;
            ev.name = name;
            telemetry::TraceEvent twin = ev;
            ev.tid = mine->tracer().track(track);
            twin.tid = theirs->tracer().track(track);
            mine->tracer().absorb(std::move(ev));
            theirs->tracer().absorb(std::move(twin));
            break;
          }
        }
      }
      set.merge_epoch();
      ref.merge_epoch();
      ASSERT_EQ(set.events(), ref.tracer().events().size())
          << "trial " << trial << " epoch " << epoch;
      ASSERT_EQ(set.chrome_trace(), telemetry::chrome_trace_json(ref.tracer()))
          << "trial " << trial << " epoch " << epoch;
    }
  }
}

// Content twins that differ only in args, one with none, recorded out of
// order across domains: the merge orders them by args text with the
// empty args last, as the dump "{}" sorted, and matches the copy-merge.
TEST(DomainSetTest, ArgsOnlyTwinsSortByTextWithEmptyArgsLast) {
  const std::vector<TraceArgs> args = {
      TraceArgs(), TraceArgs().add("k", 1),
      TraceArgs().add("k", json::Object{}), TraceArgs().add("a", "x"),
      TraceArgs().add("k", 0)};
  DomainSet set(2);
  CopyMergeSet ref(2);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const int d = static_cast<int>(i % 2);
    for (Domain* domain : {set.shard_domain(d), ref.shard_domain(d)}) {
      domain->tracer().begin(sim::usec(7), "svc", "run", "svc", args[i]);
      domain->tracer().instant(sim::usec(7), "svc", "run", "svc", args[i]);
    }
  }
  set.merge_epoch();
  ref.merge_epoch();
  EXPECT_EQ(set.chrome_trace(), telemetry::chrome_trace_json(ref.tracer()));

  const std::vector<std::string> sorted = {
      R"({"a":"x"})", R"({"k":0})", R"({"k":1})", R"({"k":{}})", ""};
  std::vector<std::string> begins;
  std::vector<std::uint64_t> ids;
  for (const telemetry::TraceEvent& ev : merged_events(set)) {
    if (ev.ph != 'b') continue;
    begins.push_back(ev.args);
    ids.push_back(ev.id);
  }
  EXPECT_EQ(begins, sorted);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

// --- thread-local binding ----------------------------------------------------

// There is no global domain to fall back on: the accessors are the bound
// domain's, and the guarded helpers record nothing while unbound.
TEST(DomainBindingTest, AccessorsReadTheBoundDomain) {
  ASSERT_EQ(telemetry::bound_domain(), nullptr);
  EXPECT_FALSE(telemetry::on());
  Domain mine;
  {
    telemetry::BindScope bind({&mine, nullptr, nullptr});
    EXPECT_TRUE(telemetry::on());
    EXPECT_EQ(&telemetry::tracer(), &mine.tracer());
    EXPECT_EQ(&telemetry::metrics(), &mine.metrics());
    telemetry::count("bound");
  }
  EXPECT_FALSE(telemetry::on());
  telemetry::count("unbound");
  EXPECT_EQ(mine.metrics().counter_value("bound"), 1);
  EXPECT_EQ(mine.metrics().counter_value("unbound"), 0);
}

// Nested scopes restore every plane of the binding they shadowed —
// including an all-null binding shadowing a live one.
TEST(BindScopeTest, NestedScopesRestoreEveryPlane) {
  Domain d1;
  Domain d2;
  telemetry::FlightRing r1(4);
  telemetry::FlightRing r2(4);
  telemetry::prof::ProfSlot p1;
  telemetry::prof::ProfSlot p2;
  auto expect_bound = [](Domain* d, telemetry::FlightRing* r,
                         telemetry::prof::ProfSlot* p) {
    EXPECT_EQ(telemetry::bound_domain(), d);
    EXPECT_EQ(telemetry::bound_flight(), r);
    EXPECT_EQ(telemetry::prof::bound_prof(), p);
  };
  expect_bound(nullptr, nullptr, nullptr);
  {
    telemetry::BindScope outer({&d1, &r1, &p1});
    expect_bound(&d1, &r1, &p1);
    {
      telemetry::BindScope inner({&d2, &r2, &p2});
      expect_bound(&d2, &r2, &p2);
      {
        telemetry::BindScope off({});
        expect_bound(nullptr, nullptr, nullptr);
      }
      expect_bound(&d2, &r2, &p2);
    }
    expect_bound(&d1, &r1, &p1);
  }
  expect_bound(nullptr, nullptr, nullptr);
}

// A capture nested inside another one shadows it: the inner domain gets
// every record made in its scope, and the outer one — bound by a raw
// bind_domain here — none of them, and is bound again afterwards.
TEST(DomainBindingTest, SessionRefusesToShadowABoundDomain) {
  Domain outer;
  Domain* prev = telemetry::bind_domain(&outer);
  {
    Domain inner;
    telemetry::BindScope bind({&inner});
    telemetry::count("inner");
    EXPECT_EQ(inner.metrics().counter_value("inner"), 1);
  }
  EXPECT_EQ(telemetry::bound_domain(), &outer);
  telemetry::count("outer");
  EXPECT_EQ(outer.metrics().counter_value("inner"), 0);
  EXPECT_EQ(outer.metrics().counter_value("outer"), 1);
  telemetry::bind_domain(prev);
}

// Worker threads + per-shard capture: the simulator sizes its own domains
// from the shard count, and each shard's work lands in its own domain.
TEST(ShardedCaptureTest, ThreadsWithDomainCaptureRun) {
  telemetry::ObsOptions obs;
  obs.capture = true;
  sim::ShardedSimulator ssim(7, {2, 2, sim::seconds(1), obs});
  ASSERT_NE(ssim.planes().capture(), nullptr);
  DomainSet& domains = *ssim.planes().capture();
  EXPECT_EQ(domains.shards(), 2);
  for (int s = 0; s < 2; ++s) {
    ssim.shard(s).at(sim::msec(100), [s, &ssim] {
      if (telemetry::on()) {
        telemetry::tracer().instant(ssim.shard(s).now(), "test", "tick",
                                    "shard");
      }
    });
  }
  EXPECT_EQ(ssim.run_until(sim::seconds(1)), 2u);
  domains.merge_epoch();
  EXPECT_EQ(domains.events(), 2u);
}

// --- capture byte-identity sweeps -------------------------------------------

core::FleetScaleConfig scale_config(int shards, int threads) {
  core::FleetScaleConfig cfg;
  cfg.vehicles = 40;
  cfg.seed = 11;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.run_until = sim::seconds(6);
  cfg.drain = sim::seconds(6);
  cfg.capture = true;
  cfg.ingest_backend = true;  // cover the ingest mirror instrumentation
  return cfg;
}

TEST(ObsSweepTest, ScaleCaptureIdenticalAcrossShardAndThreadCounts) {
  core::FleetScaleConfig off_cfg = scale_config(1, 1);
  off_cfg.capture = false;
  const core::FleetScaleOutcome off = core::run_fleet_scale(off_cfg);

  const core::FleetScaleOutcome base = core::run_fleet_scale(scale_config(1, 1));
  EXPECT_GT(base.trace_events, 0u);
  EXPECT_GT(base.metric_keys, 0u);
  EXPECT_EQ(base.open_spans, 0u);
  // Observing the run must not perturb it.
  EXPECT_EQ(base.digest, off.digest);
  EXPECT_EQ(base.summary, off.summary);

  for (int shards : {1, 2, 8}) {
    for (int threads : {1, 2, 8}) {
      if (shards == 1 && threads == 1) continue;
      const core::FleetScaleOutcome out =
          core::run_fleet_scale(scale_config(shards, threads));
      EXPECT_EQ(out.chrome_trace, base.chrome_trace)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(out.metrics_jsonl, base.metrics_jsonl)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(out.trace_events, base.trace_events);
      EXPECT_EQ(out.metric_keys, base.metric_keys);
      EXPECT_EQ(out.open_spans, 0u) << "leaked spans at shards=" << shards
                                    << " threads=" << threads;
      EXPECT_EQ(out.digest, base.digest);
    }
  }
}

// The acceptance sweep: a 100k-vehicle run_fleet_scale with capture on and
// threads=8 exports byte-identically to shards=threads=1 (scaled down
// under sanitizers, where full size costs minutes — the full matrix above
// still proves the invariance shape).
TEST(ObsSweepTest, HundredKCapturePairwiseIdentical) {
  core::FleetScaleConfig cfg;
  cfg.vehicles = kSanitized ? 2000 : 100000;
  cfg.seed = 7;
  cfg.epoch = sim::seconds(1);
  cfg.sample_period = sim::seconds(2);
  cfg.samples_per_tick = 2;
  cfg.run_until = sim::seconds(4);
  cfg.drain = sim::seconds(4);
  cfg.shipper.flush_period = sim::seconds(2);
  cfg.capture = true;

  cfg.shards = 1;
  cfg.threads = 1;
  const core::FleetScaleOutcome serial = core::run_fleet_scale(cfg);
  cfg.shards = 8;
  cfg.threads = 8;
  const core::FleetScaleOutcome parallel = core::run_fleet_scale(cfg);

  EXPECT_EQ(parallel.digest, serial.digest);
  EXPECT_EQ(parallel.chrome_trace, serial.chrome_trace);
  EXPECT_EQ(parallel.metrics_jsonl, serial.metrics_jsonl);
  EXPECT_EQ(serial.open_spans, 0u);
  EXPECT_EQ(parallel.open_spans, 0u);
  EXPECT_GT(parallel.trace_events, 0u);
}

// run_fleet duplicates some world instrumentation per shard (shared
// shipping topology, tier links), so its capture contract is
// thread-invariance at a FIXED shard count (FleetConfig::capture).
TEST(ObsSweepTest, FullFleetCaptureThreadInvariantAtFixedShards) {
  core::FleetConfig cfg;
  cfg.vehicles = 6;
  cfg.seed = 11;
  cfg.shards = 2;
  cfg.load_until = sim::seconds(60);
  cfg.run_until = sim::seconds(90);
  cfg.drain = sim::seconds(30);
  cfg.capture = true;
  sim::FaultPlan none;
  none.name = "none";

  cfg.threads = 1;
  cfg.dir_tag = "obs-fleet-1";
  const core::FleetOutcome base = core::run_fleet(none, cfg);
  EXPECT_GT(base.trace_events, 0u);
  EXPECT_EQ(base.open_spans, 0u);
  int variant = 2;
  for (int threads : {2, 8}) {
    cfg.threads = threads;
    cfg.dir_tag = "obs-fleet-" + std::to_string(variant++);
    const core::FleetOutcome out = core::run_fleet(none, cfg);
    EXPECT_EQ(out.chrome_trace, base.chrome_trace) << "threads=" << threads;
    EXPECT_EQ(out.metrics_jsonl, base.metrics_jsonl) << "threads=" << threads;
    EXPECT_EQ(out.open_spans, 0u);
    EXPECT_EQ(out.frames_jsonl, base.frames_jsonl);
  }
}

// --- runtime-plane shard report ---------------------------------------------

TEST(ShardReportTest, JsonlRoundTripsEveryField) {
  ShardRuntimeRow a;
  a.shard = 0;
  a.epochs = 20;
  a.events = 1234;
  a.busy_s = 1.5;
  a.wait_s = 0.25;
  a.queue_peak = 99;
  a.wheel_peak = 88;
  a.overflow_peak = 7;
  ShardRuntimeRow b;
  b.shard = 1;
  b.frames = 42;
  b.samples = 420;
  b.ring_late = 3;
  b.decode_errors = 1;
  b.backlog_peak = 17;
  b.lag_us_peak = -2500;  // a shard AHEAD of the merged watermark
  b.pool_hits = 30;
  b.pool_misses = 10;
  b.pool_free = 5;

  const std::string jsonl = telemetry::shards_report_jsonl({a, b});
  std::vector<ShardRuntimeRow> rows;
  std::string error;
  ASSERT_TRUE(telemetry::parse_shards_report(jsonl, &rows, &error)) << error;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].events, 1234u);
  EXPECT_DOUBLE_EQ(rows[0].busy_s, 1.5);
  EXPECT_DOUBLE_EQ(rows[0].wait_s, 0.25);
  EXPECT_EQ(rows[0].overflow_peak, 7u);
  EXPECT_EQ(rows[1].frames, 42u);
  EXPECT_EQ(rows[1].lag_us_peak, -2500);
  EXPECT_EQ(rows[1].pool_hits, 30u);
  // Re-serializing the parsed rows reproduces the input byte for byte.
  EXPECT_EQ(telemetry::shards_report_jsonl(rows), jsonl);

  const std::string table = telemetry::shards_report_table(rows);
  EXPECT_NE(table.find("judgement"), std::string::npos);
  EXPECT_NE(table.find("75.0"), std::string::npos);  // pool hit% of row b
}

TEST(ShardReportTest, ParseRejectsMalformedInput) {
  std::vector<ShardRuntimeRow> rows;
  std::string error;
  EXPECT_FALSE(telemetry::parse_shards_report("not json\n", &rows, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(telemetry::parse_shards_report("{\"shard\":0}\n[1,2]\n", &rows,
                                              &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_FALSE(telemetry::parse_shards_report("", &rows, &error));
  EXPECT_NE(error.find("no rows"), std::string::npos);
}

TEST(ShardReportTest, JudgementsNameEachPathology) {
  ShardRuntimeRow row;
  row.busy_s = 1.0;
  EXPECT_EQ(telemetry::analysis::judge_shard_runtime(row), "ok");

  row.wait_s = 0.5;  // a third of wall time waiting at barriers
  EXPECT_EQ(telemetry::analysis::judge_shard_runtime(row), "imbalanced");

  // Sub-10ms runs are scheduling noise, never "imbalanced".
  ShardRuntimeRow tiny;
  tiny.busy_s = 0.001;
  tiny.wait_s = 0.008;
  EXPECT_EQ(telemetry::analysis::judge_shard_runtime(tiny), "ok");

  ShardRuntimeRow bad;
  bad.overflow_peak = 1;
  bad.ring_late = 2;
  bad.decode_errors = 3;
  EXPECT_EQ(telemetry::analysis::judge_shard_runtime(bad),
            "overflow,backpressure,decode-errors");
}

// The imbalance threshold is strict (> 0.25 * wall): a shard waiting for
// EXACTLY a quarter of its wall time is still "ok" — the verdict flips
// only past the boundary, and these pins keep the boundary from drifting
// silently under a refactor.
TEST(ShardReportTest, JudgementBoundaries) {
  ShardRuntimeRow quarter;
  quarter.busy_s = 0.75;
  quarter.wait_s = 0.25;  // wait == 0.25 * wall, not >
  EXPECT_EQ(telemetry::analysis::judge_shard_runtime(quarter), "ok");

  ShardRuntimeRow just_over;
  just_over.busy_s = 0.7499;
  just_over.wait_s = 0.2501;
  EXPECT_EQ(telemetry::analysis::judge_shard_runtime(just_over), "imbalanced");

  // A shard that never ran an epoch has zero wall time: nothing to judge.
  ShardRuntimeRow zero;
  EXPECT_EQ(telemetry::analysis::judge_shard_runtime(zero), "ok");

  // All-idle (busy 0, all wall time at barriers) IS imbalance — the shard
  // had nothing to do while its siblings worked.
  ShardRuntimeRow idle;
  idle.busy_s = 0.0;
  idle.wait_s = 1.0;
  EXPECT_EQ(telemetry::analysis::judge_shard_runtime(idle), "imbalanced");
}

// The --json report carries each row's judgement inline, so machine
// consumers never re-implement the verdict rules.
TEST(ShardReportTest, JudgedJsonlAppendsVerdicts) {
  ShardRuntimeRow ok;
  ok.shard = 0;
  ok.busy_s = 1.0;
  ShardRuntimeRow late;
  late.shard = 1;
  late.ring_late = 2;
  const std::string jsonl = telemetry::shards_report_judged_jsonl({ok, late});
  EXPECT_NE(jsonl.find("\"judgement\":\"ok\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"judgement\":\"backpressure\""), std::string::npos);
  // The judged form stays parseable: judgement is an unknown key to the
  // round-trip parser and is ignored.
  std::vector<ShardRuntimeRow> rows;
  std::string error;
  ASSERT_TRUE(telemetry::parse_shards_report(jsonl, &rows, &error)) << error;
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].ring_late, 2u);
}

// The report a real sharded run emits parses and judges cleanly.
TEST(ShardReportTest, ScaleRunEmitsParsableReport) {
  core::FleetScaleConfig cfg;
  cfg.vehicles = 40;
  cfg.seed = 11;
  cfg.shards = 4;
  cfg.threads = 2;
  cfg.run_until = sim::seconds(4);
  cfg.drain = sim::seconds(4);
  cfg.ingest_backend = true;
  const core::FleetScaleOutcome out = core::run_fleet_scale(cfg);

  std::vector<ShardRuntimeRow> rows;
  std::string error;
  ASSERT_TRUE(telemetry::parse_shards_report(out.shards_jsonl, &rows, &error))
      << error;
  ASSERT_EQ(rows.size(), 4u);
  std::uint64_t events = 0;
  std::uint64_t frames = 0;
  for (const ShardRuntimeRow& r : rows) {
    events += r.events;
    frames += r.frames;
    EXPECT_EQ(r.epochs, out.epochs);
    EXPECT_GT(r.queue_peak, 0u);
  }
  EXPECT_EQ(events, out.events_fired);
  EXPECT_EQ(frames, out.frames_ingested);
}

}  // namespace
