// Cross-module property tests: randomized workloads checked against
// reference models or conservation laws, the invariants DESIGN.md §6 calls
// out.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "core/platform.hpp"
#include "ddi/diskdb.hpp"
#include "ddi/memdb.hpp"
#include "hw/board.hpp"
#include "hw/catalog.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "vcu/dsf.hpp"
#include "workload/apps.hpp"

namespace vdap {
namespace {

namespace fs = std::filesystem;

// --- JSON: random documents round-trip through dump/parse ------------------

json::Value random_json(util::RngStream& rng, int depth) {
  double u = rng.uniform();
  if (depth <= 0 || u < 0.35) {
    switch (rng.uniform_int(0, 4)) {
      case 0: return json::Value(nullptr);
      case 1: return json::Value(rng.chance(0.5));
      case 2: return json::Value(rng.uniform_int(-1'000'000, 1'000'000));
      case 3: return json::Value(rng.normal(0.0, 1e6));
      default: {
        std::string s;
        int len = static_cast<int>(rng.uniform_int(0, 12));
        for (int i = 0; i < len; ++i) {
          s.push_back(static_cast<char>(rng.uniform_int(32, 126)));
        }
        return json::Value(std::move(s));
      }
    }
  }
  if (u < 0.65) {
    json::Array a;
    int n = static_cast<int>(rng.uniform_int(0, 5));
    for (int i = 0; i < n; ++i) a.push_back(random_json(rng, depth - 1));
    return json::Value(std::move(a));
  }
  json::Object o;
  int n = static_cast<int>(rng.uniform_int(0, 5));
  for (int i = 0; i < n; ++i) {
    o["k" + std::to_string(rng.uniform_int(0, 99))] =
        random_json(rng, depth - 1);
  }
  return json::Value(std::move(o));
}

class JsonFuzz : public ::testing::TestWithParam<int> {};

TEST_P(JsonFuzz, DumpParseRoundTrip) {
  util::RngStream rng(static_cast<std::uint64_t>(GetParam()), "json-fuzz");
  for (int i = 0; i < 200; ++i) {
    json::Value v = random_json(rng, 4);
    json::Value back = json::parse(v.dump());
    EXPECT_EQ(back, v);
    EXPECT_EQ(json::parse(v.pretty()), v);
    // Idempotent second round trip.
    EXPECT_EQ(json::parse(back.dump()).dump(), back.dump());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzz, ::testing::Values(1, 2, 3, 4, 5));

// --- MemDb: random op sequence vs a reference model -------------------------

class MemDbModel : public ::testing::TestWithParam<int> {};

TEST_P(MemDbModel, MatchesReferenceWithoutCapacityPressure) {
  // With an effectively unlimited budget, MemDb must behave exactly like a
  // map with TTL semantics.
  util::RngStream rng(static_cast<std::uint64_t>(GetParam()), "memdb-fuzz");
  ddi::MemDb db({1ull << 30, sim::seconds(10)});
  struct Ref {
    ddi::DataRecord value;
    sim::SimTime expires;
  };
  std::map<std::string, Ref> ref;
  sim::SimTime now = 0;

  for (int op = 0; op < 3000; ++op) {
    now += rng.uniform_int(0, sim::seconds(1));
    std::string key = "k" + std::to_string(rng.uniform_int(0, 30));
    switch (rng.uniform_int(0, 3)) {
      case 0: {  // put
        ddi::DataRecord rec;
        rec.stream = "s";
        rec.payload["op"] = op;
        sim::SimDuration ttl = rng.uniform_int(1, sim::seconds(20));
        db.put(key, rec, now, ttl);
        ref[key] = Ref{std::move(rec), now + ttl};
        break;
      }
      case 1: {  // get
        auto got = db.get(key, now);
        auto it = ref.find(key);
        bool expect = it != ref.end() && it->second.expires > now;
        EXPECT_EQ(got.has_value(), expect) << "op " << op << " key " << key;
        if (got && expect) EXPECT_EQ(*got, it->second.value);
        if (it != ref.end() && it->second.expires <= now) ref.erase(it);
        break;
      }
      case 2: {  // erase
        bool db_had = db.erase(key);
        auto it = ref.find(key);
        bool ref_had = it != ref.end() && it->second.expires > now;
        // A key expired-but-not-yet-purged may still be erased in db.
        if (ref_had) EXPECT_TRUE(db_had);
        if (it != ref.end()) ref.erase(it);
        break;
      }
      default: {  // contains
        auto it = ref.find(key);
        bool expect = it != ref.end() && it->second.expires > now;
        EXPECT_EQ(db.contains(key, now), expect);
        break;
      }
    }
  }
}

TEST_P(MemDbModel, CapacityNeverExceeded) {
  util::RngStream rng(static_cast<std::uint64_t>(GetParam()) + 50,
                      "memdb-cap");
  constexpr std::uint64_t kCap = 8 * 1024;
  ddi::MemDb db({kCap, sim::seconds(100)});
  for (int op = 0; op < 2000; ++op) {
    ddi::DataRecord rec;
    rec.stream = "s";
    rec.payload["pad"] =
        std::string(static_cast<std::size_t>(rng.uniform_int(0, 300)), 'x');
    db.put("k" + std::to_string(rng.uniform_int(0, 100)), rec, op);
    EXPECT_LE(db.bytes(), kCap);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemDbModel, ::testing::Values(11, 12, 13));

// --- DiskDb: random records round-trip across reopen -------------------------

class DiskDbFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DiskDbFuzz, RandomRecordsSurviveReopen) {
  util::RngStream rng(static_cast<std::uint64_t>(GetParam()), "diskdb-fuzz");
  const std::string dir =
      core::make_temp_dir("vdap-fuzz-" + std::to_string(GetParam()));
  std::vector<ddi::DataRecord> written;
  {
    ddi::DiskDb db({dir, 8 * 1024});
    for (int i = 0; i < 400; ++i) {
      ddi::DataRecord r;
      r.stream = "s" + std::to_string(rng.uniform_int(0, 3));
      r.timestamp = rng.uniform_int(0, sim::minutes(10));
      r.lat = rng.uniform(-90, 90);
      r.lon = rng.uniform(-180, 180);
      r.payload = random_json(rng, 2);
      db.put(r);
      written.push_back(r);
    }
    db.flush();
  }
  ddi::DiskDb db({dir, 8 * 1024});
  EXPECT_EQ(db.record_count(), written.size());
  // Every written record is found in its stream's full-range query.
  std::map<std::string, std::multiset<sim::SimTime>> expect_ts;
  for (const auto& r : written) expect_ts[r.stream].insert(r.timestamp);
  for (const auto& [stream, times] : expect_ts) {
    auto out = db.query(stream, 0, sim::minutes(10));
    ASSERT_EQ(out.size(), times.size()) << stream;
    std::multiset<sim::SimTime> got;
    for (const auto& r : out) got.insert(r.timestamp);
    EXPECT_EQ(got, times) << stream;
    // Time-ordered.
    for (std::size_t i = 1; i < out.size(); ++i) {
      EXPECT_LE(out[i - 1].timestamp, out[i].timestamp);
    }
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiskDbFuzz, ::testing::Values(21, 22, 23));

// --- ComputeDevice: conservation & monotonicity under random load -----------

class DeviceConservation : public ::testing::TestWithParam<int> {};

TEST_P(DeviceConservation, EveryWorkItemReportsExactlyOnce) {
  sim::Simulator sim(static_cast<std::uint64_t>(GetParam()));
  hw::ComputeDevice dev(sim, hw::catalog::jetson_tx2_maxp());
  util::RngStream& rng = sim.rng("load");
  int submitted = 0;
  int reported = 0;
  sim::SimTime last_finish = 0;
  for (int i = 0; i < 300; ++i) {
    sim.after(rng.uniform_int(0, sim::seconds(5)), [&] {
      ++submitted;
      hw::TaskClass cls = rng.chance(0.8) ? hw::TaskClass::kCnnInference
                                          : hw::TaskClass::kDbQuery;  // unsupported
      dev.submit({cls, rng.uniform(0.1, 20.0), static_cast<int>(rng.uniform_int(0, 5)),
                  [&](const hw::WorkReport& rep) {
                    ++reported;
                    EXPECT_GE(rep.finished, rep.started);
                    EXPECT_GE(rep.started, rep.submitted);
                    last_finish = std::max(last_finish, rep.finished);
                  }});
    });
  }
  // Yank the device offline at a random time, bring it back later.
  sim.after(sim::seconds(2), [&] { dev.set_online(false); });
  sim.after(sim::seconds(3), [&] { dev.set_online(true); });
  sim.run_until(sim::minutes(5));
  EXPECT_EQ(submitted, 300);
  EXPECT_EQ(reported, 300);  // nothing lost, nothing duplicated
  EXPECT_EQ(dev.completed() + dev.aborted(),
            static_cast<std::uint64_t>(submitted));
  EXPECT_EQ(dev.busy_slots(), 0);
  EXPECT_EQ(dev.queue_length(), 0u);
  EXPECT_GE(dev.energy_joules(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeviceConservation,
                         ::testing::Values(31, 32, 33, 34));

// --- DSF: instance conservation under chaos ---------------------------------

class DsfChaos : public ::testing::TestWithParam<int> {};

TEST_P(DsfChaos, EveryInstanceCompletesOrFailsOnce) {
  sim::Simulator sim(static_cast<std::uint64_t>(GetParam()));
  hw::VcuBoard board(sim, "chaos");
  hw::populate_reference_1sthep(board);
  vcu::ResourceRegistry reg;
  for (const auto& d : board.devices()) reg.join(d.get());
  vcu::Dsf dsf(sim, reg, std::make_unique<vcu::GreedyEftScheduler>());

  util::RngStream& rng = sim.rng("chaos");
  auto all_apps = workload::apps::all();
  int submitted = 0;
  int callbacks = 0;
  for (int i = 0; i < 200; ++i) {
    sim.after(rng.uniform_int(0, sim::seconds(20)), [&] {
      ++submitted;
      const auto& dag = all_apps[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(all_apps.size()) - 1))];
      dsf.submit(dag, [&](const vcu::DagRun&) { ++callbacks; });
    });
  }
  // Random device outages (plug-and-play chaos).
  for (int i = 0; i < 6; ++i) {
    sim.after(rng.uniform_int(0, sim::seconds(20)), [&] {
      auto devices = reg.devices();
      hw::ComputeDevice* d = devices[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(devices.size()) - 1))];
      d->set_online(!d->online());
    });
  }
  sim.run_until(sim::minutes(10));
  EXPECT_EQ(submitted, 200);
  EXPECT_EQ(callbacks, 200);
  EXPECT_EQ(dsf.completed() + dsf.failed(),
            static_cast<std::uint64_t>(submitted));
  EXPECT_EQ(dsf.in_flight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DsfChaos, ::testing::Values(41, 42, 43, 44));

// --- Simulator: determinism under a heavy random event storm ---------------

TEST(SimDeterminism, EventStormReplaysExactly) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim(seed);
    util::RngStream& rng = sim.rng("storm");
    std::vector<sim::SimTime> trace;
    std::function<void(int)> spawn = [&](int depth) {
      trace.push_back(sim.now());
      if (depth >= 4) return;
      int children = static_cast<int>(rng.uniform_int(0, 3));
      for (int c = 0; c < children; ++c) {
        sim.after(rng.uniform_int(0, sim::msec(100)),
                  [&, depth] { spawn(depth + 1); });
      }
    };
    for (int i = 0; i < 50; ++i) {
      sim.after(rng.uniform_int(0, sim::seconds(1)), [&] { spawn(0); });
    }
    sim.run_until(sim::seconds(5));
    return trace;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7).size(), 0u);
}

}  // namespace
}  // namespace vdap
