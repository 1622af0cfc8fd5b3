// Sharded-simulator determinism suite (DESIGN.md §6f).
//
// The load-bearing assertions are the sweeps: the SAME (seed, plan,
// config) must yield BYTE-identical output — digests, report tables,
// frame logs, fault traces — no matter how many shards partition the
// fleet or how many threads drive them. Everything else here (calendar
// queue vs heap oracle, thread pool, epoch mechanics) exists to localize
// a sweep failure.
#include <gtest/gtest.h>

#include <atomic>
#include <cassert>
#include <functional>
#include <map>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "core/fleet_scale.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded.hpp"
#include "sim/thread_pool.hpp"
#include "telemetry/planes.hpp"

namespace {

using namespace vdap;
using sim::EventId;
using sim::EventQueue;
using sim::SimTime;

// --- calendar queue vs heap oracle ------------------------------------------

// The original binary-heap event queue, kept as the reference oracle: same
// interface and firing order as EventQueue; ids are plain insertion
// indices.
class HeapEventQueue {
 public:
  EventId push(SimTime at, sim::EventFn fn) {
    EventId id = next_id_++;
    fns_.push_back(std::move(fn));
    cancelled_.push_back(false);
    assert(fns_.size() == next_id_);
    heap_.push(Entry{at, id});
    ++live_count_;
    return id;
  }

  bool cancel(EventId id) {
    if (id >= next_id_ || cancelled_[id] || !fns_[id]) return false;
    cancelled_[id] = true;
    fns_[id] = nullptr;  // release captured state promptly
    --live_count_;
    return true;
  }

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  SimTime next_time() {
    drop_cancelled();
    return heap_.empty() ? sim::kTimeMax : heap_.top().at;
  }

  using Fired = EventQueue::Fired;
  Fired pop() {
    drop_cancelled();
    assert(!heap_.empty());
    Entry e = heap_.top();
    heap_.pop();
    Fired fired{e.at, e.id, std::move(fns_[e.id])};
    fns_[e.id] = nullptr;
    --live_count_;
    return fired;
  }

 private:
  struct Entry {
    SimTime at;
    EventId id;
    bool operator>(const Entry& other) const {
      if (at != other.at) return at > other.at;
      return id > other.id;
    }
  };

  void drop_cancelled() {
    while (!heap_.empty() && cancelled_[heap_.top().id]) heap_.pop();
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  // Callbacks are stored out of the heap so cancel() is O(1).
  std::vector<sim::EventFn> fns_;  // indexed by id
  std::vector<bool> cancelled_;    // indexed by id
  EventId next_id_ = 0;
  std::size_t live_count_ = 0;
};

// Drives the bucketed calendar queue and the reference heap queue through
// one identical randomized schedule of push/cancel/pop and asserts they
// fire the same events at the same times in the same order. A small wheel
// (4 buckets x 1024 us) forces constant overflow spills, window advances
// and re-anchors — the paths a plain in-window workload never touches.
TEST(CalendarQueueTest, MatchesHeapOracleOnRandomizedSchedule) {
  util::RngStream rng(0xBADC0DE);
  EventQueue calendar(sim::usec(1024), 4);
  HeapEventQueue heap;

  std::vector<int> calendar_fired;
  std::vector<int> heap_fired;
  std::vector<sim::SimTime> calendar_times;
  std::vector<sim::SimTime> heap_times;
  // tag -> the EventId each queue handed out for it (for cancels).
  std::map<int, sim::EventId> calendar_ids;
  std::map<int, sim::EventId> heap_ids;
  std::vector<int> live_tags;

  sim::SimTime now = 0;
  int next_tag = 0;
  for (int op = 0; op < 5000; ++op) {
    const double dice = rng.uniform();
    if (dice < 0.55) {
      // Push at a time from "past" (clamped by pop order anyway) to far
      // beyond the wheel window.
      const sim::SimTime at = now + rng.uniform_int(0, 20'000);
      const int tag = next_tag++;
      calendar_ids[tag] = calendar.push(
          at, [tag, &calendar_fired]() { calendar_fired.push_back(tag); });
      heap_ids[tag] =
          heap.push(at, [tag, &heap_fired]() { heap_fired.push_back(tag); });
      live_tags.push_back(tag);
    } else if (dice < 0.70 && !live_tags.empty()) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live_tags.size()) - 1));
      const int tag = live_tags[pick];
      live_tags.erase(live_tags.begin() + static_cast<std::ptrdiff_t>(pick));
      EXPECT_EQ(calendar.cancel(calendar_ids[tag]), heap.cancel(heap_ids[tag]))
          << "cancel verdicts diverged for tag " << tag;
    } else if (!calendar.empty()) {
      ASSERT_FALSE(heap.empty());
      ASSERT_EQ(calendar.next_time(), heap.next_time()) << "op " << op;
      EventQueue::Fired cf = calendar.pop();
      HeapEventQueue::Fired hf = heap.pop();
      ASSERT_EQ(cf.at, hf.at) << "op " << op;
      now = cf.at;
      calendar_times.push_back(cf.at);
      heap_times.push_back(hf.at);
      cf.fn();
      hf.fn();
    }
    ASSERT_EQ(calendar.size(), heap.size()) << "op " << op;
  }
  // Drain what is left.
  while (!heap.empty()) {
    ASSERT_FALSE(calendar.empty());
    ASSERT_EQ(calendar.next_time(), heap.next_time());
    EventQueue::Fired cf = calendar.pop();
    HeapEventQueue::Fired hf = heap.pop();
    ASSERT_EQ(cf.at, hf.at);
    cf.fn();
    hf.fn();
  }
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(calendar_fired, heap_fired);
  EXPECT_EQ(calendar_times, heap_times);
}

// Regression: drain the queue (the cursor bucket keeps its consumed
// prefix), then push an event that re-anchors the wheel onto that SAME
// bucket index. The stale consumed entries must not be retired twice —
// that corrupted the slot free list and silently dropped later events.
TEST(CalendarQueueTest, ReanchorOntoConsumedBucketDoesNotDropEvents) {
  const sim::SimDuration width = sim::usec(1024);
  const std::size_t buckets = 4;
  EventQueue q(width, buckets);
  const sim::SimDuration window = width * static_cast<sim::SimDuration>(buckets);

  std::vector<int> fired;
  q.push(0, [&fired]() { fired.push_back(0); });
  q.push(1, [&fired]() { fired.push_back(1); });
  q.pop().fn();
  q.pop().fn();  // bucket 0 now holds two consumed (retired) entries

  // 10 * window lands on bucket index 0 again after the re-anchor.
  q.push(10 * window, [&fired]() { fired.push_back(2); });
  q.push(10 * window + 1, [&fired]() { fired.push_back(3); });
  q.push(10 * window + 2, [&fired]() { fired.push_back(4); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(CalendarQueueTest, CancelOfOverflowedEventHolds) {
  EventQueue q(sim::usec(1024), 4);
  std::vector<int> fired;
  sim::EventId far = q.push(sim::seconds(100),
                            [&fired]() { fired.push_back(99); });
  q.push(sim::usec(10), [&fired]() { fired.push_back(1); });
  EXPECT_TRUE(q.cancel(far));
  EXPECT_FALSE(q.cancel(far));
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, std::vector<int>{1});
}

// Pushes into the cursor bucket while it is being consumed wait in a late
// heap that pop() merges with the sorted bucket by (at, seq). The default
// wheel with thousands of events in one bucket, pushes at and just after
// `now` during consumption, and cancels of those heap entries, against the
// heap oracle. Preferring either source over the other fails it.
TEST(CalendarQueueTest, LatePushesIntoTheCursorBucketFireInOrder) {
  util::RngStream rng(0x1A7E5);
  EventQueue calendar;  // default wheel: 512 buckets x 8192 us
  HeapEventQueue heap;
  std::vector<int> calendar_fired;
  std::vector<int> heap_fired;
  std::map<int, sim::EventId> calendar_ids;
  std::map<int, sim::EventId> heap_ids;
  int next_tag = 0;
  auto push = [&](sim::SimTime at) {
    const int tag = next_tag++;
    calendar_ids[tag] = calendar.push(
        at, [tag, &calendar_fired]() { calendar_fired.push_back(tag); });
    heap_ids[tag] =
        heap.push(at, [tag, &heap_fired]() { heap_fired.push_back(tag); });
    return tag;
  };
  for (int i = 0; i < 4000; ++i) push(rng.uniform_int(0, 8191));

  std::vector<int> late;  // pushed mid-bucket; may have fired already
  for (int op = 0; !heap.empty(); ++op) {
    ASSERT_FALSE(calendar.empty());
    ASSERT_EQ(calendar.next_time(), heap.next_time()) << "op " << op;
    EventQueue::Fired cf = calendar.pop();
    HeapEventQueue::Fired hf = heap.pop();
    ASSERT_EQ(cf.at, hf.at) << "op " << op;
    cf.fn();
    hf.fn();
    // Stay inside the first bucket, so every push lands in the cursor
    // bucket while it is sorted and partly consumed.
    if (cf.at < 8180 && next_tag < 8000) {
      for (int k = static_cast<int>(rng.uniform_int(0, 1)); k > 0; --k) {
        late.push_back(push(cf.at + rng.uniform_int(0, 3)));
      }
    }
    if (!late.empty() && rng.uniform() < 0.25) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(late.size()) - 1));
      const int tag = late[pick];
      late.erase(late.begin() + static_cast<std::ptrdiff_t>(pick));
      ASSERT_EQ(calendar.cancel(calendar_ids[tag]), heap.cancel(heap_ids[tag]))
          << "tag " << tag;
    }
    ASSERT_EQ(calendar.size(), heap.size()) << "op " << op;
  }
  EXPECT_TRUE(calendar.empty());
  EXPECT_GT(next_tag, 6000);
  EXPECT_EQ(calendar_fired, heap_fired);
}

// --- thread pool ------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskAcrossBatches) {
  for (int threads : {1, 4}) {
    sim::ThreadPool pool(threads);
    std::atomic<int> hits{0};
    for (int batch = 0; batch < 3; ++batch) {
      std::vector<std::function<void()>> tasks;
      for (int i = 0; i < 17; ++i) {
        tasks.emplace_back([&hits]() { hits.fetch_add(1); });
      }
      pool.run(tasks);
    }
    EXPECT_EQ(hits.load(), 3 * 17) << "threads=" << threads;
  }
}

// --- sharded simulator mechanics --------------------------------------------

TEST(ShardedSimulatorTest, EpochsAdvanceInLockStep) {
  sim::ShardedSimulator ssim(7, {4, 1, sim::seconds(1), {}});
  std::vector<int> fired_shards;
  for (int s = 0; s < 4; ++s) {
    ssim.shard(s).at(sim::msec(100) * (s + 1),
                     [s, &fired_shards]() { fired_shards.push_back(s); });
  }
  std::size_t fired = ssim.run_until(sim::seconds(10));
  EXPECT_EQ(fired, 4u);
  EXPECT_EQ(ssim.epochs_run(), 10u);
  EXPECT_EQ(ssim.now(), sim::seconds(10));
  EXPECT_TRUE(ssim.idle());
  EXPECT_EQ(fired_shards, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ShardedSimulatorTest, MergesEpochMessagesByTimeThenKey) {
  sim::ShardedSimulator ssim(7, {3, 1, sim::seconds(1), {}});
  std::vector<std::string> order;
  ssim.set_epoch_sink([&order](sim::SimTime,
                               std::vector<sim::ShardMessage>&& batch) {
    for (const sim::ShardMessage& m : batch) order.push_back(m.payload);
  });
  // Posted out of shard order and out of time order; the sink must see
  // (at, key) order regardless.
  ssim.post(2, sim::msec(500), 8, "t500-k8");
  ssim.post(1, sim::msec(200), 7, "t200-k7");
  ssim.post(0, sim::msec(500), 3, "t500-k3");
  ssim.post(1, sim::msec(200), 1, "t200-k1");
  ssim.run_until(sim::seconds(1));
  EXPECT_EQ(order, (std::vector<std::string>{"t200-k1", "t200-k7", "t500-k3",
                                             "t500-k8"}));
}

TEST(ShardedSimulatorTest, RefusesOpenEndedHorizon) {
  sim::ShardedSimulator ssim(7, {2, 1, sim::seconds(1), {}});
  EXPECT_THROW(ssim.run_until(sim::kTimeMax), std::invalid_argument);
}

// Every shard task and barrier binds the simulator's planes — null when a
// plane is off — so a domain and flight ring the calling thread has bound,
// while it works shard tasks too, record none of the shard or epoch-sink
// work at any thread count. (Per-shard capture across threads is covered
// by obs_test.)
TEST(ShardedSimulatorTest, CallerSessionNeverSeesShardWork) {
  telemetry::Domain mine;
  telemetry::FlightRing ring(16);
  telemetry::BindScope bind({&mine, &ring});
  for (int threads : {1, 2}) {
    sim::ShardedSimulator ssim(7, {2, threads, sim::seconds(1), {}});
    for (int s = 0; s < 2; ++s) {
      ssim.shard(s).at(sim::msec(100), [] { telemetry::count("shard.work"); });
    }
    int sink_calls = 0;
    ssim.set_epoch_sink(
        [&sink_calls](sim::SimTime, std::vector<sim::ShardMessage>&&) {
          ++sink_calls;
          telemetry::count("sink.work");
        });
    std::size_t fired = 0;
    EXPECT_NO_THROW(fired = ssim.run_until(sim::seconds(2)))
        << "threads=" << threads;
    EXPECT_EQ(fired, 2u) << "threads=" << threads;
    EXPECT_EQ(sink_calls, 2) << "threads=" << threads;
  }
  EXPECT_EQ(telemetry::bound_domain(), &mine);
  EXPECT_EQ(telemetry::bound_flight(), &ring);
  EXPECT_TRUE(mine.metrics().counters().all().empty());
  EXPECT_EQ(ring.appended(), 0u);
}

// --- byte-identity sweeps ----------------------------------------------------

core::FleetScaleConfig scale_config(int shards, int threads) {
  core::FleetScaleConfig cfg;
  cfg.vehicles = 40;
  cfg.seed = 11;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.run_until = sim::seconds(6);
  cfg.drain = sim::seconds(6);
  return cfg;
}

TEST(ShardSweepTest, ScalePathIdenticalAcrossShardAndThreadCounts) {
  core::FleetScaleOutcome base = core::run_fleet_scale(scale_config(1, 1));
  EXPECT_GT(base.frames_delivered, 0u);
  EXPECT_GT(base.samples_delivered, 0u);
  EXPECT_EQ(base.decode_errors, 0u);
  for (int shards : {2, 8}) {
    for (int threads : {1, 4}) {
      core::FleetScaleOutcome out =
          core::run_fleet_scale(scale_config(shards, threads));
      EXPECT_EQ(out.digest, base.digest)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(out.summary, base.summary)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(out.frames_delivered, base.frames_delivered);
      EXPECT_EQ(out.wire_bytes, base.wire_bytes);
    }
  }
}

core::FleetConfig fleet_config(int shards, int threads, const char* tag) {
  core::FleetConfig cfg;
  cfg.vehicles = 6;
  cfg.seed = 11;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.dir_tag = tag;
  cfg.load_until = sim::seconds(90);
  cfg.run_until = sim::seconds(120);
  cfg.drain = sim::seconds(30);
  return cfg;
}

TEST(ShardSweepTest, FullFleetIdenticalAcrossShardAndThreadCounts) {
  const sim::FaultPlan plan = core::fleet_uplink_chaos_plan();
  core::FleetOutcome base =
      core::run_fleet(plan, fleet_config(1, 1, "sweep-base"));
  EXPECT_GT(base.frames_ingested, 0u);
  int variant = 0;
  for (int shards : {2, 8}) {
    for (int threads : {1, 4}) {
      std::string tag = "sweep-" + std::to_string(variant++);
      core::FleetOutcome out =
          core::run_fleet(plan, fleet_config(shards, threads, tag.c_str()));
      EXPECT_EQ(out.frames_jsonl, base.frames_jsonl)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(out.rollup_table, base.rollup_table);
      EXPECT_EQ(out.vehicle_table, base.vehicle_table);
      EXPECT_EQ(out.anomaly_table, base.anomaly_table);
      EXPECT_EQ(out.fault_trace, base.fault_trace);
      EXPECT_EQ(out.frames_ingested, base.frames_ingested);
      EXPECT_EQ(out.lost_frames, base.lost_frames);
      EXPECT_EQ(out.releases, base.releases);
      EXPECT_EQ(out.completed_ok, base.completed_ok);
    }
  }
}

// The compute-outlier experiment must still localize the sick vehicle
// when that vehicle's shard is one of many.
TEST(ShardSweepTest, ComputeOutlierSurvivesSharding) {
  const sim::FaultPlan plan = core::fleet_compute_outlier_plan(3);
  core::FleetOutcome base =
      core::run_fleet(plan, fleet_config(1, 1, "outlier-base"));
  core::FleetOutcome sharded =
      core::run_fleet(plan, fleet_config(4, 2, "outlier-sharded"));
  EXPECT_EQ(sharded.anomaly_table, base.anomaly_table);
  EXPECT_EQ(sharded.anomalous_vehicles, base.anomalous_vehicles);
  EXPECT_EQ(sharded.frames_jsonl, base.frames_jsonl);
}

}  // namespace
