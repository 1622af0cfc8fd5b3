#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace vdap::sim {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(msec(3), 3000);
  EXPECT_EQ(seconds(2), 2'000'000);
  EXPECT_EQ(minutes(1), 60'000'000);
  EXPECT_EQ(from_seconds(1.5), 1'500'000);
  EXPECT_EQ(from_millis(13.57), 13'570);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(4)), 4.0);
  EXPECT_DOUBLE_EQ(to_millis(msec(7)), 7.0);
  EXPECT_EQ(from_seconds(-0.000001), -1);
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreakAtSameTime) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.push(100, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  EventId a = q.push(10, [&] { ++fired; });
  q.push(20, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(a));
  EXPECT_FALSE(q.cancel(a));  // double cancel is a no-op
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 20);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelUnknownIdIsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(99));
  EXPECT_EQ(q.next_time(), kTimeMax);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.after(msec(5), [&] { seen.push_back(sim.now()); });
  sim.after(msec(1), [&] { seen.push_back(sim.now()); });
  sim.run_until();
  EXPECT_EQ(seen, (std::vector<SimTime>{msec(1), msec(5)}));
  EXPECT_EQ(sim.now(), msec(5));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int depth = 0;
  sim.after(10, [&] {
    sim.after(10, [&] {
      sim.after(10, [&] { depth = 3; });
    });
  });
  sim.run_until();
  EXPECT_EQ(depth, 3);
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.after(seconds(1), [&] { ++fired; });
  sim.after(seconds(10), [&] { ++fired; });
  std::size_t n = sim.run_until(seconds(5));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), seconds(5));  // clock advanced to the horizon
  sim.run_until(seconds(20));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventExactlyAtHorizonFires) {
  Simulator sim;
  bool fired = false;
  sim.after(seconds(5), [&] { fired = true; });
  sim.run_until(seconds(5));
  EXPECT_TRUE(fired);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  sim.after(100, [&] {
    bool ran = false;
    sim.at(0, [&] { ran = true; });  // in the past -> fires "now"
    (void)ran;
  });
  SimTime at_fire = -1;
  sim.at(50, [] {});
  sim.after(100, [&] { sim.at(10, [&] { at_fire = sim.now(); }); });
  sim.run_until();
  EXPECT_EQ(at_fire, 100);
}

TEST(Simulator, CancelScheduled) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.after(10, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_until();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, PeriodicFiresUntilStopped) {
  Simulator sim;
  int count = 0;
  auto handle = sim.every(seconds(1), [&] { ++count; });
  sim.run_until(seconds(5) + 1);
  EXPECT_EQ(count, 6);  // t = 0,1,2,3,4,5 (first_delay defaults to 0)
  handle.stop();
  sim.run_until(seconds(100));
  EXPECT_EQ(count, 6);
}

TEST(Simulator, PeriodicFirstDelay) {
  Simulator sim;
  std::vector<SimTime> at;
  sim.every(seconds(2), [&] { at.push_back(sim.now()); }, seconds(1));
  sim.run_until(seconds(6));
  EXPECT_EQ(at, (std::vector<SimTime>{seconds(1), seconds(3), seconds(5)}));
}

TEST(Simulator, PeriodicSelfStopInsideCallback) {
  Simulator sim;
  int count = 0;
  Simulator::PeriodicHandle h = sim.every(10, [&] {
    if (++count == 3) h.stop();
  });
  sim.run_until();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, PeriodicStopBeforeFirstFiringFiresNothing) {
  Simulator sim;
  int count = 0;
  auto h = sim.every(seconds(5), [&] { ++count; }, seconds(5));
  EXPECT_TRUE(h.active());
  h.stop();  // cancelled before the first tick was ever due
  EXPECT_FALSE(h.active());
  sim.run_until(seconds(60));
  EXPECT_EQ(count, 0);
}

TEST(Simulator, PeriodicStopFromAnotherEventBeforeFirstFiring) {
  Simulator sim;
  int count = 0;
  auto h = sim.every(seconds(10), [&] { ++count; }, seconds(10));
  sim.at(seconds(3), [&] { h.stop(); });
  sim.run_until(seconds(60));
  EXPECT_EQ(count, 0);
  EXPECT_FALSE(h.active());
}

TEST(Simulator, PeriodicCallbackMayStartPeriodicTasks) {
  // Each of the parent's first eight firings starts four children, so the
  // task table grows several times while the parent's callback runs. The
  // parent keeps its period, and its re-arm is pushed when its callback
  // returns: an event the callback queues for the next firing time fires
  // first.
  Simulator sim;
  std::vector<SimTime> parent;
  std::vector<std::string> order;
  std::vector<std::vector<SimTime>> children;
  sim.every(10, [&] {
    parent.push_back(sim.now());
    order.push_back("parent");
    sim.after(10, [&] { order.push_back("queued"); });
    if (parent.size() > 8) return;
    for (int k = 0; k < 4; ++k) {
      const std::size_t c = children.size();
      children.emplace_back();
      sim.every(7 + k, [&, c] { children[c].push_back(sim.now()); }, 3);
    }
  });
  sim.run_until(100);

  std::vector<SimTime> want_parent;
  for (SimTime t = 0; t <= 100; t += 10) want_parent.push_back(t);
  EXPECT_EQ(parent, want_parent);
  ASSERT_EQ(order.size(), 21u);  // 11 parent firings, 10 queued events
  for (std::size_t i = 1; i < order.size(); i += 2) {
    EXPECT_EQ(order[i], "queued") << i;
    EXPECT_EQ(order[i + 1], "parent") << i;
  }
  ASSERT_EQ(children.size(), 32u);
  for (std::size_t c = 0; c < children.size(); ++c) {
    const SimTime period = 7 + static_cast<SimTime>(c % 4);
    std::vector<SimTime> want;
    for (SimTime t = static_cast<SimTime>(c / 4) * 10 + 3; t <= 100;
         t += period) {
      want.push_back(t);
    }
    EXPECT_EQ(children[c], want) << "child " << c;
  }
}

TEST(Simulator, PeriodicStoppedSlotIsReusedWithExactFiringTimes) {
  // `a` is stopped from outside with its next firing already queued. `b`,
  // started before that stale firing, must not be reached by it; `c`,
  // started after it, takes `a`'s freed slot. `d` starts after `c` stops
  // itself and takes that slot in turn.
  Simulator sim;
  std::vector<SimTime> a, b, c, d;
  Simulator::PeriodicHandle ha = sim.every(10, [&] { a.push_back(sim.now()); });
  Simulator::PeriodicHandle hb, hc, hd;
  sim.at(5, [&] {
    ha.stop();
    hb = sim.every(10, [&] { b.push_back(sim.now()); }, 7);
  });
  sim.at(15, [&] {
    hc = sim.every(10, [&] {
      c.push_back(sim.now());
      if (c.size() == 2) hc.stop();
    }, 1);
  });
  sim.at(30, [&] {
    hd = sim.every(4, [&] { d.push_back(sim.now()); }, 1);
    ha.stop();  // stopping a spent handle again touches no other task
    hc.stop();
  });
  sim.run_until(45);

  EXPECT_EQ(a, (std::vector<SimTime>{0}));
  EXPECT_EQ(b, (std::vector<SimTime>{12, 22, 32, 42}));
  EXPECT_EQ(c, (std::vector<SimTime>{16, 26}));
  EXPECT_EQ(d, (std::vector<SimTime>{31, 35, 39, 43}));
  EXPECT_FALSE(ha.active());
  EXPECT_TRUE(hb.active());
  EXPECT_FALSE(hc.active());
  EXPECT_TRUE(hd.active());
}

TEST(Simulator, PeriodicRejectsNonPositivePeriod) {
  Simulator sim;
  EXPECT_THROW(sim.every(0, [] {}), std::invalid_argument);
}

TEST(Simulator, NamedRngStreamsAreStableAndIndependent) {
  Simulator a(123);
  Simulator b(123);
  double a1 = a.rng("chan").uniform();
  a.rng("other").uniform();  // extra stream does not disturb "chan"
  double a2 = a.rng("chan").uniform();
  double b1 = b.rng("chan").uniform();
  double b2 = b.rng("chan").uniform();
  EXPECT_DOUBLE_EQ(a1, b1);
  EXPECT_DOUBLE_EQ(a2, b2);
  Simulator c(124);
  EXPECT_NE(a1, c.rng("chan").uniform());
}

TEST(Simulator, DeterministicReplay) {
  auto run = [](std::uint64_t seed) {
    Simulator sim(seed);
    std::vector<std::pair<SimTime, double>> trace;
    sim.every(msec(10), [&] {
      trace.emplace_back(sim.now(), sim.rng("x").uniform());
    });
    sim.run_until(seconds(1));
    return trace;
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

}  // namespace
}  // namespace vdap::sim
