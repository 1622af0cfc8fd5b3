#include "net/link.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace vdap::net {
namespace {

LinkSpec test_link(double mbps = 8.0, sim::SimDuration lat = sim::msec(10),
                   double loss = 0.0) {
  return {"test", LinkKind::kWired, mbps, lat, loss};
}

TEST(LinkSpec, EstimateIsSerializationPlusLatency) {
  LinkSpec s = test_link(8.0, sim::msec(10));  // 8 Mbps = 1 MB/s
  EXPECT_EQ(s.estimate(1'000'000), sim::msec(10) + sim::seconds(1));
  EXPECT_EQ(s.estimate(0), sim::msec(10));
}

TEST(LinkSpec, ReliableEstimateInflatesWithLoss) {
  LinkSpec clean = test_link(8.0, sim::msec(10), 0.0);
  LinkSpec lossy = test_link(8.0, sim::msec(10), 0.5);
  EXPECT_EQ(clean.estimate_reliable(1000), clean.estimate(1000));
  EXPECT_EQ(lossy.estimate_reliable(1000), 2 * lossy.estimate(1000));
  // Pathological loss stays finite.
  LinkSpec dead = test_link(8.0, sim::msec(10), 1.0);
  EXPECT_LT(dead.estimate_reliable(1000), sim::seconds(10));
}

TEST(LinkReference, SpecsAreOrderedSensibly) {
  // DSRC/5G beat LTE uplink in bandwidth (why the paper picks them for
  // V2V / V2X); the wired backhaul beats everything.
  EXPECT_GT(links::dsrc().bandwidth_mbps, links::lte_uplink().bandwidth_mbps);
  EXPECT_GT(links::nr5g().bandwidth_mbps, links::dsrc().bandwidth_mbps);
  EXPECT_GT(links::metro_fiber().bandwidth_mbps,
            links::nr5g().bandwidth_mbps);
  // One-hop media have much lower latency than wide-area cellular.
  EXPECT_LT(links::dsrc().latency, links::lte_uplink().latency);
}

TEST(Link, DeliversWithLatency) {
  sim::Simulator sim;
  Link link(sim, test_link(8.0, sim::msec(10)));
  TransferReport got;
  link.send(1'000'000, [&](const TransferReport& r) { got = r; });
  sim.run_until();
  EXPECT_TRUE(got.delivered);
  EXPECT_EQ(got.latency(), sim::seconds(1) + sim::msec(10));
  EXPECT_EQ(link.delivered(), 1u);
  EXPECT_EQ(link.bytes_sent(), 1'000'000u);
}

TEST(Link, SerializesFifo) {
  sim::Simulator sim;
  Link link(sim, test_link(8.0, sim::msec(10)));
  std::vector<TransferReport> done;
  link.send(1'000'000, [&](const TransferReport& r) { done.push_back(r); });
  link.send(1'000'000, [&](const TransferReport& r) { done.push_back(r); });
  sim.run_until();
  ASSERT_EQ(done.size(), 2u);
  // Second message waits for the first's serialization (but not its
  // propagation): finishes one second later.
  EXPECT_EQ(done[1].finished - done[0].finished, sim::seconds(1));
}

TEST(Link, PipelinesPropagation) {
  // Propagation overlaps with the next serialization: N messages of 1s
  // serialization each finish at 1s+lat, 2s+lat, ... not 1s+lat, 2s+2lat.
  sim::Simulator sim;
  Link link(sim, test_link(8.0, sim::msec(500)));
  std::vector<sim::SimTime> finish;
  for (int i = 0; i < 3; ++i) {
    link.send(1'000'000,
              [&](const TransferReport& r) { finish.push_back(r.finished); });
  }
  sim.run_until();
  ASSERT_EQ(finish.size(), 3u);
  EXPECT_EQ(finish[0], sim::seconds(1) + sim::msec(500));
  EXPECT_EQ(finish[1], sim::seconds(2) + sim::msec(500));
  EXPECT_EQ(finish[2], sim::seconds(3) + sim::msec(500));
}

TEST(Link, LossRateApproximatelyRespected) {
  sim::Simulator sim(7);
  Link link(sim, test_link(1000.0, sim::msec(1), 0.3));
  int delivered = 0;
  int dropped = 0;
  for (int i = 0; i < 2000; ++i) {
    link.send(100, [&](const TransferReport& r) {
      (r.delivered ? delivered : dropped)++;
    });
  }
  sim.run_until();
  EXPECT_EQ(delivered + dropped, 2000);
  double rate = static_cast<double>(dropped) / 2000.0;
  EXPECT_NEAR(rate, 0.3, 0.05);
  EXPECT_EQ(link.dropped(), static_cast<std::uint64_t>(dropped));
}

TEST(Link, RenamedLossyLinkDrawsFromItsNewStream) {
  // A lossy link draws each transfer's fate from "link.<name>". After
  // set_spec() renames it, draws come from "link.<new name>", and the old
  // stream is left where it was.
  constexpr std::uint64_t kSeed = 11;
  constexpr int kPerName = 64;
  sim::Simulator sim(kSeed);
  Link link(sim, {"before", LinkKind::kLte, 1000.0, sim::msec(1), 0.5});
  std::vector<bool> delivered;
  auto send_batch = [&] {
    for (int i = 0; i < kPerName; ++i) {
      link.send(100, [&](const TransferReport& r) {
        delivered.push_back(r.delivered);
      });
    }
    sim.run_until();
  };
  send_batch();
  link.set_spec({"after", LinkKind::kLte, 1000.0, sim::msec(1), 0.5});
  send_batch();

  sim::Simulator ref(kSeed);
  std::vector<bool> want;
  for (int i = 0; i < kPerName; ++i) {
    want.push_back(!ref.rng("link.before").chance(0.5));
  }
  for (int i = 0; i < kPerName; ++i) {
    want.push_back(!ref.rng("link.after").chance(0.5));
  }
  EXPECT_EQ(delivered, want);
  EXPECT_EQ(sim.rng("link.before").uniform(),
            ref.rng("link.before").uniform());
}

TEST(Link, RejectsNonPositiveBandwidth) {
  sim::Simulator sim;
  LinkSpec s = test_link(0.0);
  EXPECT_THROW(Link(sim, s), std::invalid_argument);
}

}  // namespace
}  // namespace vdap::net
