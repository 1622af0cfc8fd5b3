// util::Mt19937_64 and util::RngStream against the standard library.
//
// The engine holds two cursors of the seeding recurrence until its 157th
// draw and builds the full state then (util/rng.hpp). These tests compare
// it with std::mt19937_64 output for output across that boundary and
// several regenerations, and compare every RngStream draw with the
// std::mt19937_64-based RngStream it replaced, kept verbatim below.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace vdap {
namespace {

namespace ref {

using util::fnv1a_add;

// --- RngStream on std::mt19937_64, verbatim -------------------------------

/// A self-contained PRNG stream (mersenne twister) with convenience draws.
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) : engine_(seed) {}

  /// Derives a stream from a master seed and a component name, so adding a
  /// component never shifts the draws of existing ones.
  RngStream(std::uint64_t master_seed, std::string_view name)
      : engine_(mix(master_seed, name)) {}

  /// Uniform double in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli draw with probability p of true.
  bool chance(double p) { return uniform() < p; }

  /// Exponential with the given mean (not rate).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Normal draw.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Normal draw truncated below at `lo`.
  double normal_min(double mean, double stddev, double lo) {
    double v = normal(mean, stddev);
    return v < lo ? lo : v;
  }

  /// Poisson draw with the given mean.
  std::int64_t poisson(double mean) {
    return std::poisson_distribution<std::int64_t>(mean)(engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  static std::uint64_t mix(std::uint64_t seed, std::string_view name) {
    // util::fnv1a over the name, from its basis with the master seed
    // folded in; cheap and stable.
    return fnv1a_add(1469598103934665603ULL ^ seed, name);
  }

  std::mt19937_64 engine_;
};

// ---------------------------------------------------------------------------

}  // namespace ref

/// Real stream names: the load and loss streams of the fleet-scale run,
/// the collectors', the links' and the channel models'.
std::vector<std::string> stream_names() {
  std::vector<std::string> names = {"ddi.obd", "ddi.weather", "lte.fade",
                                    "lte.handover", "rtp.air", ""};
  for (int i : {0, 1, 7, 99, 4095, 99999}) {
    names.push_back(util::format("scale.load/%d", i));
    names.push_back(util::format("link.ship/cav-%d", i));
  }
  return names;
}

/// The seeds the engine test runs: 0, 1, 2^64 - 1, the streams' mixes of
/// real names under a few master seeds, and random ones, ≥ 1,000 in all.
std::vector<std::uint64_t> engine_seeds() {
  std::vector<std::uint64_t> seeds = {0, 1, ~std::uint64_t{0},
                                      std::uint64_t{1} << 63};
  for (std::uint64_t master : {1ULL, 7ULL, 42ULL, 0x5eedULL}) {
    for (const std::string& name : stream_names()) {
      // RngStream's mix of (master, name).
      seeds.push_back(util::fnv1a_add(1469598103934665603ULL ^ master, name));
    }
  }
  std::mt19937_64 pick(20261021);
  while (seeds.size() < 1100) seeds.push_back(pick());
  return seeds;
}

TEST(Mt19937_64, MatchesTheStandardEngineAcrossMaterialisation) {
  // 1,000 draws cross the lazy twist's end at draw 156/157 and the
  // regenerations after draws 468 and 780; a few seeds run to 5,000.
  const std::vector<std::uint64_t> seeds = engine_seeds();
  ASSERT_GE(seeds.size(), 1000u);
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    util::Mt19937_64 mine(seeds[s]);
    std::mt19937_64 theirs(seeds[s]);
    const int draws = s < 8 ? 5000 : 1000;
    for (int k = 0; k < draws; ++k) {
      const std::uint64_t want = theirs();
      const std::uint64_t got = mine();
      ASSERT_EQ(got, want) << "seed " << seeds[s] << ", draw " << k + 1;
    }
  }
}

TEST(Mt19937_64, IsAUniformRandomBitGeneratorLikeTheStandardOne) {
  static_assert(std::uniform_random_bit_generator<util::Mt19937_64>);
  static_assert(std::is_same_v<util::Mt19937_64::result_type,
                               std::mt19937_64::result_type>);
  static_assert(util::Mt19937_64::min() == std::mt19937_64::min());
  static_assert(util::Mt19937_64::max() == std::mt19937_64::max());
}

TEST(RngStream, AnUndrawnStreamIsAtMost64Bytes) {
  // Until its 157th draw a stream holds no heap: this is all of it.
  EXPECT_LE(sizeof(util::RngStream), 64u);
  EXPECT_LT(sizeof(util::RngStream), sizeof(std::mt19937_64) / 32);
}

/// Bits of a draw, so that -0.0 and NaN payloads compare too.
std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

TEST(RngStream, EveryDrawMatchesTheStandardEngineStream) {
  // Each stream makes a random mix of draws, with draw counts and
  // methods chosen by a separate generator, well past its 157th engine
  // output; Poisson means cover both of libstdc++'s algorithms (below and
  // above 12) and shuffles run through engine().
  std::mt19937_64 plan(31337);
  const std::vector<std::string> names = stream_names();
  int streams = 0;
  for (std::uint64_t master : {1ULL, 7ULL, 0ULL}) {
    for (const std::string& name : names) {
      util::RngStream mine(master, name);
      ref::RngStream theirs(master, name);
      const int calls = 50 + static_cast<int>(plan() % 600);
      for (int c = 0; c < calls; ++c) {
        const std::string where = name + " master " + std::to_string(master) +
                                  " call " + std::to_string(c);
        switch (plan() % 10) {
          case 0:
            ASSERT_EQ(bits(mine.uniform()), bits(theirs.uniform())) << where;
            break;
          case 1:
            ASSERT_EQ(bits(mine.uniform(-3.5, 1e6)),
                      bits(theirs.uniform(-3.5, 1e6)))
                << where;
            break;
          case 2: {
            const std::int64_t lo = -static_cast<std::int64_t>(plan() % 1000);
            const std::int64_t hi =
                c % 7 == 0 ? std::numeric_limits<std::int64_t>::max()
                           : lo + static_cast<std::int64_t>(plan() % 5000);
            ASSERT_EQ(mine.uniform_int(lo, hi), theirs.uniform_int(lo, hi))
                << where;
            break;
          }
          case 3:
            ASSERT_EQ(mine.chance(0.3), theirs.chance(0.3)) << where;
            break;
          case 4:
            ASSERT_EQ(bits(mine.exponential(2.5)),
                      bits(theirs.exponential(2.5)))
                << where;
            break;
          case 5:
            ASSERT_EQ(bits(mine.normal(25.0, 8.0)),
                      bits(theirs.normal(25.0, 8.0)))
                << where;
            break;
          case 6:
            ASSERT_EQ(bits(mine.normal_min(25.0, 8.0, 0.1)),
                      bits(theirs.normal_min(25.0, 8.0, 0.1)))
                << where;
            break;
          case 7: {
            const double mean = (c % 2 == 0) ? 3.0 : 40.0;
            ASSERT_EQ(mine.poisson(mean), theirs.poisson(mean)) << where;
            break;
          }
          case 8: {
            std::vector<int> a(1 + plan() % 64);
            std::iota(a.begin(), a.end(), 0);
            std::vector<int> b = a;
            std::shuffle(a.begin(), a.end(), mine.engine());
            std::shuffle(b.begin(), b.end(), theirs.engine());
            ASSERT_EQ(a, b) << where;
            break;
          }
          default:
            ASSERT_EQ(mine.engine()(), theirs.engine()()) << where;
            break;
        }
      }
      ++streams;
    }
  }
  EXPECT_EQ(streams, 3 * static_cast<int>(names.size()));
}

TEST(RngStream, SeededStreamsMatchTheStandardEngineStream) {
  for (std::uint64_t seed : {0ULL, 1ULL, 99ULL, 2025ULL, ~0ULL}) {
    util::RngStream mine(seed);
    ref::RngStream theirs(seed);
    for (int k = 0; k < 400; ++k) {
      ASSERT_EQ(bits(mine.normal(0.0, 1.0)), bits(theirs.normal(0.0, 1.0)))
          << "seed " << seed << ", draw " << k;
    }
  }
}

}  // namespace
}  // namespace vdap
