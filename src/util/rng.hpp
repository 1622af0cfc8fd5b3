// Deterministic random-number streams.
//
// Every stochastic component of the simulation (arrival processes, channel
// fading, collector feeds, NN initialization) draws from a named RngStream so
// that experiments are reproducible bit-for-bit and components do not perturb
// each other's sequences when one is reconfigured.
//
// A stream's engine is MT19937-64, written here so that a stream holds only
// the state its draws have needed (DESIGN.md §6f). Its outputs equal
// std::mt19937_64's for every seed, and the draws below go through the
// standard library's distributions, which see only an engine's outputs and
// its min()/max(). So every draw is the one libstdc++'s std::mt19937_64
// gave, byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <string_view>

#include "util/strings.hpp"

namespace vdap::util {

/// MT19937-64 whose outputs equal std::mt19937_64's for the same seed,
/// holding 40 bytes until its 157th draw.
///
/// Seeding fills 312 words by x[i] = f·(x[i−1] ⊕ (x[i−1] ≫ 62)) + i from
/// x[0] = seed, and the first draw twists all of them. Twisted word k < 156
/// reads only seeded words k, k + 1 and k + 156, so the first 156 outputs
/// need two cursors walking the seeding recurrence, one at k and one at
/// k + 156, and the count. The 157th output reads twisted words, so that
/// draw builds the standard 312-word state on the heap (2,504 bytes): it
/// seeds and twists it from the seed and continues after the 156 outputs
/// already given, exactly as std::mt19937_64 does from then on.
class Mt19937_64 {
 public:
  using result_type = std::uint_fast64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) : seed_(seed), low_(seed), high_(seed) {
    for (std::uint64_t i = 1; i <= kShift; ++i) high_ = seed_step(high_, i);
  }

  result_type operator()() {
    if (state_ == nullptr) [[likely]] {
      if (drawn_ < kShift) return temper(next_first_twist_word());
      materialise();
    }
    return state_->next();
  }

 private:
  static constexpr std::uint32_t kWords = 312;  // n
  static constexpr std::uint32_t kShift = 156;  // m

  /// The standard engine's state: the words and the next one to temper.
  struct State {
    std::uint64_t x[kWords];
    std::uint32_t next_word;

    std::uint64_t next() {
      if (next_word == kWords) twist();
      return temper(x[next_word++]);
    }
    void twist();
  };

  static std::uint64_t seed_step(std::uint64_t prev, std::uint64_t i) {
    return 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
  /// One twisted word: the top 33 bits of `upper`, the low 31 of `lower`,
  /// shifted and conditionally xored with the matrix, then xored into `far`.
  static std::uint64_t twist_word(std::uint64_t upper, std::uint64_t lower,
                                  std::uint64_t far) {
    const std::uint64_t y = (upper & (~std::uint64_t{0} << 31)) |
                            (lower & ((std::uint64_t{1} << 31) - 1));
    return far ^ (y >> 1) ^ ((y & 1) != 0 ? 0xB5026F5AA96619E9ULL : 0);
  }
  static std::uint64_t temper(std::uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  /// Twisted word `drawn_` from the cursors, which then step one word on.
  std::uint64_t next_first_twist_word() {
    const std::uint64_t next_low = seed_step(low_, drawn_ + 1);
    const std::uint64_t word = twist_word(low_, next_low, high_);
    low_ = next_low;
    high_ = seed_step(high_, drawn_ + kShift + 1);
    ++drawn_;
    return word;
  }
  /// Builds state_ as std::mt19937_64 holds it after 156 draws.
  void materialise();

  std::unique_ptr<State> state_;  // null until the 157th draw
  std::uint64_t seed_;
  std::uint64_t low_;   // seeded word drawn_
  std::uint64_t high_;  // seeded word drawn_ + 156
  std::uint32_t drawn_ = 0;
};

/// A self-contained PRNG stream (MT19937-64) with convenience draws.
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

  Mt19937_64& engine() { return engine_; }

 private:
  static std::uint64_t mix(std::uint64_t seed, std::string_view name) {
    // util::fnv1a over the name, from its basis with the master seed
    // folded in; cheap and stable.
    return fnv1a_add(1469598103934665603ULL ^ seed, name);
  }

  Mt19937_64 engine_;
};

}  // namespace vdap::util
