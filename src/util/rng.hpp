// Deterministic random-number streams.
//
// Every stochastic component of the simulation (arrival processes, channel
// fading, collector feeds, NN initialization) draws from a named RngStream so
// that experiments are reproducible bit-for-bit and components do not perturb
// each other's sequences when one is reconfigured.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <string_view>

#include "util/strings.hpp"

namespace vdap::util {

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

}  // namespace vdap::util
