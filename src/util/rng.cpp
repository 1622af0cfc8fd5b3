#include "util/rng.hpp"

namespace vdap::util {

void Mt19937_64::State::twist() {
  for (std::uint32_t k = 0; k < kWords - kShift; ++k) {
    x[k] = twist_word(x[k], x[k + 1], x[k + kShift]);
  }
  for (std::uint32_t k = kWords - kShift; k < kWords - 1; ++k) {
    x[k] = twist_word(x[k], x[k + 1], x[k + kShift - kWords]);
  }
  x[kWords - 1] = twist_word(x[kWords - 1], x[0], x[kShift - 1]);
  next_word = 0;
}

void Mt19937_64::materialise() {
  state_ = std::make_unique<State>();
  State& s = *state_;
  s.x[0] = seed_;
  for (std::uint32_t i = 1; i < kWords; ++i) s.x[i] = seed_step(s.x[i - 1], i);
  s.twist();
  s.next_word = kShift;  // past the 156 words already given
}

}  // namespace vdap::util
