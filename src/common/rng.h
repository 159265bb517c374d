// Deterministic, seedable pseudo-random number generation.
//
// All simulation components take an explicit Rng so experiments are
// reproducible run-to-run (no hidden global state, per Core Guidelines
// I.2 "avoid non-const global variables").
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"

namespace bohr {

/// SplitMix64 — used to expand a single 64-bit seed into a full state.
/// Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 by Blackman & Vigna — fast, high-quality, 256-bit state.
/// Satisfies UniformRandomBitGenerator so it composes with <random>.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xB04Au) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's method.
  std::uint64_t below(std::uint64_t n) {
    BOHR_EXPECTS(n > 0);
    // Lemire's nearly-divisionless bounded sampling.
    std::uint64_t x = operator()();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto l = static_cast<std::uint64_t>(m);
    if (l < n) {
      const std::uint64_t threshold = -n % n;
      while (l < threshold) {
        x = operator()();
        m = static_cast<__uint128_t>(x) * n;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    BOHR_EXPECTS(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) { return uniform() < p; }

  /// Standard normal via Marsaglia polar method.
  double normal() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u = 0;
    double v = 0;
    double s = 0;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    has_spare_ = true;
    return u * factor;
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Exponential with the given rate (lambda). Requires rate > 0.
  double exponential(double rate) {
    BOHR_EXPECTS(rate > 0);
    double u = uniform();
    while (u <= 0.0) u = uniform();  // avoid log(0)
    return -std::log(u) / rate;
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[below(i)]);
    }
  }

  /// Complete generator state, exposed so checkpointing can persist a
  /// generator mid-stream and restore() can continue the exact sequence.
  struct State {
    std::uint64_t words[4] = {};
    double spare = 0.0;
    bool has_spare = false;

    bool operator==(const State&) const = default;
  };

  State state() const {
    State s;
    for (int i = 0; i < 4; ++i) s.words[i] = state_[i];
    s.spare = spare_;
    s.has_spare = has_spare_;
    return s;
  }

  void restore(const State& s) {
    for (int i = 0; i < 4; ++i) state_[i] = s.words[i];
    spare_ = s.spare;
    has_spare_ = s.has_spare;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace bohr
