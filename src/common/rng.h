// Deterministic pseudo-random number generation for workload synthesis.
//
// Simulations must be reproducible run-to-run, so all randomness flows
// through this splitmix64-seeded xoshiro256** generator rather than
// std::random_device or unseeded std engines.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

namespace cpt {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    // splitmix64 seeding, as recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      s = z ^ (z >> 31);
    }
  }

  // An unseeded placeholder to assign a seeded generator over.  Its
  // all-zero state is one xoshiro never reaches from a seed.
  Rng() = default;

  // A generator at exactly `state` (xoshiro's four state words), for
  // checks of the state step itself.  The all-zero state never leaves zero.
  static Rng FromState(const std::array<std::uint64_t, 4>& state) {
    Rng rng;
    rng.state_ = state;
    return rng;
  }

  // Same state: the two generators draw the same stream from here on.
  friend bool operator==(const Rng&, const Rng&) = default;

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Advances the stream by `n` draws without using them.
  void Skip(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      (void)Next();
    }
  }

  // Skip(kJumpDraws) in one step, the draws a full trace run passes over
  // (workload::Run).  The state step is linear over GF(2), so kJumpDraws of
  // them are one fixed 256x256 bit matrix, applied as 32 lookups, one per
  // state byte, in a 256 KiB table (common/rng.cc).
  static constexpr std::uint64_t kJumpDraws = 127;
  void Jump();

  // Uniform in [0, bound).  bound must be nonzero.
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }

  // Uniform in [lo, hi] inclusive.
  std::uint64_t Range(std::uint64_t lo, std::uint64_t hi) { return lo + Below(hi - lo + 1); }

  // Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Bernoulli draws as integer compares.  NextDouble() is k * 2^-53 for the
  // 53-bit k = Next() >> 11, and scaling p by 2^53 is exact, so
  // NextDouble() < p exactly when k < ceil(p * 2^53).  The threshold is 0
  // for p <= 0 or NaN (never true) and 2^53 for p >= 1 (always true).
  static std::uint64_t ChanceThreshold(double p) {
    constexpr double kScale = 0x1.0p53;
    if (!(p > 0.0)) {
      return 0;
    }
    if (p >= 1.0) {
      return std::uint64_t{1} << 53;
    }
    return static_cast<std::uint64_t>(std::ceil(p * kScale));
  }
  // One draw: true with probability threshold / 2^53.
  bool ChanceBelow(std::uint64_t threshold) { return (Next() >> 11) < threshold; }
  bool Chance(double p) { return ChanceBelow(ChanceThreshold(p)); }

  // BurstLength's stop threshold for `mean`: kSingleBurst when mean <= 1
  // (a burst of 1 that makes no draw), else ChanceThreshold(1 / mean).
  static constexpr std::uint64_t kSingleBurst = ~std::uint64_t{0};
  static std::uint64_t BurstThreshold(double mean) {
    return mean <= 1.0 ? kSingleBurst : ChanceThreshold(1.0 / mean);
  }
  std::uint64_t BurstLengthBelow(std::uint64_t threshold) {
    if (threshold == kSingleBurst) {
      return 1;
    }
    std::uint64_t n = 1;
    while (!ChanceBelow(threshold) && n < 1000000) {
      ++n;
    }
    return n;
  }

  // Geometric-ish burst length >= 1 with mean roughly `mean`.
  std::uint64_t BurstLength(double mean) { return BurstLengthBelow(BurstThreshold(mean)); }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::array<std::uint64_t, 4> state_ = {};
};

}  // namespace cpt
