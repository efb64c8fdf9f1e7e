// Deterministic pseudo-random number generation for simulations and tests.
//
// We deliberately avoid std::mt19937 in the hot injection path: xoshiro256**
// is ~4x faster, has a tiny state, and gives us explicit, documented
// reproducibility across standard-library implementations.  Every stochastic
// component of the simulator takes a seed so whole experiments are replayable
// bit-for-bit.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace wormnet::util {

/// SplitMix64 step; used to expand a single 64-bit seed into xoshiro state.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** 1.0 (Blackman & Vigna).  Satisfies UniformRandomBitGenerator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64.
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  // Inline: the simulator draws one uniform per node per cycle, so the
  // generator step is a per-cycle hot path.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).  53 bits of randomness.
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound).  bound must be > 0.
  /// Uses Lemire's multiply-shift rejection method (no modulo bias).
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept;

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool chance(double p) noexcept { return uniform() < p; }

  /// The integer form of chance(p): for a draw x of this generator,
  /// `(x >> 11) < chance_threshold(p)` decides exactly as chance(p) does
  /// on x.  uniform() is k * 2^-53 for the integer k = x >> 11, and
  /// scaling by 2^53 is exact, so k * 2^-53 < p iff k < p * 2^53 iff
  /// k < ceil(p * 2^53).  The threshold clamps to 0 for p <= 0 (and NaN)
  /// and to 2^53 for p >= 1.
  [[nodiscard]] static std::uint64_t chance_threshold(double p) noexcept {
    if (!(p > 0.0)) return 0;
    if (p >= 1.0) return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
  }

  /// Jump function: advances the state by 2^128 steps.  Used to derive
  /// independent per-thread / per-node streams from a common seed.
  void jump() noexcept;

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x,
                                                    int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace wormnet::util
