#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "wormnet/util/rng.hpp"

namespace wormnet::util {
namespace {

TEST(Xoshiro256, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Xoshiro256, UniformInUnitInterval) {
  Xoshiro256 rng(99);
  double sum = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(Xoshiro256, BelowIsUnbiased) {
  Xoshiro256 rng(7);
  constexpr std::uint64_t kBound = 7;
  constexpr int kSamples = 70000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t v = rng.below(kBound);
    ASSERT_LT(v, kBound);
    ++counts[v];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / double(kBound), kSamples * 0.01);
  }
}

TEST(Xoshiro256, BelowOneIsAlwaysZero) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.below(1), 0u);
  }
}

TEST(Xoshiro256, ChanceExtremes) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

/// The integer trial `(next() >> 11) < chance_threshold(p)` decides as
/// chance(p) does on the same draw, at the edges of p and at the threshold.
TEST(Xoshiro256, ChanceThresholdDecidesAsChance) {
  const double kOneUlpBelowOne = std::nextafter(1.0, 0.0);
  const double probabilities[] = {
      -1.0, -0.0, 0.0, std::numeric_limits<double>::denorm_min(), 1e-300,
      0x1.0p-53, 0x1.8p-53, 1.0 / 80, 0.1 / 8, 0.9 / 8, 1.0 / 3, 0.5,
      0.7 / 6, kOneUlpBelowOne, 1.0, 1.5,
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  for (const double p : probabilities) {
    SCOPED_TRACE(p);
    const std::uint64_t threshold = Xoshiro256::chance_threshold(p);
    Xoshiro256 a(42), b(42);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ((b() >> 11) < threshold, a.chance(p)) << "draw " << i;
    }
    // Every 53-bit draw k near the threshold: uniform() is k * 2^-53.
    const std::uint64_t top = std::uint64_t{1} << 53;
    for (std::uint64_t k : {threshold - 2, threshold - 1, threshold,
                            threshold + 1, std::uint64_t{0}, top - 1}) {
      if (k >= top) continue;
      EXPECT_EQ(k < threshold, static_cast<double>(k) * 0x1.0p-53 < p)
          << "k " << k;
    }
  }
  EXPECT_EQ(Xoshiro256::chance_threshold(0.0), 0u);
  EXPECT_EQ(Xoshiro256::chance_threshold(-0.5), 0u);
  EXPECT_EQ(Xoshiro256::chance_threshold(1.0), std::uint64_t{1} << 53);
  EXPECT_EQ(Xoshiro256::chance_threshold(0x1.0p-53), 1u);
  EXPECT_EQ(Xoshiro256::chance_threshold(0x1.8p-53), 2u);
  EXPECT_EQ(Xoshiro256::chance_threshold(kOneUlpBelowOne),
            (std::uint64_t{1} << 53) - 1);
}

TEST(Xoshiro256, JumpProducesIndependentStream) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  b.jump();
  std::set<std::uint64_t> first;
  for (int i = 0; i < 100; ++i) first.insert(a());
  int collisions = 0;
  for (int i = 0; i < 100; ++i) {
    if (first.count(b())) ++collisions;
  }
  EXPECT_LT(collisions, 2);
}

// Property: the per-shard streams the sweep engine derives by successive
// jump() calls are pairwise independent in the only sense the experiments
// need — no stream replays another stream's output prefix.  With 2^128
// states between streams, any collision in the first 1k outputs would be a
// jump-polynomial bug, not bad luck.
TEST(Xoshiro256, JumpedStreamsArePairwiseDisjoint) {
  constexpr int kStreams = 8;
  constexpr int kOutputs = 1000;
  Xoshiro256 base(2026);
  std::vector<std::set<std::uint64_t>> prefixes(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    Xoshiro256 stream = base;  // copy: base itself stays put
    for (int j = 0; j < s; ++j) stream.jump();
    for (int i = 0; i < kOutputs; ++i) prefixes[s].insert(stream());
  }
  for (int a = 0; a < kStreams; ++a) {
    // Each stream must actually produce kOutputs distinct values...
    ASSERT_EQ(prefixes[a].size(), static_cast<std::size_t>(kOutputs));
    for (int b = a + 1; b < kStreams; ++b) {
      // ...and share none of them with any other stream.
      for (std::uint64_t v : prefixes[b]) {
        ASSERT_EQ(prefixes[a].count(v), 0u)
            << "streams " << a << " and " << b << " collide on " << v;
      }
    }
  }
}

// Chi-square smoke check that below() stays unbiased on a jumped stream
// (the configuration the parallel sweep engine actually runs).  df = 15;
// the 99.9th percentile of chi2(15) is 37.70, so a pass bound of 45 keeps
// the deterministic test far from both false alarms and real bias
// (a modulo-biased generator lands in the hundreds at this sample size).
TEST(Xoshiro256, BelowChiSquareOnJumpedStream) {
  constexpr std::uint64_t kBins = 16;
  constexpr int kSamples = 160000;
  Xoshiro256 rng(424242);
  rng.jump();
  std::vector<double> counts(kBins, 0.0);
  for (int i = 0; i < kSamples; ++i) {
    counts[rng.below(kBins)] += 1.0;
  }
  const double expected = double(kSamples) / double(kBins);
  double chi2 = 0.0;
  for (double c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  EXPECT_LT(chi2, 45.0);
}

TEST(SplitMix64, KnownSequenceDiffers) {
  std::uint64_t s = 0;
  const std::uint64_t a = splitmix64(s);
  const std::uint64_t b = splitmix64(s);
  EXPECT_NE(a, b);
  EXPECT_NE(a, 0u);
}

}  // namespace
}  // namespace wormnet::util
