#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "util/contracts.h"

namespace epserve {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformRangeRejectsInvertedBounds) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(1.0, 0.0), ContractViolation);
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(4);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(5);
  std::array<int, 7> counts{};
  constexpr int kN = 70000;
  for (int i = 0; i < kN; ++i) ++counts[rng.uniform_index(7)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kN / 7.0, kN / 7.0 * 0.1);
  }
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(6);
  EXPECT_THROW(rng.uniform_index(0), ContractViolation);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(7);
  constexpr int kN = 200000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sumsq / kN, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(8);
  constexpr int kN = 100000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / kN, 10.0, 0.05);
}

TEST(Rng, NormalRejectsNegativeSd) {
  Rng rng(9);
  EXPECT_THROW(rng.normal(0.0, -1.0), ContractViolation);
}

TEST(Rng, TruncatedNormalStaysInWindow) {
  Rng rng(10);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.truncated_normal(0.5, 0.3, 0.2, 0.9);
    EXPECT_GE(x, 0.2);
    EXPECT_LE(x, 0.9);
  }
}

TEST(Rng, TruncatedNormalFarWindowClampsInsteadOfSpinning) {
  Rng rng(11);
  // Window is 20 sigma away: rejection will exhaust and clamp.
  const double x = rng.truncated_normal(0.0, 0.1, 2.0, 3.0);
  EXPECT_GE(x, 2.0);
  EXPECT_LE(x, 3.0);
}

TEST(Rng, TruncatedNormalZeroSdClamps) {
  Rng rng(12);
  EXPECT_DOUBLE_EQ(rng.truncated_normal(5.0, 0.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(rng.truncated_normal(-5.0, 0.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(rng.truncated_normal(0.5, 0.0, 0.0, 1.0), 0.5);
}

/// truncated_normal as the plain rejection loop, without the doomed-pair
/// pre-test, through the public API only: the reference every returned
/// value and every later draw must match.
double plain_truncated_normal(Rng& rng, double mean, double sd, double lo,
                              double hi) {
  if (sd == 0.0) return mean < lo ? lo : (mean > hi ? hi : mean);
  for (int i = 0; i < 256; ++i) {
    const double x = rng.normal(mean, sd);
    if (x >= lo && x <= hi) return x;
  }
  const double x = rng.normal(mean, sd);
  return x < lo ? lo : (x > hi ? hi : x);
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(Rng, TruncatedNormalPreTestKeepsThePlainLoopsDraws) {
  struct Window {
    double mean, sd, lo, hi;
  };
  std::vector<Window> windows;
  // Windows above and below the mean at d sd; d = 9 and farther exhaust
  // all 256 draws and clamp (40 sd underflows the pre-test's threshold).
  for (const double mean : {0.3, -3.0, 1e6}) {
    const double sd = mean == 1e6 ? 1e-2 : 0.04;
    for (const double d : {0.3, 0.5, 1.0, 2.0, 3.5, 6.0, 9.0, 40.0}) {
      windows.push_back({mean, sd, mean + d * sd, mean + (d + 5.0) * sd});
      windows.push_back({mean, sd, mean - (d + 5.0) * sd, mean - d * sd});
    }
    // Windows that span the mean, or start at it.
    windows.push_back({mean, sd, mean - sd, mean + 0.5 * sd});
    windows.push_back({mean, sd, mean - 0.1 * sd, mean + 0.1 * sd});
    windows.push_back({mean, sd, mean, mean + 3.0 * sd});
  }
  // An edge too large for the margin to outweigh its rounding: no pre-test.
  windows.push_back({1e12, 1e-3, 1e12 + 2e-3, 1e12 + 1.0});
  for (const Window& w : windows) {
    // Entered with and without a cached normal: a clamped window's last
    // draw is then the sine and the cosine of its pair.
    for (const bool cached : {false, true}) {
      for (std::uint64_t seed = 0; seed < 40; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << "mean=" << w.mean << " lo=" << w.lo << " hi=" << w.hi
                     << " cached=" << cached << " seed=" << seed);
        Rng rng(seed);
        Rng plain(seed);
        if (cached) {
          ASSERT_EQ(bits_of(rng.normal()), bits_of(plain.normal()));
        }
        ASSERT_EQ(bits_of(rng.truncated_normal(w.mean, w.sd, w.lo, w.hi)),
                  bits_of(plain_truncated_normal(plain, w.mean, w.sd, w.lo,
                                                 w.hi)));
        for (int k = 0; k < 8; ++k) {
          ASSERT_EQ(bits_of(rng.normal()), bits_of(plain.normal())) << k;
        }
        for (int k = 0; k < 8; ++k) {
          ASSERT_EQ(bits_of(rng.uniform()), bits_of(plain.uniform())) << k;
        }
      }
    }
  }
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(13);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::array<int, 3> counts{};
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[rng.categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.3, 0.015);
  EXPECT_NEAR(counts[2] / static_cast<double>(kN), 0.6, 0.015);
}

TEST(Rng, CategoricalZeroWeightNeverSampled) {
  Rng rng(14);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(rng.categorical(weights), 1u);
}

TEST(Rng, CategoricalRejectsAllZeroAndNegative) {
  Rng rng(15);
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW(rng.categorical(zeros), ContractViolation);
  const std::vector<double> negative = {1.0, -0.5};
  EXPECT_THROW(rng.categorical(negative), ContractViolation);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(16);
  constexpr int kN = 200000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / kN, 0.25, 0.005);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(17);
  EXPECT_THROW(rng.exponential(0.0), ContractViolation);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(18);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_FALSE(std::equal(v.begin(), v.end(), shuffled.begin()));
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(v, shuffled);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(19);
  Rng child = parent.fork();
  // Child diverges from parent from the start.
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

}  // namespace
}  // namespace epserve
