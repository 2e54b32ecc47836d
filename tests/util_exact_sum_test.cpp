// util::ExactSum against the test-local fsum (tests/fsum_reference.h), bit
// for bit: cancellation, huge/tiny mixes, subnormals, signed zeros, and the
// inf/NaN rule; then the properties range sums rely on — the value does not
// depend on the order, splitting or merging of the terms, and subtracting
// a prefix leaves exactly the rest.
#include "util/exact_sum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "fsum_reference.h"

namespace epserve::util {
namespace {

using epserve::fsum_reference::fsum;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

double exact(const std::vector<double>& terms) {
  ExactSum sum;
  for (const double t : terms) sum.add(t);
  return sum.value();
}

void expect_matches_fsum(const std::vector<double>& terms, const char* what) {
  const double want = fsum(terms);
  const double got = exact(terms);
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << what;
  } else {
    EXPECT_EQ(bits(got), bits(want)) << what << ": " << got << " vs " << want;
  }
}

/// Mixed-sign terms spanning `decades` orders of magnitude around 1.
std::vector<double> mixed_terms(std::mt19937_64& rng, std::size_t count,
                                int decades) {
  std::uniform_real_distribution<double> mantissa(1.0, 2.0);
  std::uniform_int_distribution<int> exponent(-decades, decades);
  std::bernoulli_distribution negative(0.5);
  std::vector<double> terms(count);
  for (double& t : terms) {
    t = std::ldexp(mantissa(rng), exponent(rng));
    if (negative(rng)) t = -t;
  }
  return terms;
}

TEST(ExactSum, EmptyAndZerosReadPositiveZero) {
  EXPECT_EQ(bits(ExactSum().value()), bits(0.0));
  EXPECT_EQ(bits(exact({-0.0})), bits(0.0));
  EXPECT_EQ(bits(exact({-0.0, -0.0, 0.0})), bits(0.0));
  // An exact cancellation reads +0.0 too, as 1.0 + -1.0 does.
  EXPECT_EQ(bits(exact({1.0, -1.0})), bits(0.0));
  EXPECT_EQ(bits(exact({-3.5, 1.25, 2.25})), bits(0.0));
}

TEST(ExactSum, CancellationMatchesFsum) {
  // The classic cases where a sequential sum loses everything.
  expect_matches_fsum({1e100, 1.0, -1e100}, "1e100 + 1 - 1e100");
  expect_matches_fsum({1.0, 1e-16, -1.0}, "1 + 1e-16 - 1");
  expect_matches_fsum({0.1, 0.2, 0.3, -0.6}, "decimal tenths");
  expect_matches_fsum({1e308, 1e292, -1e308, 1e-300}, "near the top");
  // A long alternating series whose exact sum is small.
  std::mt19937_64 rng(7);
  std::vector<double> terms = mixed_terms(rng, 5000, 20);
  std::vector<double> negated = terms;
  for (double& t : negated) t = -t;
  terms.insert(terms.end(), negated.begin(), negated.end());
  terms.push_back(std::ldexp(1.0, -40));
  std::shuffle(terms.begin(), terms.end(), rng);
  EXPECT_EQ(bits(exact(terms)), bits(std::ldexp(1.0, -40)));
  expect_matches_fsum(terms, "shuffled pairs");
}

TEST(ExactSum, HugeTinyMixesMatchFsum) {
  std::mt19937_64 rng(11);
  for (const int decades : {10, 200, 900}) {
    for (int trial = 0; trial < 20; ++trial) {
      expect_matches_fsum(mixed_terms(rng, 257, decades), "mixed");
    }
  }
  // Ties: the exact sum sits halfway between two doubles, with and without
  // a far smaller term breaking the tie.
  const double ulp_half = std::ldexp(1.0, -53);
  expect_matches_fsum({1.0, ulp_half}, "tie to even (down)");
  expect_matches_fsum({1.0 + 2 * ulp_half, ulp_half}, "tie to even (up)");
  expect_matches_fsum({1.0, ulp_half, 1e-300}, "tie broken upward");
  expect_matches_fsum({1.0, ulp_half, -1e-300}, "tie broken downward");
  expect_matches_fsum({-1.0, -ulp_half, -1e-300}, "negative tie broken");
}

TEST(ExactSum, SubnormalsAreExact) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  EXPECT_EQ(bits(exact({tiny, tiny, tiny})), bits(3 * tiny));
  EXPECT_EQ(bits(exact({min_normal, -tiny})), bits(min_normal - tiny));
  EXPECT_EQ(bits(exact({min_normal / 2, min_normal / 2})), bits(min_normal));
  std::mt19937_64 rng(13);
  std::uniform_int_distribution<std::uint64_t> fraction(1, (1ULL << 52) - 1);
  std::vector<double> terms;
  for (int k = 0; k < 1000; ++k) {
    double t = std::bit_cast<double>(fraction(rng));
    if (k % 3 == 0) t = -t;
    terms.push_back(t);
  }
  expect_matches_fsum(terms, "subnormals");
  terms.push_back(1e-300);
  expect_matches_fsum(terms, "subnormals and a normal");
}

TEST(ExactSum, InfinityAndNanFollowTheStatedRule) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(exact({1.0, inf, -5.0}), inf);
  EXPECT_EQ(exact({1.0, -inf, 5.0}), -inf);
  EXPECT_TRUE(std::isnan(exact({inf, -inf})));
  EXPECT_TRUE(std::isnan(exact({1.0, nan})));
  EXPECT_TRUE(std::isnan(exact({inf, nan})));
  // Finite terms whose exact sum passes the largest double overflow; a
  // finite exact sum of huge terms does not, whatever the order.
  const double big = std::numeric_limits<double>::max();
  EXPECT_EQ(exact({big, big}), inf);
  EXPECT_EQ(exact({-big, -big}), -inf);
  EXPECT_EQ(bits(exact({big, big, -big})), bits(big));
  // Rounding up past the largest double overflows too.
  const double half_ulp_at_max = std::ldexp(1.0, 970);
  EXPECT_EQ(exact({big, half_ulp_at_max}), inf);
  EXPECT_EQ(bits(exact({big, half_ulp_at_max, -1.0})), bits(big));
  // Specials are counted, so subtracting them restores the finite sum.
  ExactSum with;
  with.add(2.5);
  with.add(inf);
  with.add(nan);
  ExactSum specials;
  specials.add(inf);
  specials.add(nan);
  with.subtract(specials);
  EXPECT_EQ(with.value(), 2.5);
}

// add()'s fast path sums the terms of a window of eleven binades as
// integers. The window opens on the first normal term whose exponent field
// is at least 52, and spans the fields [low, low + 10] with low that field
// less 5, clamped to [52, 2036]. For terms on either side of each edge, at
// the clamps too, a window is opened and then cancelled, so the sum that
// remains is of one field and shows an error in its last bit; infinities
// and NaNs after an opened window still follow the value rule.
TEST(ExactSum, WindowEdgeTermsAreExact) {
  const auto term = [](std::uint64_t field, bool longest, bool negative) {
    const std::uint64_t fraction = longest ? (std::uint64_t{1} << 52) - 1 : 0;
    return std::bit_cast<double>(
        (negative ? std::uint64_t{1} << 63 : 0) | field << 52 | fraction);
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::uint64_t anchor :
       {52ULL, 57ULL, 58ULL, 1023ULL, 2041ULL, 2042ULL, 2046ULL}) {
    const double opener = term(anchor, false, false);
    const std::uint64_t low =
        std::clamp<std::uint64_t>(anchor - 5, 52, 2036);
    for (const std::uint64_t field : {low - 1, low, low + 10, low + 11}) {
      if (field > 2046) continue;
      // The largest and the smallest significand of the field, of either
      // sign, ordered so that no partial sum overflows at the top.
      for (const bool negative : {false, true}) {
        const std::vector<double> terms = {
            opener, term(field, negative, true), term(field, !negative, false),
            -opener};
        expect_matches_fsum(terms, "window edge");
      }
    }
    EXPECT_EQ(exact({opener, inf}), inf) << anchor;
    EXPECT_EQ(exact({opener, -inf, 1.0}), -inf) << anchor;
    EXPECT_TRUE(std::isnan(
        exact({opener, std::numeric_limits<double>::quiet_NaN()})))
        << anchor;
  }
}

TEST(ExactSum, CopiesEqualRepeatedAdds) {
  std::mt19937_64 rng(17);
  for (const double term : {0.1, -3.0e-7, 1e300, -1e-310, 123456.789}) {
    for (const std::uint64_t copies : {0ULL, 1ULL, 3ULL, 1000ULL, 5000ULL}) {
      ExactSum once;
      once.add(term, copies);
      ExactSum repeated;
      for (std::uint64_t k = 0; k < copies; ++k) repeated.add(term);
      EXPECT_EQ(bits(once.value()), bits(repeated.value()))
          << term << " x " << copies;
    }
  }
  // A count far past the carry interval: 2^40 copies of 1.5 is exact.
  ExactSum many;
  many.add(1.5, 1ULL << 40);
  EXPECT_EQ(many.value(), std::ldexp(1.5, 40));
  ExactSum huge;
  huge.add(std::numeric_limits<double>::max(), 1ULL << 20);
  EXPECT_EQ(huge.value(), std::numeric_limits<double>::infinity());
}

TEST(ExactSum, OrderSplittingAndMergingDoNotChangeTheValue) {
  std::mt19937_64 rng(19);
  std::vector<double> terms = mixed_terms(rng, 20000, 30);
  const double want = fsum(terms);
  EXPECT_EQ(bits(exact(terms)), bits(want));
  for (int trial = 0; trial < 5; ++trial) {
    std::shuffle(terms.begin(), terms.end(), rng);
    EXPECT_EQ(bits(exact(terms)), bits(want)) << "permutation " << trial;
    // Split at random points into blocks, sum each, merge in reverse.
    std::vector<std::size_t> cuts = {0, terms.size()};
    std::uniform_int_distribution<std::size_t> at(0, terms.size());
    for (int c = 0; c < 7; ++c) cuts.push_back(at(rng));
    std::sort(cuts.begin(), cuts.end());
    std::vector<ExactSum> blocks(cuts.size() - 1);
    for (std::size_t b = 0; b + 1 < cuts.size(); ++b) {
      for (std::size_t k = cuts[b]; k < cuts[b + 1]; ++k) blocks[b].add(terms[k]);
    }
    ExactSum merged;
    for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) merged.merge(*it);
    EXPECT_EQ(bits(merged.value()), bits(want)) << "merge " << trial;
  }
}

TEST(ExactSum, PrefixDifferencesAreExactRangeSums) {
  std::mt19937_64 rng(23);
  const std::vector<double> terms = mixed_terms(rng, 3000, 12);
  std::vector<ExactSum> prefix(terms.size() + 1);
  for (std::size_t k = 0; k < terms.size(); ++k) {
    prefix[k + 1] = prefix[k];
    prefix[k + 1].add(terms[k]);
  }
  std::uniform_int_distribution<std::size_t> at(0, terms.size());
  for (int trial = 0; trial < 200; ++trial) {
    std::size_t lo = at(rng);
    std::size_t hi = at(rng);
    if (lo > hi) std::swap(lo, hi);
    ExactSum range = prefix[hi];
    range.subtract(prefix[lo]);
    const std::vector<double> slice(terms.begin() + static_cast<std::ptrdiff_t>(lo),
                                    terms.begin() + static_cast<std::ptrdiff_t>(hi));
    EXPECT_EQ(bits(range.value()), bits(fsum(slice))) << lo << ".." << hi;
  }
  // Subtracting everything leaves an exact zero.
  ExactSum all = prefix.back();
  all.subtract(prefix.back());
  EXPECT_EQ(bits(all.value()), bits(0.0));
}

}  // namespace
}  // namespace epserve::util
