// cluster::LaneSums against the test-local fsum (tests/fsum_reference.h),
// bit for bit. Each lane's window opens on its first term and admits a band
// of binades around it; the terms here sit on both sides of every edge of
// that band, in blocks of up to 256 rows, and are then taken back out
// (negated), so each lane's exact sum is small and any bit an accumulator
// lost would show. Run under every kernel variant the CPU has.
#include "cluster/lane_sums.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "fsum_reference.h"
#include "metrics/simd/kernels.h"

namespace epserve::cluster {
namespace {

namespace kernels = epserve::metrics::kernels;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<kernels::Variant> available_variants() {
  std::vector<kernels::Variant> variants;
  for (const auto v :
       {kernels::Variant::kScalarReference, kernels::Variant::kGridScalar,
        kernels::Variant::kGridAvx2, kernels::Variant::kGridAvx512,
        kernels::Variant::kGridNeon}) {
    if (kernels::get(v) != nullptr) variants.push_back(v);
  }
  return variants;
}

/// Restores the dispatched kernel set on scope exit.
class KernelGuard {
 public:
  KernelGuard() : saved_(kernels::active().variant) {}
  ~KernelGuard() { kernels::set_active_for_testing(saved_); }

 private:
  kernels::Variant saved_;
};

/// Feeds `rows` rows of `lanes` terms (row-major, stride `lanes`, every s
/// 1.0) in blocks of the given sizes, cycling, and checks each lane against
/// fsum of its terms.
void expect_lanes_match_fsum(const std::vector<double>& terms,
                             std::size_t lanes,
                             const std::vector<std::size_t>& block_sizes,
                             const char* what) {
  const std::size_t rows = terms.size() / lanes;
  const std::vector<double> ones(LaneSums::kMaxRows, 1.0);
  LaneSums sums(lanes);
  std::size_t r = 0;
  for (std::size_t b = 0; r < rows; ++b) {
    const std::size_t count =
        std::min(block_sizes[b % block_sizes.size()], rows - r);
    sums.add_block(terms.data() + r * lanes, lanes, ones.data(), count);
    r += count;
  }
  for (std::size_t k = 0; k < lanes; ++k) {
    std::vector<double> lane;
    for (std::size_t row = 0; row < rows; ++row) {
      lane.push_back(terms[row * lanes + k]);
    }
    const double want = fsum_reference::fsum(lane);
    const double got = sums.value(k);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << what << " lane " << k;
    } else {
      EXPECT_EQ(bits(got), bits(want))
          << what << " lane " << k << ": " << got << " vs " << want;
    }
  }
}

// Each lane opens on a term of its own binade, then takes full-significand
// terms from binades on both sides of each window edge (18 below, 19 above
// the opener), enough of one sign to fill its accumulators to their bounds,
// then the same terms and the opener negated, and a small remainder.
TEST(LaneSums, TermsAroundEveryWindowEdgeSumExactly) {
  const KernelGuard guard;
  std::mt19937_64 rng(31);
  std::uniform_int_distribution<std::uint64_t> fraction(0, (1ULL << 52) - 1);
  const auto full = [&](int binade, bool negative) {
    const double t = std::ldexp(
        std::bit_cast<double>((std::uint64_t{1023} << 52) | fraction(rng)),
        binade);
    return negative ? -t : t;
  };
  const int offsets[] = {-45, -40, -30, -19, -18, -17, 0,
                         17,  18,  19,  20,  26,  27, 40};
  for (const std::size_t lanes : {1, 3, 8, 17}) {
    std::vector<int> opener(lanes);
    for (std::size_t k = 0; k < lanes; ++k) {
      opener[k] = static_cast<int>(k * 37 % 61) - 30;
    }
    std::vector<double> terms;
    const auto row = [&](const auto& term) {
      for (std::size_t k = 0; k < lanes; ++k) terms.push_back(term(k));
    };
    row([&](std::size_t k) { return std::ldexp(1.0, opener[k]); });
    for (const int offset : offsets) {
      for (int copy = 0; copy < 300; ++copy) {
        row([&](std::size_t k) { return full(opener[k] + offset, false); });
      }
    }
    const std::size_t body_rows = terms.size() / lanes - 1;
    for (std::size_t r = 1; r <= body_rows; ++r) {
      row([&](std::size_t k) { return -terms[r * lanes + k]; });
    }
    row([&](std::size_t k) { return -std::ldexp(1.0, opener[k]); });
    row([&](std::size_t k) { return full(opener[k] - 60, true); });
    for (const auto variant : available_variants()) {
      ASSERT_TRUE(kernels::set_active_for_testing(variant));
      expect_lanes_match_fsum(terms, lanes, {256},
                              kernels::variant_name(variant));
      expect_lanes_match_fsum(terms, lanes, {1, 255, 100, 7},
                              kernels::variant_name(variant));
    }
  }
}

// Zeros of either sign, subnormals, infinities and NaN, a lane whose
// window never opens (only zeros and subnormals), and a shared row scaled
// per row (stride 0), whose products round.
TEST(LaneSums, SpecialTermsAndSharedRowsFollowTheValueRule) {
  const KernelGuard guard;
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> terms = {
      0.0,  -0.0, 3.5,   tiny,     //
      -0.0, tiny, -2.25, 1e-310,   //
      inf,  0.0,  1e300, -1e-310,  //
      1.0,  tiny, nan,   5.0};
  for (const auto variant : available_variants()) {
    ASSERT_TRUE(kernels::set_active_for_testing(variant));
    expect_lanes_match_fsum(terms, 4, {2, 1}, kernels::variant_name(variant));
    // Stride 0: one row of lane values, each row scaled by s[r].
    const std::vector<double> shared = {0.1, 0.7, 1.0, 0.0, 0.35};
    std::mt19937_64 rng(37);
    std::uniform_real_distribution<double> scale(1e5, 3e6);
    std::vector<double> s(700);
    for (double& v : s) v = scale(rng);
    LaneSums sums(shared.size());
    for (std::size_t r = 0; r < s.size(); r += LaneSums::kMaxRows) {
      sums.add_block(shared.data(), 0, s.data() + r,
                     std::min(LaneSums::kMaxRows, s.size() - r));
    }
    for (std::size_t k = 0; k < shared.size(); ++k) {
      std::vector<double> lane;
      for (const double v : s) lane.push_back(shared[k] * v);
      EXPECT_EQ(bits(sums.value(k)), bits(fsum_reference::fsum(lane)))
          << kernels::variant_name(variant) << " shared lane " << k;
    }
  }
}

}  // namespace
}  // namespace epserve::cluster
