// Exact per-lane sums of many short rows of terms — the engine behind a
// uniform (balanced) batch's level totals and the autoscaler's slot
// powers, where each level is a lane and each server a row.
//
// Each lane keeps a util::ExactSum, but a term does not go to it one by
// one: the split_accumulate kernel (metrics/simd/kernels.h) adds a block
// of rows at once into two plain double accumulators per lane, and those
// block sums are exact by the choice of the lane's window, so adding them
// to the ExactSum after each block keeps the lane's sum exact. No total
// depends on the order or grouping its terms arrived in.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "metrics/simd/kernels.h"
#include "util/contracts.h"
#include "util/exact_sum.h"

namespace epserve::cluster {

/// Exact per-lane sums of the terms x[r * stride + k] * s[r], fed a block
/// of at most kMaxRows rows at a time through the split_accumulate kernel.
/// Lane k's window opens on its first nonzero term of binade 2^e (e in
/// [-952, 995]): lo = 2^(e-18), hi = 2^(e+19), split = 1.5 * 2^(e+27). A
/// term inside it is a multiple of 2^(e-70); p + split stays in split's
/// binade, so h = (p + split) - split is p rounded to a multiple of
/// 2^(e-25), exactly, and p - h is exact with |p - h| <= 2^(e-26). Over
/// 256 rows hi_acc stays a multiple of 2^(e-25) below 2^(e+28) and lo_acc
/// a multiple of 2^(e-70) of at most 2^(e-18), both within 2^53 units, so
/// both are exact sums, added to the lane's ExactSum after each block.
/// Terms outside the window, and the nonzero ones before it opens, are
/// added to the ExactSum one by one.
class LaneSums {
 public:
  /// The most rows between two flushes that the bounds above allow.
  static constexpr std::size_t kMaxRows = 256;

  explicit LaneSums(std::size_t lanes)
      : sums_(lanes),
        hi_acc_(lanes, 0.0),
        lo_acc_(lanes, 0.0),
        split_(lanes, 0.0),
        lo_(lanes, 0.0),
        hi_(lanes, 0.0),
        opener_(lanes, 0.0) {}

  /// Adds x[r * stride + k] * s[r] to lane k for every row r < rows.
  void add_block(const double* x, std::size_t stride, const double* s,
                 std::size_t rows) {
    EPSERVE_EXPECTS(rows <= kMaxRows);
    const std::size_t lanes = sums_.size();
    const metrics::kernels::SplitLanes view{hi_acc_.data(), lo_acc_.data(),
                                            split_.data(), lo_.data(),
                                            hi_.data()};
    if (metrics::kernels::active().split_accumulate(view, x, stride, s, rows,
                                                    lanes)) {
      // The terms left out, against the windows the kernel used; a lane's
      // window opens after the block.
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t k = 0; k < lanes; ++k) {
          const double p = x[r * stride + k] * s[r];
          const double magnitude = std::fabs(p);
          if (p == 0.0 || (magnitude >= lo_[k] && magnitude < hi_[k])) continue;
          sums_[k].add(p);
          if (lo_[k] == 0.0 && opener_[k] == 0.0 && can_open(p)) {
            opener_[k] = p;
          }
        }
      }
      for (std::size_t k = 0; k < lanes; ++k) {
        if (opener_[k] == 0.0) continue;
        const int e = std::ilogb(opener_[k]);
        lo_[k] = std::ldexp(1.0, e - 18);
        hi_[k] = std::ldexp(1.0, e + 19);
        split_[k] = std::ldexp(1.5, e + 27);
        opener_[k] = 0.0;
      }
    }
    for (std::size_t k = 0; k < lanes; ++k) {
      sums_[k].add(hi_acc_[k]);
      sums_[k].add(lo_acc_[k]);
      hi_acc_[k] = 0.0;
      lo_acc_[k] = 0.0;
    }
  }

  [[nodiscard]] double value(std::size_t k) const { return sums_[k].value(); }

 private:
  /// A nonzero finite term of binade 2^e with e in [-952, 995], so that
  /// 2^(e-70) and 1.5 * 2^(e+27) are normal doubles.
  static bool can_open(double p) {
    if (!std::isfinite(p)) return false;
    const int e = std::ilogb(p);
    return e >= -952 && e <= 995;
  }

  std::vector<util::ExactSum> sums_;
  std::vector<double> hi_acc_;
  std::vector<double> lo_acc_;
  std::vector<double> split_;
  std::vector<double> lo_;
  std::vector<double> hi_;
  std::vector<double> opener_;
};

}  // namespace epserve::cluster
