// UniformGridTable: a PowerCurve's InterpolationTable resampled onto a
// uniform utilisation grid, so evaluation is `idx = u * scale` plus one
// linear piece — no per-point knot search, and a layout the metrics/simd
// batch kernels can gather from.
//
// The SPECpower knots are themselves a uniform 0.1 grid, so resampling at
// any whole number of bins per segment is exact: every grid bin lies wholly
// inside one knot segment, and the bin stores that segment's own
// (u0, w0, slope) parameters. Evaluation therefore runs the *identical*
// floating-point expression the knot-walk kernel
// (PowerCurve::normalized_power_from_table) runs, and agrees with it
// bit-for-bit wherever both resolve a utilisation to the same segment:
//
//   * at 1 bin/segment (the resolution cluster::Fleet stores), the bin index
//     computation is the knot walk's own `u * 10`, so agreement is bitwise
//     at every utilisation;
//   * at finer resolutions (the default 25 bins/segment = 250 bins), the bin
//     index comes from `u * 250`, whose rounding can disagree with
//     `u * 10` about which side of a knot a utilisation within a few ULP of
//     that knot falls on. The two candidate segment lines meet at the knot,
//     so the disagreement is bounded: <=2 ULP of the result (the documented
//     policy, pinned by tests/metrics_simd_kernel_test.cpp), and exactly 0
//     at the representable knot values themselves, where both computations
//     provably pick the same segment.
//
// docs/KERNELS.md derives both claims.
#pragma once

#include <cstddef>
#include <span>

#include "metrics/power_curve.h"
#include "metrics/simd/kernels.h"
#include "util/aligned.h"

namespace epserve::metrics {

class UniformGridTable {
 public:
  /// Default resolution: 25 bins/segment = 250 bins over [0, 1].
  static constexpr std::size_t kDefaultBinsPerSegment = 25;

  UniformGridTable() = default;

  /// Resamples an interpolation table. `bins_per_segment` >= 1; the grid has
  /// 10 * bins_per_segment bins.
  static UniformGridTable resample(const PowerCurve::InterpolationTable& table,
                                   std::size_t bins_per_segment =
                                       kDefaultBinsPerSegment);

  /// Convenience: resample(curve.interpolation_table()).
  static UniformGridTable from_curve(const PowerCurve& curve,
                                     std::size_t bins_per_segment =
                                         kDefaultBinsPerSegment);

  [[nodiscard]] std::size_t bins() const { return w0_.size(); }
  [[nodiscard]] double scale() const { return scale_; }
  [[nodiscard]] double inv_peak() const { return inv_peak_; }

  /// Raw-column view for the kernel layer. Valid while this table lives.
  [[nodiscard]] kernels::GridView view() const {
    kernels::GridView v;
    v.u0 = u0_.data();
    v.w0 = w0_.data();
    v.m = m_.data();
    v.inv_peak = inv_peak_;
    v.scale = scale_;
    v.last_bin = static_cast<std::int32_t>(w0_.size() - 1);
    return v;
  }

  /// Scalar grid evaluation (the kGridScalar expression). Utilisation must
  /// be in [0, 1].
  [[nodiscard]] double evaluate(double utilization) const;

  /// Batched evaluation through the process-selected kernels
  /// (kernels::active()); under EPSERVE_FORCE_SCALAR that is the plain
  /// scalar grid loop kGridScalar also runs. `out.size()` must equal
  /// `utils.size()`; every utilisation must be in [0, 1].
  void evaluate_batch(std::span<const double> utils,
                      std::span<double> out) const;

 private:
  util::AlignedVector<double> u0_;  // per bin: left-knot utilisation
  util::AlignedVector<double> w0_;  // per bin: watts at that knot
  util::AlignedVector<double> m_;   // per bin: segment slope
  double inv_peak_ = 0.0;
  double scale_ = 0.0;
};

}  // namespace epserve::metrics
