// NEON kernel variant (arm64): 2 doubles per vector. AArch64 has no vector
// gather, so bin parameters are loaded lane-wise from scalar-computed
// indices; the arithmetic still runs as vector ops.
//
// Bitwise contract: identical to the AVX2 TU — plain vmul/vsub/vadd
// round-to-nearest ops, never vfma (fused), so results match kGridScalar
// bit-for-bit. NEON is baseline on AArch64, so this TU needs no special
// compile flags; it is simply absent from x86 builds.
#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "metrics/simd/grid_eval.h"
#include "metrics/simd/kernels.h"

namespace epserve::metrics::kernels {
namespace {

inline bool lane_in_range(double u) { return u >= 0.0 && u <= 1.0; }

/// Truncating bin index clamped to [0, 9] — u already range-checked.
inline std::size_t bin_of(double u) {
  return std::min(static_cast<std::size_t>(u * 10.0), std::size_t{9});
}

// One server's row over a batch of utilisations.
void row_neon(const FleetGridView& fleet, std::size_t i, const double* utils,
              double* out, std::size_t n) {
  const std::size_t row = i * FleetGridView::kRowBins;
  const double* w0_row = fleet.w0 + row;
  const double* m_row = fleet.m + row;
  const float64x2_t one = vdupq_n_f64(1.0);
  const float64x2_t inv_peak = vdupq_n_f64(fleet.inv_peak[i]);
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const double ua = utils[k];
    const double ub = utils[k + 1];
    if (!lane_in_range(ua) || !lane_in_range(ub)) {
      detail::utilization_out_of_range();
    }
    const std::size_t ia = bin_of(ua);
    const std::size_t ib = bin_of(ub);
    const float64x2_t u = vld1q_f64(utils + k);
    const float64x2_t u0 = {kRowU0[ia], kRowU0[ib]};
    const float64x2_t w0 = {w0_row[ia], w0_row[ib]};
    const float64x2_t m = {m_row[ia], m_row[ib]};
    float64x2_t v = vmulq_f64(
        vaddq_f64(w0, vmulq_f64(vsubq_f64(u, u0), m)), inv_peak);
    v = vbslq_f64(vceqq_f64(u, one), one, v);
    vst1q_f64(out + k, v);
  }
  for (; k < n; ++k) {
    out[k] = detail::fleet_eval_checked(fleet, i, utils[k]);
  }
}

void row_matrix_neon(const FleetGridView& fleet, std::size_t i0,
                     std::size_t count, const double* utils, double* out,
                     std::size_t slots) {
  for (std::size_t r = 0; r < count; ++r) {
    row_neon(fleet, i0 + r, utils + r * slots, out + r * slots, slots);
  }
}

// A plain loop: the same ops in the same order as the scalar variant.
bool split_accumulate_neon(const SplitLanes& lanes, const double* x,
                           std::size_t stride, const double* s,
                           std::size_t rows, std::size_t n) {
  bool left_out = false;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = x + r * stride;
    for (std::size_t k = 0; k < n; ++k) {
      const double p = row[k] * s[r];
      const double magnitude = std::fabs(p);
      if (p == 0.0 || (magnitude >= lanes.lo[k] && magnitude < lanes.hi[k])) {
        const double h = (p + lanes.split[k]) - lanes.split[k];
        lanes.hi_acc[k] += h;
        lanes.lo_acc[k] += p - h;
      } else {
        left_out = true;
      }
    }
  }
  return left_out;
}

}  // namespace

extern const Kernels kGridNeonKernels;
const Kernels kGridNeonKernels = {
    .variant = Variant::kGridNeon,
    .name = "grid-neon",
    .row_matrix = row_matrix_neon,
    .split_accumulate = split_accumulate_neon,
};

}  // namespace epserve::metrics::kernels

#endif  // __aarch64__
