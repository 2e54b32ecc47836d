// AVX2 kernel variant: 4 doubles per vector, lane-wise bin loads.
//
// This TU is the only one compiled with -mavx2 (CMake sets the flag per
// file, plus -ffp-contract=off so nothing here can silently become an FMA);
// the rest of the build stays baseline-ISA and the dispatcher consults
// CPUID before routing any call here.
//
// Bitwise contract: every vector op below is the IEEE round-to-nearest
// double op the scalar row expression performs, in the same order —
// multiply, truncating convert, clamp, bin loads, sub, mul, add, mul, and a
// final blend for the u == 1.0 special case. No FMA, no reassociation.
// tests/metrics_simd_kernel_test.cpp pins kGridAvx2 == kGridScalar
// bit-for-bit.
//
// The [0, 1] precondition is hoisted to one test per vector: two unordered
// compares whose lane mask is OR-accumulated and branched on once per
// iteration (NaN fails, exactly like the scalar check).
#if defined(__AVX2__)

#include <immintrin.h>

#include <cmath>
#include <cstdint>

#include "metrics/simd/grid_eval.h"
#include "metrics/simd/kernels.h"

namespace epserve::metrics::kernels {
namespace {

/// True in any lane where u is outside [0, 1] or NaN.
inline __m256d out_of_range_mask(__m256d u, __m256d zero, __m256d one) {
  return _mm256_or_pd(_mm256_cmp_pd(u, zero, _CMP_NGE_UQ),
                      _mm256_cmp_pd(u, one, _CMP_NLE_UQ));
}

// One server's row over a batch of utilisations.
void row_avx2(const FleetGridView& fleet, std::size_t i, const double* utils,
              double* out, std::size_t n) {
  const std::size_t row = i * FleetGridView::kRowBins;
  const double* w0_row = fleet.w0 + row;
  const double* m_row = fleet.m + row;
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d scale = _mm256_set1_pd(10.0);
  const __m256d inv_peak = _mm256_set1_pd(fleet.inv_peak[i]);
  const __m128i zero_i = _mm_setzero_si128();
  const __m128i last_bin = _mm_set1_epi32(9);
  // Lane-wise parameter loads (vgatherdpd is slower than four scalar loads
  // plus unpacks on every uarch this has run on). The range check is
  // OR-accumulated and raised once after the loop: the clamped bin index
  // keeps every load in-bounds for any input (NaN converts to INT_MIN and
  // clamps to 0), so deferring is safe; `out` is unspecified on violation.
  __m256d bad = _mm256_setzero_pd();
  alignas(16) std::int32_t idx[4];
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d u = _mm256_loadu_pd(utils + k);
    bad = _mm256_or_pd(bad, out_of_range_mask(u, zero, one));
    __m128i bin = _mm256_cvttpd_epi32(_mm256_mul_pd(u, scale));
    bin = _mm_min_epi32(_mm_max_epi32(bin, zero_i), last_bin);
    _mm_store_si128(reinterpret_cast<__m128i*>(idx), bin);
    const __m256d u0 = _mm256_set_pd(kRowU0[idx[3]], kRowU0[idx[2]],
                                     kRowU0[idx[1]], kRowU0[idx[0]]);
    const __m256d w0 = _mm256_set_pd(w0_row[idx[3]], w0_row[idx[2]],
                                     w0_row[idx[1]], w0_row[idx[0]]);
    const __m256d m = _mm256_set_pd(m_row[idx[3]], m_row[idx[2]],
                                    m_row[idx[1]], m_row[idx[0]]);
    __m256d v = _mm256_mul_pd(
        _mm256_add_pd(w0, _mm256_mul_pd(_mm256_sub_pd(u, u0), m)), inv_peak);
    v = _mm256_blendv_pd(v, one, _mm256_cmp_pd(u, one, _CMP_EQ_OQ));
    _mm256_storeu_pd(out + k, v);
  }
  if (_mm256_movemask_pd(bad) != 0) {
    detail::utilization_out_of_range();
  }
  for (; k < n; ++k) {
    out[k] = detail::fleet_eval_checked(fleet, i, utils[k]);
  }
}

void row_matrix_avx2(const FleetGridView& fleet, std::size_t i0,
                     std::size_t count, const double* utils, double* out,
                     std::size_t slots) {
  for (std::size_t r = 0; r < count; ++r) {
    row_avx2(fleet, i0 + r, utils + r * slots, out + r * slots, slots);
  }
}

bool split_accumulate_avx2(const SplitLanes& lanes, const double* x,
                           std::size_t stride, const double* s,
                           std::size_t rows, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d sign = _mm256_set1_pd(-0.0);
  int taken = 0xf;  // the AND of every row's lane mask
  // Four lanes at a time, their accumulators held in registers across the
  // rows; each lane still adds its rows in order.
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d lo = _mm256_loadu_pd(lanes.lo + k);
    const __m256d hi = _mm256_loadu_pd(lanes.hi + k);
    const __m256d split = _mm256_loadu_pd(lanes.split + k);
    __m256d hi_acc = _mm256_loadu_pd(lanes.hi_acc + k);
    __m256d lo_acc = _mm256_loadu_pd(lanes.lo_acc + k);
    for (std::size_t r = 0; r < rows; ++r) {
      const __m256d p = _mm256_mul_pd(_mm256_loadu_pd(x + r * stride + k),
                                      _mm256_set1_pd(s[r]));
      const __m256d magnitude = _mm256_andnot_pd(sign, p);
      const __m256d take = _mm256_or_pd(
          _mm256_cmp_pd(p, zero, _CMP_EQ_OQ),
          _mm256_and_pd(_mm256_cmp_pd(magnitude, lo, _CMP_GE_OQ),
                        _mm256_cmp_pd(magnitude, hi, _CMP_LT_OQ)));
      taken &= _mm256_movemask_pd(take);
      const __m256d h = _mm256_sub_pd(_mm256_add_pd(p, split), split);
      hi_acc = _mm256_blendv_pd(hi_acc, _mm256_add_pd(hi_acc, h), take);
      lo_acc = _mm256_blendv_pd(
          lo_acc, _mm256_add_pd(lo_acc, _mm256_sub_pd(p, h)), take);
    }
    _mm256_storeu_pd(lanes.hi_acc + k, hi_acc);
    _mm256_storeu_pd(lanes.lo_acc + k, lo_acc);
  }
  bool left_out = taken != 0xf;
  for (; k < n; ++k) {
    for (std::size_t r = 0; r < rows; ++r) {
      const double p = x[r * stride + k] * s[r];
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

extern const Kernels kGridAvx2Kernels;
const Kernels kGridAvx2Kernels = {
    .variant = Variant::kGridAvx2,
    .name = "grid-avx2",
    .row_matrix = row_matrix_avx2,
    .split_accumulate = split_accumulate_avx2,
};

}  // namespace epserve::metrics::kernels

#endif  // __AVX2__
