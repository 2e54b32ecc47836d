// AVX-512 kernel variant: 8 doubles per vector. Compiled with
// -mavx512f -mavx512dq in its own TU (plus -ffp-contract=off); the
// dispatcher requires both CPUID bits before routing here.
//
// The payoff over AVX2 is not just width: a fleet row's ten bins — the
// day-sim/placement hot path — fit in two zmm registers per parameter, and
// the per-vector bin lookup collapses to one vpermi2pd per parameter,
// replacing twelve scalar loads plus shuffles.
//
// Bitwise contract: same as the other vector TUs — plain round-to-nearest
// mul/sub/add (no FMA), truncating converts, and permutes that move exact
// bit patterns, so results match kGridScalar bit-for-bit.
//
// The 64-bit min/max are called in their full-mask forms (mask 0xff):
// GCC 12's unmasked wrappers start from an _mm512_undefined_*() vector and
// warn -Wmaybe-uninitialized wherever they inline, while the masked forms
// compile to the same instructions (vpmaxsq/vpminsq).
#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include "metrics/simd/grid_eval.h"
#include "metrics/simd/kernels.h"

namespace epserve::metrics::kernels {
namespace {

/// Set bits mark lanes where u is outside [0, 1] or NaN.
inline __mmask8 out_of_range_mask(__m512d u, __m512d zero, __m512d one) {
  return static_cast<__mmask8>(_mm512_cmp_pd_mask(u, zero, _CMP_NGE_UQ) |
                               _mm512_cmp_pd_mask(u, one, _CMP_NLE_UQ));
}

/// One parameter column of a row's ten bins, resident in two zmm registers.
struct RegisterTable {
  __m512d lo;
  __m512d hi;

  [[nodiscard]] __m512d lookup(__m512i idx) const {
    return _mm512_permutex2var_pd(lo, idx, hi);
  }
};

// Shared hoistable state of the native-row kernels: everything that does not
// depend on which server's row is being evaluated.
struct RowConstants {
  RegisterTable u0;
  __m512d zero, one, scale;
  __m512i zero_i, last;

  static RowConstants make() {
    return {{_mm512_loadu_pd(kRowU0), _mm512_maskz_loadu_pd(0x03, kRowU0 + 8)},
            _mm512_setzero_pd(),
            _mm512_set1_pd(1.0),
            _mm512_set1_pd(10.0),
            _mm512_setzero_si512(),
            _mm512_set1_epi64(9)};
  }
};

// One server's row over a batch of demand slots. Everything about the
// table is known at compile time — exactly kRowBins (10) bins, so the load
// masks are immediates (full zmm + 2 lanes), u0 is the shared kRowU0
// column, and inv_peak is a single broadcast. The slot loop is unrolled 2x:
// iterations are independent, so the second vector hides the first one's
// convert/permute latency. Returns the accumulated out-of-range lane mask
// (nonzero = violation) so callers can defer the throw past their own
// loops; keeping the accumulator local lets it live in a mask register
// instead of memory.
// always_inline: GCC otherwise outlines this and reloads every RowConstants
// register from the stack on each row, which costs more than the row body.
[[gnu::always_inline]] inline __mmask8 row_avx512(
    const RowConstants& c, const FleetGridView& fleet, std::size_t i,
    const double* utils, double* out, std::size_t n) {
  __mmask8 bad = 0;
  const std::size_t row = i * FleetGridView::kRowBins;
  const RegisterTable w0{_mm512_loadu_pd(fleet.w0 + row),
                         _mm512_maskz_loadu_pd(0x03, fleet.w0 + row + 8)};
  const RegisterTable m{_mm512_loadu_pd(fleet.m + row),
                        _mm512_maskz_loadu_pd(0x03, fleet.m + row + 8)};
  const __m512d inv_peak = _mm512_set1_pd(fleet.inv_peak[i]);
  const auto lanes8 = [&](std::size_t k) {
    const __m512d u = _mm512_loadu_pd(utils + k);
    bad = static_cast<__mmask8>(bad | out_of_range_mask(u, c.zero, c.one));
    __m512i idx = _mm512_cvttpd_epi64(_mm512_mul_pd(u, c.scale));
    idx = _mm512_maskz_min_epi64(
        0xff, _mm512_maskz_max_epi64(0xff, idx, c.zero_i), c.last);
    __m512d v = _mm512_mul_pd(
        _mm512_add_pd(w0.lookup(idx),
                      _mm512_mul_pd(_mm512_sub_pd(u, c.u0.lookup(idx)),
                                    m.lookup(idx))),
        inv_peak);
    v = _mm512_mask_mov_pd(v, _mm512_cmp_pd_mask(u, c.one, _CMP_EQ_OQ), c.one);
    _mm512_storeu_pd(out + k, v);
  };
  std::size_t k = 0;
  for (; k + 16 <= n; k += 16) {
    lanes8(k);
    lanes8(k + 8);
  }
  if (k + 8 <= n) {
    lanes8(k);
    k += 8;
  }
  for (; k < n; ++k) {
    // Scalar tail shares the deferred check: flag the lane 0 bit on
    // violation instead of throwing here.
    const double u = utils[k];
    if (!(u >= 0.0 && u <= 1.0)) {
      bad = static_cast<__mmask8>(bad | 1);
      out[k] = 0.0;
      continue;
    }
    out[k] = detail::fleet_eval_checked(fleet, i, u);
  }
  return bad;
}

void row_matrix_avx512(const FleetGridView& fleet, std::size_t i0,
                       std::size_t count, const double* utils, double* out,
                       std::size_t slots) {
  const RowConstants c = RowConstants::make();
  __mmask8 bad = 0;
  for (std::size_t r = 0; r < count; ++r) {
    bad = static_cast<__mmask8>(
        bad | row_avx512(c, fleet, i0 + r, utils + r * slots,
                         out + r * slots, slots));
  }
  if (bad != 0) {
    detail::utilization_out_of_range();
  }
}

bool split_accumulate_avx512(const SplitLanes& lanes, const double* x,
                             std::size_t stride, const double* s,
                             std::size_t rows, std::size_t n) {
  const __m512d zero = _mm512_setzero_pd();
  __mmask8 left_out = 0;
  // Eight lanes at a time, their accumulators held in registers across
  // the rows; each lane still adds its rows in order.
  for (std::size_t k = 0; k < n; k += 8) {
    // The last vector masks off the lanes past n.
    const auto live =
        static_cast<__mmask8>(n - k >= 8 ? 0xff : (1u << (n - k)) - 1);
    const __m512d lo = _mm512_maskz_loadu_pd(live, lanes.lo + k);
    const __m512d hi = _mm512_maskz_loadu_pd(live, lanes.hi + k);
    const __m512d split = _mm512_maskz_loadu_pd(live, lanes.split + k);
    __m512d hi_acc = _mm512_maskz_loadu_pd(live, lanes.hi_acc + k);
    __m512d lo_acc = _mm512_maskz_loadu_pd(live, lanes.lo_acc + k);
    for (std::size_t r = 0; r < rows; ++r) {
      const __m512d p =
          _mm512_mul_pd(_mm512_maskz_loadu_pd(live, x + r * stride + k),
                        _mm512_set1_pd(s[r]));
      const __m512d magnitude = _mm512_abs_pd(p);
      const auto take = static_cast<__mmask8>(
          _mm512_mask_cmp_pd_mask(live, p, zero, _CMP_EQ_OQ) |
          (_mm512_mask_cmp_pd_mask(live, magnitude, lo, _CMP_GE_OQ) &
           _mm512_cmp_pd_mask(magnitude, hi, _CMP_LT_OQ)));
      left_out = static_cast<__mmask8>(left_out | (live & ~take));
      const __m512d h = _mm512_sub_pd(_mm512_add_pd(p, split), split);
      hi_acc = _mm512_mask_add_pd(hi_acc, take, hi_acc, h);
      lo_acc = _mm512_mask_add_pd(lo_acc, take, lo_acc, _mm512_sub_pd(p, h));
    }
    _mm512_mask_storeu_pd(lanes.hi_acc + k, live, hi_acc);
    _mm512_mask_storeu_pd(lanes.lo_acc + k, live, lo_acc);
  }
  return left_out != 0;
}

}  // namespace

extern const Kernels kGridAvx512Kernels;
const Kernels kGridAvx512Kernels = {
    .variant = Variant::kGridAvx512,
    .name = "grid-avx512",
    .row_matrix = row_matrix_avx512,
    .split_accumulate = split_accumulate_avx512,
};

}  // namespace epserve::metrics::kernels

#endif  // __AVX512F__ && __AVX512DQ__
