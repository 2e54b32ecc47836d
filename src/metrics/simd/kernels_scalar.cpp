// Scalar kernel variants: the row expression as a plain loop, shared by
// kGridScalar (the portable fallback and the bitwise reference for the
// vector TUs) and kScalarReference (the EPSERVE_FORCE_SCALAR=1 set).
// Compiled with the project's baseline ISA flags — nothing here requires
// AVX2/NEON.
#include <algorithm>
#include <cmath>

#include "metrics/simd/grid_eval.h"
#include "metrics/simd/kernels.h"
#include "util/contracts.h"

namespace epserve::metrics::kernels {

// Bitwise equal to InterpolationTable::knot_u[0..9] (0.0 then kLoadLevels
// 0.1..0.9): the same literals, so the same doubles.
const double kRowU0[FleetGridView::kRowBins] = {0.0, 0.1, 0.2, 0.3, 0.4,
                                                0.5, 0.6, 0.7, 0.8, 0.9};

namespace detail {

void utilization_out_of_range() {
  epserve::detail::contract_fail("precondition",
                                 "utilization >= 0.0 && utilization <= 1.0",
                                 __FILE__, __LINE__);
}

}  // namespace detail

namespace {

void row_matrix_scalar(const FleetGridView& fleet, std::size_t i0,
                       std::size_t count, const double* utils, double* out,
                       std::size_t slots) {
  for (std::size_t r = 0; r < count; ++r) {
    for (std::size_t d = 0; d < slots; ++d) {
      out[r * slots + d] =
          detail::fleet_eval_checked(fleet, i0 + r, utils[r * slots + d]);
    }
  }
}

bool split_accumulate_scalar(const SplitLanes& lanes, const double* x,
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

// kScalarReference runs these same loops: the scalar row expression IS the
// knot-walk expression, so forcing it (EPSERVE_FORCE_SCALAR=1) selects a
// path with no vector ISA whose bytes equal every other variant's. Only its
// variant and name differ.
extern const Kernels kScalarReferenceKernels;
const Kernels kScalarReferenceKernels = {
    .variant = Variant::kScalarReference,
    .name = "scalar-reference",
    .row_matrix = row_matrix_scalar,
    .split_accumulate = split_accumulate_scalar,
};

extern const Kernels kGridScalarKernels;
const Kernels kGridScalarKernels = {
    .variant = Variant::kGridScalar,
    .name = "grid-scalar",
    .row_matrix = row_matrix_scalar,
    .split_accumulate = split_accumulate_scalar,
};

}  // namespace epserve::metrics::kernels
