// The shared scalar row expression (internal to the kernel TUs and
// cluster::Fleet's single-point lookup). Every kernel variant — scalar
// loop, AVX2, AVX-512, NEON — must compute exactly this round-to-nearest
// operation sequence so results are bitwise identical across variants
// (docs/KERNELS.md). Do not "optimise" into FMA or reassociated forms.
#pragma once

#include <algorithm>
#include <cstddef>

#include "metrics/simd/kernels.h"

namespace epserve::metrics::kernels::detail {

/// The batch APIs' precondition, raised with one message whether the check
/// ran per point (scalar) or per vector (SIMD). Throws ContractViolation.
[[noreturn]] void utilization_out_of_range();

/// One (server, utilisation) point against the fleet's native 10-bin rows.
/// The expression matches PowerCurve's knot walk term for term: same
/// special case at u == 1.0, same truncating index, same mul/sub/add/mul
/// order.
inline double fleet_eval_checked(const FleetGridView& f, std::size_t i,
                                 double u) {
  if (!(u >= 0.0 && u <= 1.0)) utilization_out_of_range();
  if (u == 1.0) return 1.0;
  const std::size_t seg =
      std::min(static_cast<std::size_t>(u * 10.0), std::size_t{9});
  const std::size_t at = i * FleetGridView::kRowBins + seg;
  return (f.w0[at] + (u - kRowU0[seg]) * f.m[at]) * f.inv_peak[i];
}

}  // namespace epserve::metrics::kernels::detail
