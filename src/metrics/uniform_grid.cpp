#include "metrics/uniform_grid.h"

#include <stdexcept>
#include <string>

#include "metrics/simd/grid_eval.h"
#include "util/contracts.h"
#include "util/telemetry.h"

namespace epserve::metrics {

UniformGridTable UniformGridTable::resample(
    const PowerCurve::InterpolationTable& table, std::size_t bins_per_segment) {
  EPSERVE_EXPECTS(bins_per_segment >= 1);
  const std::size_t segments = table.slope.size();
  const std::size_t bins = segments * bins_per_segment;

  UniformGridTable grid;
  grid.u0_.resize(bins);
  grid.w0_.resize(bins);
  grid.m_.resize(bins);
  grid.inv_peak_ = table.inv_peak;
  grid.scale_ = static_cast<double>(bins);

  // Each bin stores its containing segment's exact knot parameters, so
  // evaluation reproduces the knot-walk expression verbatim; resampling never
  // re-derives watts at bin boundaries (which would round differently).
  for (std::size_t seg = 0; seg < segments; ++seg) {
    for (std::size_t b = 0; b < bins_per_segment; ++b) {
      const std::size_t idx = seg * bins_per_segment + b;
      grid.u0_[idx] = table.knot_u[seg];
      grid.w0_[idx] = table.knot_watts[seg];
      grid.m_[idx] = table.slope[seg];
    }
  }
  return grid;
}

UniformGridTable UniformGridTable::from_curve(const PowerCurve& curve,
                                              std::size_t bins_per_segment) {
  return resample(curve.interpolation_table(), bins_per_segment);
}

double UniformGridTable::evaluate(double utilization) const {
  return kernels::detail::grid_eval_checked(view(), utilization);
}

void UniformGridTable::evaluate_batch(std::span<const double> utils,
                                      std::span<double> out) const {
  EPSERVE_EXPECTS(utils.size() == out.size());
  if (utils.empty()) return;
  kernels::active().grid_batch(view(), utils.data(), out.data(),
                               utils.size());
  telemetry::count("kernel.batch_points", utils.size());
}

}  // namespace epserve::metrics
