#include "metrics/power_curve.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/contracts.h"

namespace epserve::metrics {

Result<std::size_t> level_of_utilization(double utilization) {
  // The levels are the uniform grid 0.1 .. 1.0, so the only candidate index
  // is the nearest one; accept it iff it matches within the grid tolerance.
  if (std::isfinite(utilization) && utilization > 0.05 && utilization < 1.05) {
    const auto candidate =
        static_cast<std::size_t>(std::lround(utilization * 10.0)) - 1;
    if (candidate < kNumLoadLevels &&
        std::abs(kLoadLevels[candidate] - utilization) < 1e-9) {
      return candidate;
    }
  }
  return Error::out_of_range("utilization is not a graduated load level");
}

PowerCurve::PowerCurve(std::array<double, kNumLoadLevels> watts,
                       std::array<double, kNumLoadLevels> ops,
                       double idle_watts)
    : watts_(watts), ops_(ops), idle_watts_(idle_watts) {}

PowerCurve::InterpolationTable PowerCurve::interpolation_table() const {
  InterpolationTable t;
  t.knot_u[0] = 0.0;
  t.knot_watts[0] = idle_watts_;  // active idle treated as utilisation 0
  for (std::size_t i = 0; i < kNumLoadLevels; ++i) {
    t.knot_u[i + 1] = kLoadLevels[i];
    t.knot_watts[i + 1] = watts_[i];
  }
  for (std::size_t s = 0; s < kNumLoadLevels; ++s) {
    t.slope[s] = (t.knot_watts[s + 1] - t.knot_watts[s]) /
                 (t.knot_u[s + 1] - t.knot_u[s]);
  }
  t.inv_peak = 1.0 / peak_watts();
  return t;
}

// The knot walk. The segment index is u * 10 truncated (the knots are a
// uniform 0.1 grid); the clamp covers the rounding case where u < 1.0 but
// u * 10.0 lands on 10.0.
double PowerCurve::normalized_power(double utilization) const {
  EPSERVE_EXPECTS(utilization >= 0.0 && utilization <= 1.0);
  if (utilization == 1.0) return 1.0;
  const InterpolationTable t = interpolation_table();
  const std::size_t seg =
      std::min(static_cast<std::size_t>(utilization * 10.0),
               kNumLoadLevels - 1);
  return (t.knot_watts[seg] + (utilization - t.knot_u[seg]) * t.slope[seg]) *
         t.inv_peak;
}

Result<bool> PowerCurve::validate() const {
  const auto fail = [](const std::string& why) -> Result<bool> {
    return Error::failed_precondition("invalid PowerCurve: " + why);
  };
  if (!(idle_watts_ > 0.0)) return fail("idle power must be > 0");
  for (std::size_t i = 0; i < kNumLoadLevels; ++i) {
    if (!(watts_[i] > 0.0) || !std::isfinite(watts_[i])) {
      std::ostringstream oss;
      oss << "power at level " << i << " must be finite and > 0";
      return fail(oss.str());
    }
    if (ops_[i] < 0.0 || !std::isfinite(ops_[i])) {
      std::ostringstream oss;
      oss << "ops at level " << i << " must be finite and >= 0";
      return fail(oss.str());
    }
    if (i > 0 && ops_[i] < ops_[i - 1]) {
      std::ostringstream oss;
      oss << "ops must be non-decreasing with load (level " << i << ")";
      return fail(oss.str());
    }
  }
  if (idle_watts_ > watts_.back()) return fail("idle power exceeds peak power");
  if (!(ops_.back() > 0.0)) return fail("ops at 100% load must be > 0");
  return true;
}

bool PowerCurve::power_monotone() const {
  if (idle_watts_ > watts_.front()) return false;
  for (std::size_t i = 1; i < kNumLoadLevels; ++i) {
    if (watts_[i] < watts_[i - 1]) return false;
  }
  return true;
}

}  // namespace epserve::metrics
