#include "cluster/knightshift.h"

#include <algorithm>
#include <span>
#include <vector>

#include "metrics/proportionality.h"
#include "util/contracts.h"

namespace epserve::cluster {

namespace {

/// Knight power at a knight-local utilisation (linear little machine).
double knight_power(const KnightShiftConfig& config, double primary_peak_watts,
                    double utilization) {
  const double peak = primary_peak_watts * config.knight_power_fraction;
  return peak * (config.knight_idle_fraction +
                 (1.0 - config.knight_idle_fraction) * utilization);
}

}  // namespace

Result<metrics::PowerCurve> knightshift_curve(const Fleet& fleet,
                                              std::size_t primary_index,
                                              const KnightShiftConfig& config) {
  EPSERVE_EXPECTS(primary_index < fleet.size());
  if (!(config.knight_capacity_fraction > 0.0 &&
        config.knight_capacity_fraction < 1.0)) {
    return Error::invalid_argument("knight capacity fraction must be in (0,1)");
  }
  if (!(config.knight_power_fraction > 0.0 &&
        config.knight_power_fraction < 1.0)) {
    return Error::invalid_argument("knight power fraction must be in (0,1)");
  }
  if (config.knight_idle_fraction < 0.0 || config.knight_idle_fraction > 1.0 ||
      config.primary_suspend_fraction < 0.0 ||
      config.primary_suspend_fraction > 1.0) {
    return Error::invalid_argument("fractions must be in [0,1]");
  }
  if (auto valid = fleet.curve(primary_index).validate(); !valid.ok()) {
    return valid.error();
  }

  const double primary_ops = fleet.peak_ops()[primary_index];
  const double primary_watts = fleet.peak_watts()[primary_index];
  const double knight_ops = primary_ops * config.knight_capacity_fraction;
  const double composite_ops = primary_ops + knight_ops;

  // Evaluation points: the eleven levels, then active idle (u = 0). Split
  // them by regime up front so every shared-regime primary lookup runs as
  // one batch against the primary's grid row.
  constexpr std::size_t kNumPoints = metrics::kNumLoadLevels + 1;
  std::array<double, kNumPoints> point_watts{};
  std::vector<std::size_t> shared_points;
  std::vector<double> primary_utils;
  shared_points.reserve(kNumPoints);
  primary_utils.reserve(kNumPoints);
  for (std::size_t p = 0; p < kNumPoints; ++p) {
    const double u = p < metrics::kNumLoadLevels ? metrics::kLoadLevels[p] : 0.0;
    const double demand_ops = u * composite_ops;
    if (demand_ops <= knight_ops) {
      // Knight-only regime: primary suspended.
      const double knight_util =
          knight_ops > 0.0 ? demand_ops / knight_ops : 0.0;
      point_watts[p] = knight_power(config, primary_watts, knight_util) +
                       primary_watts * config.primary_suspend_fraction;
    } else {
      // Shared regime: knight saturated, primary takes the remainder.
      shared_points.push_back(p);
      primary_utils.push_back(
          std::min(1.0, (demand_ops - knight_ops) / primary_ops));
    }
  }
  std::vector<double> norm(primary_utils.size());
  fleet.normalized_power_batch(primary_index, primary_utils, norm);
  for (std::size_t k = 0; k < shared_points.size(); ++k) {
    point_watts[shared_points[k]] =
        knight_power(config, primary_watts, 1.0) + norm[k] * primary_watts;
  }

  std::array<double, metrics::kNumLoadLevels> watts{};
  std::array<double, metrics::kNumLoadLevels> ops{};
  for (std::size_t i = 0; i < metrics::kNumLoadLevels; ++i) {
    watts[i] = point_watts[i];
    ops[i] = composite_ops * metrics::kLoadLevels[i];
  }
  const double idle = point_watts[metrics::kNumLoadLevels];
  metrics::PowerCurve curve(watts, ops, idle);
  if (auto valid = curve.validate(); !valid.ok()) return valid.error();
  return curve;
}

Result<metrics::PowerCurve> knightshift_curve(
    const dataset::ServerRecord& primary, const KnightShiftConfig& config) {
  const Fleet fleet =
      Fleet::from_records(std::span<const dataset::ServerRecord>(&primary, 1));
  return knightshift_curve(fleet, 0, config);
}

Result<KnightShiftComparison> compare_knightshift(
    const Fleet& fleet, std::size_t primary_index,
    const KnightShiftConfig& config) {
  EPSERVE_EXPECTS(primary_index < fleet.size());
  auto composite = knightshift_curve(fleet, primary_index, config);
  if (!composite.ok()) return composite.error();
  KnightShiftComparison cmp;
  cmp.primary_ep = fleet.ep()[primary_index];
  cmp.composite_ep = metrics::energy_proportionality(composite.value());
  cmp.primary_idle_fraction = fleet.idle_fraction()[primary_index];
  cmp.composite_idle_fraction = composite.value().idle_fraction();
  return cmp;
}

Result<KnightShiftComparison> compare_knightshift(
    const dataset::ServerRecord& primary, const KnightShiftConfig& config) {
  const Fleet fleet =
      Fleet::from_records(std::span<const dataset::ServerRecord>(&primary, 1));
  return compare_knightshift(fleet, 0, config);
}

}  // namespace epserve::cluster
