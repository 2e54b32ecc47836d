#include "cluster/knightshift.h"

#include <algorithm>
#include <array>

#include "metrics/proportionality.h"

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

Result<metrics::PowerCurve> knightshift_curve(
    const dataset::ServerRecord& primary, const KnightShiftConfig& config) {
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
  const metrics::PowerCurve& sheet = primary.curve;
  if (auto valid = sheet.validate(); !valid.ok()) return valid.error();

  const double primary_ops = sheet.peak_ops();
  const double primary_watts = sheet.peak_watts();
  const double knight_ops = primary_ops * config.knight_capacity_fraction;
  const double composite_ops = primary_ops + knight_ops;

  // Evaluation points: the eleven levels, then active idle (u = 0).
  constexpr std::size_t kNumPoints = metrics::kNumLoadLevels + 1;
  std::array<double, kNumPoints> point_watts{};
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
      const double primary_util =
          std::min(1.0, (demand_ops - knight_ops) / primary_ops);
      point_watts[p] = knight_power(config, primary_watts, 1.0) +
                       sheet.normalized_power(primary_util) * primary_watts;
    }
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

Result<KnightShiftComparison> compare_knightshift(
    const dataset::ServerRecord& primary, const KnightShiftConfig& config) {
  auto composite = knightshift_curve(primary, config);
  if (!composite.ok()) return composite.error();
  KnightShiftComparison cmp;
  cmp.primary_ep = metrics::energy_proportionality(primary.curve);
  cmp.composite_ep = metrics::energy_proportionality(composite.value());
  cmp.primary_idle_fraction = primary.curve.idle_fraction();
  cmp.composite_idle_fraction = composite.value().idle_fraction();
  return cmp;
}

}  // namespace epserve::cluster
