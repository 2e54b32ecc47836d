// Peak-EE-shift forecast (paper §IV.A, closing sentence): "We can expect the
// peak energy efficiency at 50% or even 40% utilization in the near future."
// This module fits the yearly mean peak-EE utilisation trend (over the years
// where the shift is underway) and extrapolates it, plus the matching idle-
// fraction trend feeding Eq.2's "EP can still improve exponentially" claim.
#pragma once

#include <vector>

#include "stats/regression.h"

namespace epserve::analysis {

class AnalysisContext;

struct ForecastPoint {
  int year = 0;
  double value = 0.0;
};

struct PeakShiftForecast {
  /// Observed yearly mean peak-EE utilisation (from `fit_from_year` on).
  std::vector<ForecastPoint> observed;
  /// OLS fit of the observed points (utilisation vs year).
  stats::LinearFit trend;
  /// Extrapolated mean peak-EE utilisation per requested year.
  std::vector<ForecastPoint> projected;
  /// First projected year whose mean utilisation falls below 0.5 / 0.4.
  int year_reaching_50 = 0;
  int year_reaching_40 = 0;
};

/// Fits the shift over [fit_from_year, last observed year] and projects
/// through `project_until`. Utilisations clamp at the lowest measured level.
PeakShiftForecast forecast_peak_shift(const AnalysisContext& ctx,
                                      int fit_from_year = 2010,
                                      int project_until = 2026);

/// Companion idle-fraction forecast: yearly mean idle%, linear trend, and the
/// Eq.2-implied EP when idle reaches the projected levels.
struct IdleForecast {
  std::vector<ForecastPoint> observed;
  stats::LinearFit trend;
  /// Projected idle fraction at `year` (clamped at 0.02).
  double projected_idle(int year) const;
};

IdleForecast forecast_idle_fraction(const AnalysisContext& ctx,
                                    int fit_from_year = 2008);

}  // namespace epserve::analysis
