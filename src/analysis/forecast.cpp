#include "analysis/forecast.h"

#include <algorithm>
#include <span>

#include "analysis/context.h"
#include "metrics/load_level.h"
#include "stats/descriptive.h"
#include "util/contracts.h"

namespace epserve::analysis {

namespace {

/// Yearly mean of `column` over the hardware years from `fit_from_year` on.
std::vector<ForecastPoint> yearly_means(const AnalysisContext& ctx,
                                        std::span<const double> column,
                                        int fit_from_year) {
  const auto& years =
      ctx.groups_by_year(dataset::YearKey::kHardwareAvailability);
  std::vector<ForecastPoint> observed;
  for (std::size_t g = 0; g < years.group_count(); ++g) {
    if (years.key(g) < fit_from_year) continue;
    observed.push_back(
        {years.key(g),
         stats::mean(AnalysisContext::gather(column, years.members(g)))});
  }
  return observed;
}

}  // namespace

PeakShiftForecast forecast_peak_shift(const AnalysisContext& ctx,
                                      int fit_from_year, int project_until) {
  PeakShiftForecast out;
  out.observed =
      yearly_means(ctx, ctx.columnar().peak_ee_utilization(), fit_from_year);
  EPSERVE_EXPECTS(out.observed.size() >= 2);

  std::vector<double> xs, ys;
  for (const auto& p : out.observed) {
    xs.push_back(static_cast<double>(p.year));
    ys.push_back(p.value);
  }
  out.trend = stats::fit_linear(xs, ys);

  const int last_year = out.observed.back().year;
  for (int year = last_year + 1; year <= project_until; ++year) {
    const double projected = std::max(
        metrics::kLoadLevels.front(),
        out.trend.predict(static_cast<double>(year)));
    out.projected.push_back({year, projected});
    if (out.year_reaching_50 == 0 && projected <= 0.5) {
      out.year_reaching_50 = year;
    }
    if (out.year_reaching_40 == 0 && projected <= 0.4) {
      out.year_reaching_40 = year;
    }
  }
  return out;
}

double IdleForecast::projected_idle(int year) const {
  return std::max(0.02, trend.predict(static_cast<double>(year)));
}

IdleForecast forecast_idle_fraction(const AnalysisContext& ctx,
                                    int fit_from_year) {
  IdleForecast out;
  out.observed =
      yearly_means(ctx, ctx.columnar().idle_fraction(), fit_from_year);
  EPSERVE_EXPECTS(out.observed.size() >= 2);
  std::vector<double> xs, ys;
  for (const auto& p : out.observed) {
    xs.push_back(static_cast<double>(p.year));
    ys.push_back(p.value);
  }
  out.trend = stats::fit_linear(xs, ys);
  return out;
}

}  // namespace epserve::analysis
