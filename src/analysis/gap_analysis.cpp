#include "analysis/gap_analysis.h"

#include "analysis/context.h"
#include "metrics/proportionality.h"
#include "util/contracts.h"

namespace epserve::analysis {

GapProfile gap_profile(const AnalysisContext& ctx, int from_year,
                       int to_year) {
  EPSERVE_EXPECTS(from_year <= to_year);
  GapProfile profile;
  profile.from_year = from_year;
  profile.to_year = to_year;
  // A row scan in record order: the era sums are floating-point, so their
  // order is part of the result.
  const auto& records = ctx.repo().records();
  const auto& snap = ctx.columnar();
  const auto hw_year = snap.hw_year();
  const auto idle_fraction = snap.idle_fraction();
  for (std::size_t r = 0; r < records.size(); ++r) {
    if (hw_year[r] < from_year || hw_year[r] > to_year) continue;
    profile.servers += 1;
    profile.mean_gap[0] += idle_fraction[r];
    for (std::size_t i = 0; i < metrics::kNumLoadLevels; ++i) {
      profile.mean_gap[i + 1] +=
          metrics::proportionality_gap(records[r].curve, i);
    }
  }
  EPSERVE_EXPECTS(profile.servers > 0);
  for (auto& g : profile.mean_gap) {
    g /= static_cast<double>(profile.servers);
  }
  return profile;
}

double poorly_proportional_below(const GapProfile& profile, double threshold) {
  EPSERVE_EXPECTS(threshold > 0.0);
  // Scan from high utilisation down; the first level whose mean gap exceeds
  // the threshold bounds the poorly proportional region.
  for (std::size_t i = metrics::kNumLoadLevels; i >= 1; --i) {
    if (profile.mean_gap[i] > threshold) {
      return metrics::kLoadLevels[i - 1];
    }
  }
  return profile.mean_gap[0] > threshold ? metrics::kLoadLevels.front() : 0.0;
}

}  // namespace epserve::analysis
