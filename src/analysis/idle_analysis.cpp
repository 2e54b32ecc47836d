#include "analysis/idle_analysis.h"

#include "analysis/context.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "util/contracts.h"

namespace epserve::analysis {

IdleAnalysis analyze_idle_power(const AnalysisContext& ctx) {
  // The snapshot's columns already hold the three series in record order.
  const auto& snap = ctx.columnar();
  IdleAnalysis out;
  out.ep_idle_correlation = stats::pearson(snap.ep(), snap.idle_fraction());
  out.ep_score_correlation = stats::pearson(snap.ep(), snap.overall_score());
  out.eq2 = stats::fit_exponential(snap.idle_fraction(), snap.ep());
  out.predicted_ep_at_5pct_idle = out.eq2.predict(0.05);
  out.theoretical_max_ep = out.eq2.alpha;
  return out;
}

double mean_idle_fraction(const AnalysisContext& ctx, int from_year,
                          int to_year) {
  const auto& snap = ctx.columnar();
  const auto hw_year = snap.hw_year();
  const auto idle_fraction = snap.idle_fraction();
  std::vector<double> values;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    if (hw_year[i] >= from_year && hw_year[i] <= to_year) {
      values.push_back(idle_fraction[i]);
    }
  }
  EPSERVE_EXPECTS(!values.empty());
  return stats::mean(values);
}

}  // namespace epserve::analysis
