#include "analysis/metric_comparison.h"

#include <algorithm>
#include <numeric>

#include "analysis/context.h"
#include "metrics/proportionality.h"
#include "stats/rank.h"

namespace epserve::analysis {

MetricAgreement metric_agreement(const AnalysisContext& ctx) {
  const auto& records = ctx.repo().records();
  const auto eps = ctx.columnar().ep();
  const auto metric_of = [&](double (*fn)(const metrics::PowerCurve&)) {
    std::vector<double> values;
    values.reserve(records.size());
    for (const auto& r : records) values.push_back(fn(r.curve));
    return values;
  };

  MetricAgreement out;
  // Sign conventions: LD, IPR, and the gap all fall as EP rises; negate so a
  // perfectly agreeing ranking reads +1.
  out.ld_vs_ep = -stats::kendall_tau(metric_of(metrics::linear_deviation), eps);
  out.ipr_vs_ep = -stats::kendall_tau(metric_of(metrics::idle_power_ratio), eps);
  out.dr_vs_ep = stats::kendall_tau(metric_of(metrics::dynamic_range), eps);
  out.gap_vs_ep =
      -stats::kendall_tau(metric_of(metrics::max_proportionality_gap), eps);
  return out;
}

std::vector<EpTierPeakRow> peak_location_by_ep_tier(
    const AnalysisContext& ctx) {
  // Sort servers by EP and slice into quartiles.
  const auto& snap = ctx.columnar();
  const auto ep = snap.ep();
  const auto peak_ee_utilization = snap.peak_ee_utilization();
  std::vector<std::uint32_t> order(snap.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) { return ep[a] < ep[b]; });
  std::vector<EpTierPeakRow> rows(4);
  const std::size_t n = order.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t q = std::min<std::size_t>(3, i * 4 / n);
    auto& row = rows[q];
    row.quartile = static_cast<int>(q) + 1;
    row.count += 1;
    row.mean_ep += ep[order[i]];
    const double peak_util = peak_ee_utilization[order[i]];
    row.mean_peak_utilization += peak_util;
    if (peak_util == 1.0) row.share_at_full_load += 1.0;
    if (peak_util == 0.6) row.share_at_60 += 1.0;
  }
  for (auto& row : rows) {
    if (row.count == 0) continue;
    const auto count = static_cast<double>(row.count);
    row.mean_ep /= count;
    row.mean_peak_utilization /= count;
    row.share_at_full_load /= count;
    row.share_at_60 /= count;
  }
  return rows;
}

double share_peaking_at_60(const AnalysisContext& ctx) {
  const auto spots = ctx.columnar().peak_ee_utilization();
  const auto at_60 = std::count(spots.begin(), spots.end(), 0.6);
  return static_cast<double>(at_60) / static_cast<double>(ctx.size());
}

}  // namespace epserve::analysis
