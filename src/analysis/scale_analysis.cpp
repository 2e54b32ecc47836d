#include "analysis/scale_analysis.h"

#include <cstdint>

#include "analysis/context.h"

namespace epserve::analysis {

namespace {

/// One row per group, in ascending key order.
std::vector<ScaleRow> scale_rows(const AnalysisContext& ctx,
                                 const dataset::GroupIndex& groups) {
  const auto& snap = ctx.columnar();
  std::vector<ScaleRow> out;
  out.reserve(groups.group_count());
  for (std::size_t g = 0; g < groups.group_count(); ++g) {
    const auto members = groups.members(g);
    ScaleRow row;
    row.key = groups.key(g);
    row.count = members.size();
    row.ep = stats::summarize(AnalysisContext::gather(snap.ep(), members));
    row.score = stats::summarize(
        AnalysisContext::gather(snap.overall_score(), members));
    out.push_back(row);
  }
  return out;
}

}  // namespace

std::vector<ScaleRow> ep_ee_by_nodes(const AnalysisContext& ctx) {
  return scale_rows(ctx, ctx.groups_by_nodes());
}

std::vector<ScaleRow> ep_ee_by_chips(const AnalysisContext& ctx) {
  return scale_rows(ctx, ctx.groups_single_node_by_chips());
}

TwoChipComparison two_chip_vs_all(const AnalysisContext& ctx) {
  // Per-year group spans; the 2-chip single-node subset is a column filter
  // over each span, kept in record order.
  const auto& snap = ctx.columnar();
  const auto& by_year = ctx.groups_by_year(dataset::YearKey::kHardwareAvailability);

  TwoChipComparison out;
  double ep_gain_sum = 0.0, ee_gain_sum = 0.0;
  double med_ep_gain_sum = 0.0, med_ee_gain_sum = 0.0;
  std::size_t years_counted = 0;

  std::vector<double> ep_two, ee_two;
  for (std::size_t g = 0; g < by_year.group_count(); ++g) {
    const auto members = by_year.members(g);
    ep_two.clear();
    ee_two.clear();
    for (const std::uint32_t i : members) {
      if (snap.nodes()[i] == 1 && snap.chips()[i] == 2) {
        ep_two.push_back(snap.ep()[i]);
        ee_two.push_back(snap.overall_score()[i]);
      }
    }
    if (ep_two.size() < 3) continue;  // too few for a stable comparison

    TwoChipComparison::YearRow row;
    row.year = by_year.key(g);
    row.two_chip_count = ep_two.size();
    row.all_count = members.size();

    const auto ep_all = AnalysisContext::gather(snap.ep(), members);
    const auto ee_all = AnalysisContext::gather(snap.overall_score(), members);
    row.two_chip_avg_ep = stats::mean(ep_two);
    row.all_avg_ep = stats::mean(ep_all);
    row.two_chip_avg_ee = stats::mean(ee_two);
    row.all_avg_ee = stats::mean(ee_all);
    row.two_chip_med_ep = stats::median(ep_two);
    row.all_med_ep = stats::median(ep_all);
    row.two_chip_med_ee = stats::median(ee_two);
    row.all_med_ee = stats::median(ee_all);
    out.years.push_back(row);

    ep_gain_sum += row.two_chip_avg_ep / row.all_avg_ep - 1.0;
    ee_gain_sum += row.two_chip_avg_ee / row.all_avg_ee - 1.0;
    med_ep_gain_sum += row.two_chip_med_ep / row.all_med_ep - 1.0;
    med_ee_gain_sum += row.two_chip_med_ee / row.all_med_ee - 1.0;
    ++years_counted;
  }
  if (years_counted > 0) {
    out.avg_ep_gain = ep_gain_sum / static_cast<double>(years_counted);
    out.avg_ee_gain = ee_gain_sum / static_cast<double>(years_counted);
    out.median_ep_gain = med_ep_gain_sum / static_cast<double>(years_counted);
    out.median_ee_gain = med_ee_gain_sum / static_cast<double>(years_counted);
  }
  return out;
}

}  // namespace epserve::analysis
