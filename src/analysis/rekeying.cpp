#include "analysis/rekeying.h"

#include <algorithm>

#include "analysis/context.h"
#include "stats/descriptive.h"

namespace epserve::analysis {

RekeyingResult rekeying_analysis(const AnalysisContext& ctx) {
  const auto& snap = ctx.columnar();
  const auto& by_hw = ctx.groups_by_year(dataset::YearKey::kHardwareAvailability);
  const auto& by_pub = ctx.groups_by_year(dataset::YearKey::kPublished);

  RekeyingResult out;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    if (snap.hw_year()[i] != snap.pub_year()[i]) ++out.mismatched_results;
  }
  out.mismatched_share = static_cast<double>(out.mismatched_results) /
                         static_cast<double>(snap.size());

  bool first = true;
  for (std::size_t g = 0; g < by_hw.group_count(); ++g) {
    const auto pub_g = by_pub.find(by_hw.key(g));
    if (!pub_g.has_value()) continue;
    const auto hw_members = by_hw.members(g);
    const auto pub_members = by_pub.members(*pub_g);

    RekeyingRow row;
    row.year = by_hw.key(g);
    row.hw_count = hw_members.size();
    row.pub_count = pub_members.size();

    const auto hw_ep = AnalysisContext::gather(snap.ep(), hw_members);
    const auto pub_ep = AnalysisContext::gather(snap.ep(), pub_members);
    const auto hw_ee = AnalysisContext::gather(snap.overall_score(), hw_members);
    const auto pub_ee =
        AnalysisContext::gather(snap.overall_score(), pub_members);

    row.avg_ep_delta = stats::mean(hw_ep) / stats::mean(pub_ep) - 1.0;
    row.med_ep_delta = stats::median(hw_ep) / stats::median(pub_ep) - 1.0;
    row.avg_ee_delta = stats::mean(hw_ee) / stats::mean(pub_ee) - 1.0;
    row.med_ee_delta = stats::median(hw_ee) / stats::median(pub_ee) - 1.0;
    out.rows.push_back(row);

    if (first) {
      out.min_avg_ep_delta = out.max_avg_ep_delta = row.avg_ep_delta;
      out.min_med_ep_delta = out.max_med_ep_delta = row.med_ep_delta;
      out.min_avg_ee_delta = out.max_avg_ee_delta = row.avg_ee_delta;
      out.min_med_ee_delta = out.max_med_ee_delta = row.med_ee_delta;
      first = false;
    } else {
      out.min_avg_ep_delta = std::min(out.min_avg_ep_delta, row.avg_ep_delta);
      out.max_avg_ep_delta = std::max(out.max_avg_ep_delta, row.avg_ep_delta);
      out.min_med_ep_delta = std::min(out.min_med_ep_delta, row.med_ep_delta);
      out.max_med_ep_delta = std::max(out.max_med_ep_delta, row.med_ep_delta);
      out.min_avg_ee_delta = std::min(out.min_avg_ee_delta, row.avg_ee_delta);
      out.max_avg_ee_delta = std::max(out.max_avg_ee_delta, row.avg_ee_delta);
      out.min_med_ee_delta = std::min(out.min_med_ee_delta, row.med_ee_delta);
      out.max_med_ee_delta = std::max(out.max_med_ee_delta, row.med_ee_delta);
    }
  }
  return out;
}

}  // namespace epserve::analysis
