#include "analysis/counterfactual.h"

#include <algorithm>

#include "analysis/context.h"
#include "analysis/uarch_analysis.h"

namespace epserve::analysis {

Result<CounterfactualResult> frozen_mix_counterfactual(
    const AnalysisContext& ctx, const std::string& reference_codename,
    int from_year, int to_year) {
  if (from_year > to_year) {
    return Error::invalid_argument("year range inverted");
  }
  const auto& snap = ctx.columnar();
  const auto& names = snap.codenames();  // sorted, so id == rank
  const auto found =
      std::lower_bound(names.begin(), names.end(), reference_codename);
  if (found == names.end() || *found != reference_codename) {
    return Error::not_found("reference codename not in population: " +
                            reference_codename);
  }
  const std::vector<double> codename_mean = codename_mean_ep(ctx);
  const double reference_mean =
      codename_mean[static_cast<std::size_t>(found - names.begin())];

  CounterfactualResult result;
  result.reference_codename = reference_codename;
  const auto ep = snap.ep();
  const auto codename_id = snap.codename_id();
  const auto& years =
      ctx.groups_by_year(dataset::YearKey::kHardwareAvailability);
  for (std::size_t g = 0; g < years.group_count(); ++g) {
    const int year = years.key(g);
    if (year < from_year || year > to_year) continue;
    const auto members = years.members(g);
    CounterfactualRow row;
    row.year = year;
    row.count = members.size();
    double actual = 0.0;
    double counterfactual = 0.0;
    for (const std::uint32_t i : members) {
      actual += ep[i];
      const double residual =
          ep[i] - codename_mean[static_cast<std::size_t>(codename_id[i])];
      counterfactual += reference_mean + residual;
    }
    row.actual_mean_ep = actual / static_cast<double>(members.size());
    row.counterfactual_mean_ep =
        counterfactual / static_cast<double>(members.size());
    result.rows.push_back(row);
  }
  if (result.rows.empty()) {
    return Error::not_found("no servers in the requested year range");
  }

  result.dip_removed = true;
  const double baseline = result.rows.front().counterfactual_mean_ep;
  for (const auto& row : result.rows) {
    if (row.count < 10) continue;  // thin years carry outlier residue
    if (row.counterfactual_mean_ep < baseline - 0.01) {
      result.dip_removed = false;
    }
  }
  return result;
}

}  // namespace epserve::analysis
