#include "analysis/peak_shift.h"

#include "analysis/context.h"
#include "metrics/load_level.h"
#include "util/contracts.h"

namespace epserve::analysis {

std::vector<YearSpots> peak_spot_by_year(const AnalysisContext& ctx) {
  const auto& derived = ctx.derived();
  const auto& years =
      ctx.groups_by_year(dataset::YearKey::kHardwareAvailability);
  std::vector<YearSpots> out;
  out.reserve(years.group_count());
  for (std::size_t g = 0; g < years.group_count(); ++g) {
    const auto members = years.members(g);
    YearSpots row;
    row.year = years.key(g);
    row.servers = members.size();
    for (const std::uint32_t i : members) {
      for (const auto level : derived[i].peak_ee.levels) {
        row.spots[metrics::kLoadLevels[level]] += 1;
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

std::map<double, double> global_spot_shares(const AnalysisContext& ctx) {
  EPSERVE_EXPECTS(ctx.size() > 0);
  std::map<double, double> shares;
  for (const auto& bundle : ctx.derived()) {
    for (const auto level : bundle.peak_ee.levels) {
      shares[metrics::kLoadLevels[level]] += 1.0;
    }
  }
  for (auto& [spot, count] : shares) {
    count /= static_cast<double>(ctx.size());
  }
  return shares;
}

double share_peaking_at_full_load(const AnalysisContext& ctx, int from_year,
                                  int to_year) {
  // Hot path: two flat column scans, no record structs touched.
  const auto& snap = ctx.columnar();
  const auto years = snap.hw_year();
  const auto spots = snap.peak_ee_utilization();
  std::size_t total = 0;
  std::size_t at_full = 0;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    if (years[i] < from_year || years[i] > to_year) continue;
    ++total;
    if (spots[i] == 1.0) ++at_full;
  }
  EPSERVE_EXPECTS(total > 0);
  return static_cast<double>(at_full) / static_cast<double>(total);
}

std::size_t total_spots(const AnalysisContext& ctx) {
  std::size_t spots = 0;
  for (const auto& bundle : ctx.derived()) {
    spots += bundle.peak_ee.levels.size();
  }
  return spots;
}

}  // namespace epserve::analysis
