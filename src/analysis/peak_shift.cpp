#include "analysis/peak_shift.h"

#include "analysis/context.h"
#include "metrics/efficiency.h"
#include "util/contracts.h"

namespace epserve::analysis {

std::vector<YearSpots> peak_spot_by_year(
    const dataset::ResultRepository& repo) {
  std::map<int, YearSpots> by_year;
  for (const auto& r : repo.records()) {
    auto& row = by_year[r.hw_year];
    row.year = r.hw_year;
    row.servers += 1;
    for (const auto level : metrics::peak_ee(r.curve).levels) {
      row.spots[metrics::kLoadLevels[level]] += 1;
    }
  }
  std::vector<YearSpots> out;
  out.reserve(by_year.size());
  for (auto& [year, row] : by_year) out.push_back(std::move(row));
  return out;
}

std::map<double, double> global_spot_shares(
    const dataset::ResultRepository& repo) {
  EPSERVE_EXPECTS(repo.size() > 0);
  std::map<double, double> shares;
  for (const auto& r : repo.records()) {
    for (const auto level : metrics::peak_ee(r.curve).levels) {
      shares[metrics::kLoadLevels[level]] += 1.0;
    }
  }
  for (auto& [spot, count] : shares) {
    count /= static_cast<double>(repo.size());
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

std::size_t total_spots(const dataset::ResultRepository& repo) {
  std::size_t spots = 0;
  for (const auto& r : repo.records()) {
    spots += metrics::peak_ee(r.curve).levels.size();
  }
  return spots;
}

}  // namespace epserve::analysis
