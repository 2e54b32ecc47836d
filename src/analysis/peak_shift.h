// Peak-EE utilisation-spot analysis (paper §IV.A, Fig.16): where servers
// achieve their peak energy efficiency, per year and per era.
#pragma once

#include <map>
#include <vector>

namespace epserve::analysis {

class AnalysisContext;

/// Per-year distribution of peak-EE utilisation spots. Spot counts include
/// ties (a server peaking at two levels contributes two spots — the paper's
/// 478 spots over 477 servers).
struct YearSpots {
  int year = 0;
  std::size_t servers = 0;
  std::map<double, std::size_t> spots;  // utilisation -> spot count
};

std::vector<YearSpots> peak_spot_by_year(const AnalysisContext& ctx);

/// Population-wide spot shares (denominator = server count, matching the
/// paper's "69.25% of 477 servers" phrasing).
std::map<double, double> global_spot_shares(const AnalysisContext& ctx);

/// Share of servers peaking at 100% utilisation within [from, to]; the
/// window must hold at least one server.
double share_peaking_at_full_load(const AnalysisContext& ctx, int from_year,
                                  int to_year);

/// Total spot count (477 servers -> 478 with the 2011 dual-peak machine).
std::size_t total_spots(const AnalysisContext& ctx);

}  // namespace epserve::analysis
