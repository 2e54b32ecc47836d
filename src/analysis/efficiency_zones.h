// High-efficiency-zone analysis (paper Fig.12 discussion): the utilisation
// band where a server's EE meets or exceeds its full-load EE ("above 1.0x").
// The paper observes that higher-EP servers enter this zone earlier and hold
// a WIDER zone — "better places where the servers should keep working at".
#pragma once

#include <vector>

#include "dataset/record.h"

namespace epserve::analysis {

class AnalysisContext;

struct ZoneRow {
  int server_id = 0;
  double ep = 0.0;
  /// Lowest utilisation where normalised EE reaches 1.0 (2.0 when only the
  /// 100% point reaches it).
  double zone_start = 2.0;
  /// Width of the contiguous band [zone_start, 1.0]; 0 when the zone is the
  /// single 100% point.
  double zone_width = 0.0;
};

/// Zone of one server.
ZoneRow efficiency_zone(const dataset::ServerRecord& record);

/// Zones for the whole population, ascending by EP.
std::vector<ZoneRow> efficiency_zones(const AnalysisContext& ctx);

/// Pearson correlation between EP and zone width across the population —
/// the quantified version of the paper's "wider zones at higher EP".
double zone_width_ep_correlation(const AnalysisContext& ctx);

}  // namespace epserve::analysis
