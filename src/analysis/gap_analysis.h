// Per-level proportionality-gap analysis (related work §VI: Wong &
// Annavaram observed that even as overall EP improved, servers at LOW
// utilisation still run far above proportional power — the "proportionality
// gap" concentrates below ~40% load).
#pragma once

#include <array>
#include <vector>

#include "metrics/load_level.h"

namespace epserve::analysis {

class AnalysisContext;

/// Mean signed gap (normalised power minus utilisation) at each measured
/// level, plus utilisation 0 (== mean idle fraction), for one era.
struct GapProfile {
  int from_year = 0;
  int to_year = 0;
  std::size_t servers = 0;
  /// index 0 = utilisation 0 (idle), 1..10 = the ten load levels.
  std::array<double, metrics::kNumLoadLevels + 1> mean_gap{};
};

GapProfile gap_profile(const AnalysisContext& ctx, int from_year,
                       int to_year);

/// The utilisation below which the mean gap exceeds `threshold` for an era
/// (the "poorly proportional region"). Returns 0 when even idle is under
/// the threshold.
double poorly_proportional_below(const GapProfile& profile, double threshold);

}  // namespace epserve::analysis
