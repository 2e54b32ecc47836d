// Related-work metric comparison (paper §VI).
//
// Hsu & Poole [16] compare a range of proportionality metrics (EP, LD, IPR,
// dynamic range); Wong [41] claims highly proportional servers typically
// peak around 60% utilisation, which the paper rebuts with the published
// distribution (69.25% peak at 100%, only ~2% at 60%). This module measures
// both: how strongly the alternative metrics agree with EP in ranking
// servers, and the peak-EE location statistics per EP tier.
#pragma once

#include <vector>

#include "stats/descriptive.h"

namespace epserve::analysis {

class AnalysisContext;

/// Rank agreement of each companion metric against Eq.1 EP.
struct MetricAgreement {
  /// Kendall tau-a of server rankings vs EP. Sign-adjusted so that
  /// "agreement" is positive (IPR correlates negatively by construction).
  double ld_vs_ep = 0.0;   // linear deviation (lower LD = higher EP)
  double ipr_vs_ep = 0.0;  // idle power ratio (lower IPR = higher EP)
  double dr_vs_ep = 0.0;   // dynamic range (higher DR = higher EP)
  double gap_vs_ep = 0.0;  // max proportionality gap (lower = higher EP)
};

MetricAgreement metric_agreement(const AnalysisContext& ctx);

/// Wong's-claim check: peak-EE utilisation statistics per EP quartile.
struct EpTierPeakRow {
  int quartile = 0;  // 1 = lowest EP quartile .. 4 = highest
  std::size_t count = 0;
  double mean_ep = 0.0;
  double mean_peak_utilization = 0.0;
  double share_at_full_load = 0.0;
  double share_at_60 = 0.0;
};

std::vector<EpTierPeakRow> peak_location_by_ep_tier(
    const AnalysisContext& ctx);

/// Share of all servers peaking at ~60% utilisation (Wong [41] says this is
/// typical for highly proportional machines; the paper measures 1.88%
/// (Fig.16), and this population's share is 2.10%).
double share_peaking_at_60(const AnalysisContext& ctx);

}  // namespace epserve::analysis
