// Economies-of-scale analyses (paper §III.E, Fig.13-15): EP/EE by node count
// for multi-node servers, by chip count for single-node servers, and the
// 2-chip-vs-all per-year comparison.
#pragma once

#include <cstddef>
#include <vector>

#include "stats/descriptive.h"

namespace epserve::analysis {

class AnalysisContext;

/// One Fig.13/Fig.14 bar group.
struct ScaleRow {
  int key = 0;  // node count or chip count
  std::size_t count = 0;
  stats::Summary ep;
  stats::Summary score;
};

/// Fig.13: multi-node and single-node rows keyed by node count (1 included
/// for reference).
std::vector<ScaleRow> ep_ee_by_nodes(const AnalysisContext& ctx);

/// Fig.14: single-node servers keyed by chips (1/2/4/8).
std::vector<ScaleRow> ep_ee_by_chips(const AnalysisContext& ctx);

/// Fig.15: 2-chip single-node servers vs all servers, averaged over the
/// per-hardware-year relative differences (the paper reports +2.94% EP and
/// +4.13% EE on averages; +1.18% / +6.26% on medians).
struct TwoChipComparison {
  double avg_ep_gain = 0.0;     // relative gain of 2-chip avg EP vs all
  double avg_ee_gain = 0.0;
  double median_ep_gain = 0.0;
  double median_ee_gain = 0.0;
  /// Per-year rows for the Fig.15 chart.
  struct YearRow {
    int year = 0;
    std::size_t two_chip_count = 0;
    std::size_t all_count = 0;
    double two_chip_avg_ep = 0.0, all_avg_ep = 0.0;
    double two_chip_avg_ee = 0.0, all_avg_ee = 0.0;
    double two_chip_med_ep = 0.0, all_med_ep = 0.0;
    double two_chip_med_ee = 0.0, all_med_ee = 0.0;
  };
  std::vector<YearRow> years;
};

TwoChipComparison two_chip_vs_all(const AnalysisContext& ctx);

}  // namespace epserve::analysis
