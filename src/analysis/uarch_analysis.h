// Microarchitecture grouping analyses (paper Fig.6-8): server counts per
// family, mean EP per codename, and the 2012-2016 per-year family mix that
// explains the "specious stagnation" of EP in 2013-2014.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "power/uarch.h"

namespace epserve::analysis {

class AnalysisContext;

/// Fig.6 row: family and its population count.
struct FamilyCount {
  power::UarchFamily family;
  std::size_t count = 0;
};

/// Sorted descending by count.
std::vector<FamilyCount> family_counts(const AnalysisContext& ctx);

/// Fig.7 row: codename, count, and mean EP.
struct CodenameEp {
  std::string codename;
  std::size_t count = 0;
  double mean_ep = 0.0;
  double median_ep = 0.0;
};

/// Sorted descending by mean EP.
std::vector<CodenameEp> codename_ep_ranking(const AnalysisContext& ctx);

/// Mean EP of each codename over the whole population, indexed by the
/// context's interned codename id (ColumnarSnapshot::codename_id).
std::vector<double> codename_mean_ep(const AnalysisContext& ctx);

/// Fig.8: per-year codename composition for 2012-2016 (counts per codename).
std::map<int, std::map<std::string, std::size_t>> yearly_codename_mix(
    const AnalysisContext& ctx, int from_year = 2012, int to_year = 2016);

/// §III.B: the average EP a year would have had, had its servers carried the
/// previous year's mean codename EPs — the mix-shift decomposition backing
/// the paper's claim that the 2013-2014 dip is a composition effect.
struct MixShift {
  int year = 0;
  double actual_mean_ep = 0.0;
  /// Mean EP of the year's servers predicted purely from per-codename global
  /// means (composition effect only).
  double composition_predicted_ep = 0.0;
};

std::vector<MixShift> composition_decomposition(const AnalysisContext& ctx,
                                               int from_year, int to_year);

}  // namespace epserve::analysis
