// Per-year EP/EE trend statistics (paper Fig.2-4), under either date key —
// the hardware-availability re-keying is the paper's methodological point.
#pragma once

#include <vector>

#include "dataset/repository.h"
#include "stats/descriptive.h"
#include "util/result.h"

namespace epserve::analysis {

class AnalysisContext;

/// One row of the Fig.3/Fig.4 statistics tables.
struct YearTrendRow {
  int year = 0;
  std::size_t count = 0;
  stats::Summary ep;        // energy proportionality (Eq.1)
  stats::Summary score;     // overall ssj_ops/watt
  stats::Summary peak_ee;   // peak per-level EE
};

/// Rows ascending by year; empty years are absent.
std::vector<YearTrendRow> year_trends(
    const AnalysisContext& ctx,
    dataset::YearKey key = dataset::YearKey::kHardwareAvailability);

/// The paper's §III.A jump metric: relative change of the average EP from
/// `from_year` to `to_year`. Returns kNotFound when either year is absent
/// from the rows (small or filtered populations) and kFailedPrecondition
/// when the source year's mean EP is not positive.
Result<double> ep_jump(const std::vector<YearTrendRow>& rows, int from_year,
                       int to_year);

}  // namespace epserve::analysis
