#include "analysis/efficiency_zones.h"

#include <algorithm>

#include "analysis/context.h"
#include "metrics/efficiency.h"
#include "metrics/proportionality.h"
#include "stats/correlation.h"

namespace epserve::analysis {

namespace {

/// Zone of one server whose EP is already known.
ZoneRow zone_of(const dataset::ServerRecord& record, double ep) {
  ZoneRow row;
  row.server_id = record.id;
  row.ep = ep;
  const double start =
      metrics::utilization_reaching_normalized_ee(record.curve, 1.0);
  row.zone_start = start;
  row.zone_width = start <= 1.0 ? 1.0 - start : 0.0;
  return row;
}

}  // namespace

ZoneRow efficiency_zone(const dataset::ServerRecord& record) {
  return zone_of(record, metrics::energy_proportionality(record.curve));
}

std::vector<ZoneRow> efficiency_zones(const AnalysisContext& ctx) {
  const auto& records = ctx.repo().records();
  const auto ep = ctx.columnar().ep();
  std::vector<ZoneRow> rows;
  rows.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    rows.push_back(zone_of(records[i], ep[i]));
  }
  std::sort(rows.begin(), rows.end(),
            [](const ZoneRow& a, const ZoneRow& b) { return a.ep < b.ep; });
  return rows;
}

double zone_width_ep_correlation(const AnalysisContext& ctx) {
  const auto& records = ctx.repo().records();
  const auto ep = ctx.columnar().ep();
  std::vector<double> widths;
  widths.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    widths.push_back(zone_of(records[i], ep[i]).zone_width);
  }
  return stats::pearson(ep, widths);
}

}  // namespace epserve::analysis
