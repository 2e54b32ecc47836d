#include "dataset/columnar.h"

#include <cmath>
#include <map>

#include "power/uarch.h"
#include "util/contracts.h"
#include "util/telemetry.h"

namespace epserve::dataset {

ColumnarSnapshot ColumnarSnapshot::build(
    std::span<const ServerRecord> records,
    std::span<const metrics::DerivedCurveMetrics> derived) {
  EPSERVE_EXPECTS(records.size() <= kMaxRows);
  EPSERVE_EXPECTS(derived.empty() || derived.size() == records.size());
  telemetry::count("columnar.builds");
  telemetry::count("columnar.rows", records.size());

  // Every distinct codename's id is its position in sorted order, so
  // ascending id order is std::map<std::string> key order.
  // power::find_uarch() runs once per codename; generated and imported
  // populations always resolve, ad-hoc record sets (synthetic test servers,
  // external records) may not, and get family_id -1.
  std::map<std::string_view, std::int32_t> ids;
  for (const ServerRecord& r : records) ids.try_emplace(r.cpu_codename, 0);
  ColumnarSnapshot snap;
  std::vector<std::int32_t> families;
  snap.codenames_.reserve(ids.size());
  families.reserve(ids.size());
  for (auto& [name, id] : ids) {
    id = static_cast<std::int32_t>(snap.codenames_.size());
    snap.codenames_.emplace_back(name);
    const auto* info = power::find_uarch(name);
    families.push_back(info != nullptr ? static_cast<std::int32_t>(info->family)
                                       : -1);
  }

  const std::size_t rows = records.size();
  snap.for_each_row_column([rows](auto& column) { column.resize(rows); });
  for (std::size_t i = 0; i < rows; ++i) {
    const ServerRecord& r = records[i];
    snap.hw_year_[i] = r.hw_year;
    snap.pub_year_[i] = r.pub_year;
    snap.nodes_[i] = r.nodes;
    snap.chips_[i] = r.chips;
    const std::int32_t id = ids.find(r.cpu_codename)->second;
    snap.codename_id_[i] = id;
    snap.family_id_[i] = families[static_cast<std::size_t>(id)];
    snap.mpc_centi_[i] =
        static_cast<std::int32_t>(std::lround(r.memory_per_core() * 100.0));
    metrics::DerivedCurveMetrics derived_here;
    const metrics::DerivedCurveMetrics& bundle =
        derived.empty()
            ? (derived_here = metrics::derive_curve_metrics(r.curve))
            : derived[i];
    snap.ep_[i] = bundle.ep;
    snap.overall_score_[i] = bundle.overall_score;
    snap.idle_fraction_[i] = bundle.idle_fraction;
    snap.peak_ee_value_[i] = bundle.peak_ee.value;
    snap.peak_ee_utilization_[i] = bundle.peak_ee_utilization;
  }
  return snap;
}

}  // namespace epserve::dataset
