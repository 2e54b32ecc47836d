#include "dataset/columnar.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "power/uarch.h"
#include "util/contracts.h"
#include "util/telemetry.h"

namespace epserve::dataset {

namespace {

/// Largest row count any builder has reached since process start — the
/// `columnar.peak_rows` gauge. A plain atomic max: the gauge answers "how
/// big did snapshots get" across every build in the process.
std::atomic<std::uint64_t> g_peak_rows{0};

void note_rows(std::uint64_t rows) {
  std::uint64_t prev = g_peak_rows.load(std::memory_order_relaxed);
  while (prev < rows && !g_peak_rows.compare_exchange_weak(
                            prev, rows, std::memory_order_relaxed)) {
  }
  telemetry::gauge_set("columnar.peak_rows",
                       g_peak_rows.load(std::memory_order_relaxed));
}

}  // namespace

ColumnarSnapshot::Builder::Builder(std::uint64_t max_rows)
    : max_rows_(max_rows) {
  EPSERVE_EXPECTS(max_rows <= kMaxRows);
}

epserve::Result<bool> ColumnarSnapshot::Builder::append(
    std::span<const ServerRecord> records,
    std::span<const metrics::DerivedCurveMetrics> derived) {
  EPSERVE_EXPECTS(!finished_);
  EPSERVE_EXPECTS(derived.empty() || derived.size() == records.size());
  if (records.size() > max_rows_ - rows_) {
    return Error::out_of_range(
        "columnar snapshot rows would exceed the uint32 index ceiling: " +
        std::to_string(rows_) + " + " + std::to_string(records.size()) +
        " > " + std::to_string(max_rows_));
  }
  telemetry::count("columnar.chunk_builds");
  telemetry::count("columnar.rows", records.size());

  const auto first = static_cast<std::size_t>(rows_);
  const std::size_t rows = first + records.size();
  snap_.for_each_row_column([rows](auto& column) { column.resize(rows); });
  for (std::size_t k = 0; k < records.size(); ++k) {
    const ServerRecord& r = records[k];
    const std::size_t i = first + k;
    snap_.hw_year_[i] = r.hw_year;
    snap_.pub_year_[i] = r.pub_year;
    snap_.nodes_[i] = r.nodes;
    snap_.chips_[i] = r.chips;
    snap_.total_cores_[i] = r.total_cores();
    // finish() remaps the provisional (first-seen) ids onto the sorted id
    // space.
    const auto [it, inserted] = provisional_ids_.try_emplace(
        r.cpu_codename, static_cast<std::int32_t>(snap_.codenames_.size()));
    if (inserted) {
      snap_.codenames_.push_back(r.cpu_codename);
      // Generated/imported populations always resolve; ad-hoc record sets
      // (synthetic test servers, external records) may not — mark as
      // unknown.
      const auto* info = power::find_uarch(r.cpu_codename);
      provisional_families_.push_back(
          info != nullptr ? static_cast<std::int32_t>(info->family) : -1);
    }
    snap_.codename_id_[i] = it->second;
    snap_.family_id_[i] =
        provisional_families_[static_cast<std::size_t>(it->second)];
    snap_.mpc_centi_[i] =
        static_cast<std::int32_t>(std::lround(r.memory_per_core() * 100.0));
    snap_.memory_per_core_[i] = r.memory_per_core();
    snap_.idle_watts_[i] = r.curve.idle_watts();
    snap_.peak_watts_[i] = r.curve.peak_watts();
    snap_.peak_ops_[i] = r.curve.peak_ops();
    metrics::DerivedCurveMetrics derived_here;
    const metrics::DerivedCurveMetrics& bundle =
        derived.empty()
            ? (derived_here = metrics::derive_curve_metrics(r.curve))
            : derived[k];
    snap_.ep_[i] = bundle.ep;
    snap_.overall_score_[i] = bundle.overall_score;
    snap_.idle_fraction_[i] = bundle.idle_fraction;
    snap_.peak_ee_value_[i] = bundle.peak_ee.value;
    snap_.peak_ee_utilization_[i] = bundle.peak_ee_utilization;
  }
  rows_ += records.size();
  note_rows(rows_);
  return true;
}

ColumnarSnapshot ColumnarSnapshot::Builder::finish() {
  EPSERVE_EXPECTS(!finished_);
  finished_ = true;

  // Remap provisional (first-seen) codename ids onto the sorted-unique id
  // space: id order == lexicographic order, matching std::map key order —
  // the same interning the one-shot build produces.
  std::vector<std::string> sorted = snap_.codenames_;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::int32_t> remap(snap_.codenames_.size());
  for (std::size_t provisional = 0; provisional < snap_.codenames_.size();
       ++provisional) {
    const auto lo = std::lower_bound(sorted.begin(), sorted.end(),
                                     snap_.codenames_[provisional]);
    remap[provisional] = static_cast<std::int32_t>(lo - sorted.begin());
  }
  for (auto& id : snap_.codename_id_) {
    id = remap[static_cast<std::size_t>(id)];
  }
  snap_.codenames_ = std::move(sorted);
  snap_.codenames_.shrink_to_fit();
  provisional_ids_.clear();
  provisional_families_.clear();
  return std::move(snap_);
}

ColumnarSnapshot ColumnarSnapshot::build(
    std::span<const ServerRecord> records,
    std::span<const metrics::DerivedCurveMetrics> derived) {
  Builder builder;
  // A span can never exceed the uint32 ceiling in one chunk on supported
  // populations; the contract check keeps the wrapper infallible.
  const auto appended = builder.append(records, derived);
  EPSERVE_EXPECTS(appended.ok());
  return builder.finish();
}

}  // namespace epserve::dataset
