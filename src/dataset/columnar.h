// ColumnarSnapshot: structure-of-arrays view of a population's records.
//
// Every figure/table in the paper is a group-by over the population. The
// snapshot flattens the fields the analyses touch into index-aligned
// columns, built once per repository (AnalysisContext caches one under
// std::call_once). Group-bys are permutation sorts over int32 key columns
// (dataset/group_index.h) and metric extraction is a contiguous gather, with
// no pointer chasing, per-group heap vector or per-record re-derivation.
//
// Determinism contract: the derived columns are bit-for-bit copies of the
// DerivedCurveMetrics bundle, and every grouping built on top of the snapshot
// iterates records in ascending record-index order within a group and
// ascending key order across groups — exactly the order of std::map
// group-bys over the records. Anything computed from spans + columns is
// therefore byte-identical to the map-of-views reference in
// tests/analysis_reference.h (pinned by tests/dataset_columnar_test.cpp).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "dataset/record.h"
#include "metrics/derived.h"
#include "util/aligned.h"

namespace epserve::dataset {

class ColumnarSnapshot {
 public:
  ColumnarSnapshot() = default;

  /// Hard row ceiling: grouping (dataset/group_index.h) stores uint32 record
  /// indices, so a snapshot must stay addressable by uint32.
  static constexpr std::uint64_t kMaxRows =
      std::numeric_limits<std::uint32_t>::max();

  /// Builds the snapshot of `records` with their index-aligned derived
  /// bundle (one DerivedCurveMetrics per record, e.g. AnalysisContext's
  /// memoized vector), whose fields are copied bitwise; an empty bundle is
  /// derived row by row. Records with a codename unknown to
  /// power::find_uarch() get family_id -1 (generated populations always
  /// resolve, ad-hoc record sets may not). More than kMaxRows records is a
  /// contract violation. Counts one `columnar.builds` and the row count in
  /// `columnar.rows`.
  static ColumnarSnapshot build(
      std::span<const ServerRecord> records,
      std::span<const metrics::DerivedCurveMetrics> derived = {});

  [[nodiscard]] std::size_t size() const { return hw_year_.size(); }

  // --- Record columns (index-aligned with repo.records()) -------------------
  [[nodiscard]] std::span<const std::int32_t> hw_year() const {
    return hw_year_;
  }
  [[nodiscard]] std::span<const std::int32_t> pub_year() const {
    return pub_year_;
  }
  [[nodiscard]] std::span<const std::int32_t> nodes() const { return nodes_; }
  [[nodiscard]] std::span<const std::int32_t> chips() const { return chips_; }
  /// Interned codename id (see codenames()).
  [[nodiscard]] std::span<const std::int32_t> codename_id() const {
    return codename_id_;
  }
  /// static_cast<int32>(power::UarchFamily) — ascending ids match the
  /// enum's (and so std::map<UarchFamily>'s) order.
  [[nodiscard]] std::span<const std::int32_t> family_id() const {
    return family_id_;
  }
  /// Memory per core in integer centi-GB (150 == 1.50 GB/core), rounded to
  /// nearest, so group keys compare exactly.
  [[nodiscard]] std::span<const std::int32_t> mpc_centi() const {
    return mpc_centi_;
  }

  // --- Derived columns (bitwise copies of the derived bundle) ---------------
  [[nodiscard]] std::span<const double> ep() const { return ep_; }
  [[nodiscard]] std::span<const double> overall_score() const {
    return overall_score_;
  }
  [[nodiscard]] std::span<const double> idle_fraction() const {
    return idle_fraction_;
  }
  [[nodiscard]] std::span<const double> peak_ee_value() const {
    return peak_ee_value_;
  }
  [[nodiscard]] std::span<const double> peak_ee_utilization() const {
    return peak_ee_utilization_;
  }

  // --- Codename interning ---------------------------------------------------
  /// Distinct codenames sorted ascending, so iterating codename-id groups in
  /// ascending id order matches std::map<std::string, ...> key order.
  [[nodiscard]] const std::vector<std::string>& codenames() const {
    return codenames_;
  }
  [[nodiscard]] std::string_view codename_of(std::int32_t id) const {
    return codenames_[static_cast<std::size_t>(id)];
  }

 private:
  /// fn(column) for every row column (codenames_ is not one).
  template <typename Fn>
  void for_each_row_column(Fn&& fn) {
    std::apply([&fn](auto&... column) { (fn(column), ...); },
               std::tie(hw_year_, pub_year_, nodes_, chips_, codename_id_,
                        family_id_, mpc_centi_, ep_, overall_score_,
                        idle_fraction_, peak_ee_value_,
                        peak_ee_utilization_));
  }

  // Sized once and written row by row (util/aligned.h: resize() leaves the
  // rows unwritten until the fill reaches them).
  util::AlignedVector<std::int32_t> hw_year_;
  util::AlignedVector<std::int32_t> pub_year_;
  util::AlignedVector<std::int32_t> nodes_;
  util::AlignedVector<std::int32_t> chips_;
  util::AlignedVector<std::int32_t> codename_id_;
  util::AlignedVector<std::int32_t> family_id_;
  util::AlignedVector<std::int32_t> mpc_centi_;
  util::AlignedVector<double> ep_;
  util::AlignedVector<double> overall_score_;
  util::AlignedVector<double> idle_fraction_;
  util::AlignedVector<double> peak_ee_value_;
  util::AlignedVector<double> peak_ee_utilization_;
  std::vector<std::string> codenames_;
};

}  // namespace epserve::dataset
