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
#include <unordered_map>
#include <vector>

#include "dataset/record.h"
#include "metrics/derived.h"
#include "util/aligned.h"
#include "util/result.h"

namespace epserve::dataset {

class ColumnarSnapshot {
 public:
  ColumnarSnapshot() = default;

  /// Hard row ceiling: grouping (dataset/group_index.h) stores uint32 record
  /// indices, so a snapshot must stay addressable by uint32.
  static constexpr std::uint64_t kMaxRows =
      std::numeric_limits<std::uint32_t>::max();

  /// Streaming builder: append record chunks, finalize interning at the end.
  /// Peak memory is the columns plus one caller-held chunk — no full
  /// vector<ServerRecord> materialization. The finished snapshot is
  /// byte-identical to a one-shot build() over the concatenated records,
  /// whatever the chunk boundaries (codename ids are provisional first-seen
  /// ids during appends and are remapped onto the sorted-unique id space in
  /// finish()). Emits `columnar.chunk_builds` / `columnar.rows` counters per
  /// append and maintains the `columnar.peak_rows` gauge (the largest row
  /// count any builder has reached since process start). Defined after the
  /// enclosing class — it holds the snapshot under construction by value.
  class Builder;

  /// One-chunk build over `records` with their index-aligned derived bundle
  /// (one DerivedCurveMetrics per record, e.g. AnalysisContext's memoized
  /// vector), whose fields are copied bitwise; an empty bundle is derived
  /// row by row. Records with a codename unknown to power::find_uarch() get
  /// family_id -1 (generated populations always resolve, ad-hoc record sets
  /// may not).
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
  [[nodiscard]] std::span<const std::int32_t> total_cores() const {
    return total_cores_;
  }
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
  [[nodiscard]] std::span<const double> memory_per_core() const {
    return memory_per_core_;
  }
  [[nodiscard]] std::span<const double> idle_watts() const {
    return idle_watts_;
  }
  [[nodiscard]] std::span<const double> peak_watts() const {
    return peak_watts_;
  }
  [[nodiscard]] std::span<const double> peak_ops() const { return peak_ops_; }

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
               std::tie(hw_year_, pub_year_, nodes_, chips_, total_cores_,
                        codename_id_, family_id_, mpc_centi_, memory_per_core_,
                        idle_watts_, peak_watts_, peak_ops_, ep_,
                        overall_score_, idle_fraction_, peak_ee_value_,
                        peak_ee_utilization_));
  }

  // Sized once per chunk and written row by row (util/aligned.h: resize()
  // leaves the rows unwritten until the fill reaches them).
  util::AlignedVector<std::int32_t> hw_year_;
  util::AlignedVector<std::int32_t> pub_year_;
  util::AlignedVector<std::int32_t> nodes_;
  util::AlignedVector<std::int32_t> chips_;
  util::AlignedVector<std::int32_t> total_cores_;
  util::AlignedVector<std::int32_t> codename_id_;
  util::AlignedVector<std::int32_t> family_id_;
  util::AlignedVector<std::int32_t> mpc_centi_;
  util::AlignedVector<double> memory_per_core_;
  util::AlignedVector<double> idle_watts_;
  util::AlignedVector<double> peak_watts_;
  util::AlignedVector<double> peak_ops_;
  util::AlignedVector<double> ep_;
  util::AlignedVector<double> overall_score_;
  util::AlignedVector<double> idle_fraction_;
  util::AlignedVector<double> peak_ee_value_;
  util::AlignedVector<double> peak_ee_utilization_;
  std::vector<std::string> codenames_;
};

class ColumnarSnapshot::Builder {
 public:
  /// `max_rows` is a test seam for the uint32 index guard; the default is
  /// the real kMaxRows ceiling. Must not exceed kMaxRows.
  explicit Builder(std::uint64_t max_rows = kMaxRows);

  /// Appends a chunk with its index-aligned derived slice; an empty slice
  /// means each row's bundle is derived in place. Sizes every column for the
  /// chunk once, then fills it row by row; a codename's provisional id is
  /// its first-seen position in the whole stream. Fails with a named
  /// out-of-range error (nothing appended) when the chunk would push the
  /// snapshot past the row ceiling.
  epserve::Result<bool> append(
      std::span<const ServerRecord> records,
      std::span<const metrics::DerivedCurveMetrics> derived = {});

  [[nodiscard]] std::uint64_t rows() const { return rows_; }

  /// Finalizes codename interning and returns the snapshot. The builder
  /// must not be reused afterwards.
  [[nodiscard]] ColumnarSnapshot finish();

 private:
  ColumnarSnapshot snap_;
  std::unordered_map<std::string, std::int32_t> provisional_ids_;
  /// family_id per provisional codename id: power::find_uarch() runs once
  /// per distinct codename.
  std::vector<std::int32_t> provisional_families_;
  std::uint64_t rows_ = 0;
  std::uint64_t max_rows_ = kMaxRows;
  bool finished_ = false;
};

}  // namespace epserve::dataset
