// AnalysisContext: the shared, memoized view of one population that every
// analysis reads. The paper's §III/§IV analyses all slice the same record
// store (dataset::ResultRepository) by year/family/codename/topology and
// read the same per-record metrics (EP, overall score, idle fraction, peak
// EE); the context computes each of those intermediates lazily, exactly
// once, and hands out const references. It is the one query path: each
// analysis takes the context as its only entry point
// (`f(const AnalysisContext&)`).
//
// Caching rules (docs/ANALYSIS_PASSES.md):
//  * every cache entry is a pure function of the (immutable) repository, so
//    a cached value is byte-identical to a from-scratch computation — the
//    equivalence against the map-based reference in
//    tests/analysis_reference.h is pinned field-for-field by the `report`
//    and `columnar` test labels;
//  * initialisation is guarded by std::call_once per entry, so concurrent
//    passes on the parallel report dispatch may race to *trigger* a build
//    but exactly one build ever runs (TSan-checked under the `report` label);
//  * the context never mutates the repository and holds it by reference —
//    it must not outlive the repository it wraps.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "dataset/columnar.h"
#include "dataset/group_index.h"
#include "dataset/repository.h"
#include "metrics/derived.h"
#include "util/telemetry.h"

namespace epserve::analysis {

class AnalysisContext {
 public:
  explicit AnalysisContext(const dataset::ResultRepository& repo)
      : repo_(repo) {}

  AnalysisContext(const AnalysisContext&) = delete;
  AnalysisContext& operator=(const AnalysisContext&) = delete;

  [[nodiscard]] const dataset::ResultRepository& repo() const { return repo_; }
  [[nodiscard]] std::size_t size() const { return repo_.size(); }

  /// Index-aligned per-record derived metrics (derived()[i] belongs to
  /// repo().records()[i]); built on first use.
  [[nodiscard]] const std::vector<metrics::DerivedCurveMetrics>& derived()
      const;

  /// Columnar (SoA) snapshot of the repository: flat index-aligned columns
  /// for the record fields and the derived metrics. The derived columns are
  /// bitwise copies of derived(), so anything computed from them matches the
  /// record-at-a-time path exactly. Built once on first use.
  [[nodiscard]] const dataset::ColumnarSnapshot& columnar() const;

  /// Span-based groupings over the snapshot's key columns — the path every
  /// analysis iterates. Groups appear in ascending key order and group
  /// members in ascending record-index order, i.e. exactly the iteration
  /// order of std::map group-bys over the records (pinned against the map
  /// reference by the columnar equivalence suite). Each index is built once
  /// under std::call_once.
  [[nodiscard]] const dataset::GroupIndex& groups_by_year(
      dataset::YearKey key) const;
  [[nodiscard]] const dataset::GroupIndex& groups_by_family() const;
  [[nodiscard]] const dataset::GroupIndex& groups_by_codename() const;
  [[nodiscard]] const dataset::GroupIndex& groups_by_nodes() const;
  [[nodiscard]] const dataset::GroupIndex& groups_single_node_by_chips() const;
  [[nodiscard]] const dataset::GroupIndex& groups_by_mpc() const;

  /// Gathers column[i] for each member index, in member order.
  static std::vector<double> gather(std::span<const double> column,
                                    std::span<const std::uint32_t> members);

  /// Memoized top-decile sets: the ceil(10%) records with the highest cached
  /// EP / overall score, ties broken by record id.
  [[nodiscard]] const dataset::RecordView& top_ep_decile() const;
  [[nodiscard]] const dataset::RecordView& top_score_decile() const;

  /// How many times each lazy initialiser has actually run — the
  /// exactly-once guarantee the memoization tests assert on.
  struct CacheStats {
    int derived_builds = 0;     // per-record metric bundle
    int decile_builds = 0;      // top-decile sets
    int columnar_builds = 0;    // the SoA snapshot
    int group_index_builds = 0; // all span-based group indexes combined
  };
  [[nodiscard]] CacheStats cache_stats() const;

 private:
  template <typename T>
  struct Lazy {
    std::once_flag once;
    T value;
  };

  /// Shared memoization path: builds `slot` exactly once via `build`, bumps
  /// the matching CacheStats counter, and (when telemetry is enabled)
  /// records `<member>.hits` / `<member>.misses` counters plus a
  /// `<member>.build` timer. A "miss" is the one call that ran the build, so
  /// hit/miss totals are deterministic at any thread count even when
  /// concurrent passes race to trigger the same entry.
  template <typename T, typename BuildFn>
  const T& memoize(Lazy<T>& slot, std::string_view member,
                   std::atomic<int>& builds, BuildFn&& build) const {
    bool built_here = false;
    std::call_once(slot.once, [&] {
      const telemetry::ScopedTimer build_timer(member, ".build");
      slot.value = build();
      builds.fetch_add(1, std::memory_order_relaxed);
      built_here = true;
    });
    telemetry::count_cache(member, !built_here);
    return slot.value;
  }

  const dataset::ResultRepository& repo_;

  mutable Lazy<std::vector<metrics::DerivedCurveMetrics>> derived_;
  mutable Lazy<dataset::ColumnarSnapshot> columnar_;
  mutable Lazy<dataset::GroupIndex> groups_hw_year_;
  mutable Lazy<dataset::GroupIndex> groups_pub_year_;
  mutable Lazy<dataset::GroupIndex> groups_family_;
  mutable Lazy<dataset::GroupIndex> groups_codename_;
  mutable Lazy<dataset::GroupIndex> groups_nodes_;
  mutable Lazy<dataset::GroupIndex> groups_chips_;
  mutable Lazy<dataset::GroupIndex> groups_mpc_;
  mutable Lazy<dataset::RecordView> top_ep_;
  mutable Lazy<dataset::RecordView> top_score_;

  mutable std::atomic<int> derived_builds_{0};
  mutable std::atomic<int> decile_builds_{0};
  mutable std::atomic<int> columnar_builds_{0};
  mutable std::atomic<int> group_index_builds_{0};
};

}  // namespace epserve::analysis
