// cluster::Fleet — the shared, immutable fleet handle every cluster
// subsystem evaluates against (paper §V.C operationalised at fleet scale).
//
// The cluster layer used to re-derive the same per-server state on every
// call: each placement evaluation rebuilt each server's power interpolation
// table, each policy batch (and the autoscaler) re-sorted the fleet by an
// efficiency score, and each subsystem (placement, day simulation,
// autoscaler, knightshift, power cap, working regions, operating guide)
// walked its own std::vector<ServerRecord> copy record by record. A Fleet is
// built once — columnar snapshot (dataset::ColumnarSnapshot) plus one cached
// PowerCurve::InterpolationTable per server and the fleet-level aggregates —
// and then shared, read-only, across every policy, slot, and thread. The
// three server orders the policies fill by are sorted at most once per
// Fleet, on first use (order_by_ee_at_full() and its siblings).
//
// Determinism contract (docs/CLUSTER.md): every column is a bitwise copy of
// the corresponding per-record computation, and the table kernel is the same
// one PowerCurve::normalized_power runs, so anything evaluated through a
// Fleet is byte-identical to the legacy record-at-a-time path (pinned by
// tests/cluster_fleet_test.cpp at fleet sizes 1/100/5000, 1 and 8 threads).
//
// Lifetime: a Fleet *views* the caller's records (like AnalysisContext views
// its repository) — it must not outlive the vector it was built from.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "dataset/columnar.h"
#include "dataset/record.h"
#include "metrics/power_curve.h"
#include "metrics/simd/kernels.h"
#include "util/aligned.h"
#include "util/result.h"

namespace epserve::dataset {
struct ScaledConfig;
}

namespace epserve::cluster {

class Fleet {
 public:
  /// Validated build: fails on an empty fleet ("fleet is empty", the same
  /// message the legacy entry points return) or on any record whose
  /// measurement sheet fails PowerCurve::validate(). Emits a `fleet.build`
  /// telemetry span and bumps the `fleet.builds` counter.
  static epserve::Result<Fleet> build(
      std::span<const dataset::ServerRecord> servers);

  /// Unvalidated adapter at the record/Fleet call boundary: wraps a record
  /// vector without curve validation, preserving the error surfaces of the
  /// pre-Fleet scalar paths (which never validated curves — evaluation
  /// still fails on an empty fleet or bad demand exactly as before).
  /// Every cluster entry point takes `const Fleet&` only; callers holding
  /// records convert once here. Prefer build() for untrusted input.
  static Fleet from_records(std::span<const dataset::ServerRecord> servers);

  /// Streaming fleet assembly for chunk-emitting generators
  /// (dataset::generate_population_chunked): append record chunks, then
  /// finish() into a fleet that OWNS its id and curve columns instead of
  /// viewing caller records. A streamed fleet never materializes a full
  /// vector<ServerRecord>; records() is empty on it, so consumers use
  /// server_id()/curve() (every placement/day-sim path does). digest() is
  /// byte-identical to a monolithic build() of the same records at any
  /// chunk size (pinned by tests/cluster_fleet_stream_test.cpp).
  class Builder {
   public:
    Builder() = default;

    /// Validates and appends one chunk; fails on the first bad curve with
    /// the same "server N: ..." error build() produces (nothing from the
    /// failing chunk is appended).
    epserve::Result<bool> append(std::span<const dataset::ServerRecord> chunk);

    [[nodiscard]] std::uint64_t rows() const { return ids_.size(); }

    /// Finishes the fleet ("fleet is empty" when nothing was appended).
    /// The builder must not be reused afterwards.
    epserve::Result<Fleet> finish();

   private:
    dataset::ColumnarSnapshot::Builder snapshot_builder_;
    std::vector<std::int32_t> ids_;
    std::vector<metrics::PowerCurve> curves_;
    std::vector<metrics::PowerCurve::InterpolationTable> tables_;
    std::vector<double> ee_at_full_;
    util::AlignedVector<double> grid_w0_;
    util::AlignedVector<double> grid_m_;
    util::AlignedVector<double> grid_inv_peak_;
    double capacity_ops_ = 0.0;
    double total_idle_watts_ = 0.0;
  };

  /// The scaled population of `config` streamed through a Builder,
  /// `chunk_rows` generator records at a time (a streamed fleet: bounded
  /// memory at any size). Fails as the generator or the first bad chunk
  /// fails.
  static epserve::Result<Fleet> generate(const dataset::ScaledConfig& config,
                                         std::size_t chunk_rows);

  [[nodiscard]] std::size_t size() const { return tables_.size(); }
  [[nodiscard]] bool empty() const { return tables_.empty(); }

  /// The viewed records (index-aligned with every column below). Empty on a
  /// streamed fleet — record-dependent consumers (logical clusters, the
  /// operating guide) require a view-built fleet; columnar consumers use
  /// server_id()/curve() and run on both.
  [[nodiscard]] std::span<const dataset::ServerRecord> records() const {
    return servers_;
  }
  [[nodiscard]] const dataset::ServerRecord& record(std::size_t i) const {
    return servers_[i];
  }

  /// Record id of server i (the placement/autoscaler ordering tiebreak).
  /// Valid on view-built and streamed fleets alike.
  [[nodiscard]] std::int32_t server_id(std::size_t i) const { return ids_[i]; }

  /// Measurement sheet of server i — the viewed record's curve, or the
  /// owned curve column on a streamed fleet.
  [[nodiscard]] const metrics::PowerCurve& curve(std::size_t i) const {
    return curves_.empty() ? servers_[i].curve : curves_[i];
  }

  /// True when built by Fleet::Builder (owns its columns; records() empty).
  [[nodiscard]] bool streamed() const { return !curves_.empty(); }

  /// The columnar snapshot backing the record/derived columns.
  [[nodiscard]] const dataset::ColumnarSnapshot& snapshot() const {
    return snapshot_;
  }

  // --- Fleet aggregates (summed in ascending server order, exactly as the
  // --- legacy per-call loops did) ------------------------------------------
  [[nodiscard]] double capacity_ops() const { return capacity_ops_; }
  [[nodiscard]] double total_idle_watts() const { return total_idle_watts_; }

  // --- Per-server columns ---------------------------------------------------
  [[nodiscard]] std::span<const double> peak_ops() const {
    return snapshot_.peak_ops();
  }
  [[nodiscard]] std::span<const double> peak_watts() const {
    return snapshot_.peak_watts();
  }
  [[nodiscard]] std::span<const double> idle_watts() const {
    return snapshot_.idle_watts();
  }
  [[nodiscard]] std::span<const double> ep() const { return snapshot_.ep(); }
  [[nodiscard]] std::span<const double> overall_score() const {
    return snapshot_.overall_score();
  }
  [[nodiscard]] std::span<const double> idle_fraction() const {
    return snapshot_.idle_fraction();
  }
  [[nodiscard]] std::span<const double> peak_ee_value() const {
    return snapshot_.peak_ee_value();
  }
  [[nodiscard]] std::span<const double> peak_ee_utilization() const {
    return snapshot_.peak_ee_utilization();
  }
  /// EE at the 100% load level (PackToFullPolicy's ordering score).
  [[nodiscard]] std::span<const double> ee_at_full() const {
    return ee_at_full_;
  }

  // --- Server orders --------------------------------------------------------
  // Each is a permutation of 0..size()-1 by one score column, descending,
  // record id breaking ties. It is sorted on the first call, exactly once
  // under std::call_once however many threads ask, and shared by every
  // later call on this Fleet or on the Fleet it is moved into. A build never
  // sorts: fleets whose orders nobody asks for (serve epochs between
  // placements, fleet-only benches) pay nothing for them.

  /// By ee_at_full() — PackToFullPolicy's fill order.
  [[nodiscard]] std::span<const std::size_t> order_by_ee_at_full() const;
  /// By peak_ee_value() — OptimalRegionPolicy's fill order.
  [[nodiscard]] std::span<const std::size_t> order_by_peak_ee_value() const;
  /// By overall_score() — the autoscaler's activation order.
  [[nodiscard]] std::span<const std::size_t> order_by_overall_score() const;

  // --- Batch power kernels --------------------------------------------------
  /// normalized_power of server `i`, evaluated against its cached table —
  /// bitwise identical to record(i).curve.normalized_power(u).
  [[nodiscard]] double normalized_power(std::size_t i, double utilization) const {
    return metrics::PowerCurve::normalized_power_from_table(tables_[i],
                                                            utilization);
  }
  /// Batched variant: out[k] = normalized_power(i, utils[k]). Dispatches
  /// through metrics::kernels::active(): the server's native-resolution grid
  /// row under the grid/SIMD variants (bitwise identical to the knot walk —
  /// docs/KERNELS.md), the pinned PowerCurve table path under
  /// kScalarReference (EPSERVE_FORCE_SCALAR=1).
  void normalized_power_batch(std::size_t i, std::span<const double> utils,
                              std::span<double> out) const;

  /// One point per server: out[i] = normalized_power(i, utils[i]) across the
  /// whole fleet — the day-sim/placement inner product, served by the
  /// fleet_batch kernel over the SoA grid columns. Both spans must have
  /// size() entries.
  void normalized_power_per_server(std::span<const double> utils,
                                   std::span<double> out) const;

  /// Blocked matrix form of normalized_power_batch — the placement batch
  /// evaluator's inner loop: for servers i0..i0+count-1,
  /// out[r * slots + d] = normalized_power(i0 + r, utils[r * slots + d]).
  /// One kernel call per block amortises dispatch across every row; same
  /// bitwise/routing contract as normalized_power_batch. Both spans must
  /// have count * slots entries.
  void normalized_power_matrix(std::size_t i0, std::size_t count,
                               std::span<const double> utils,
                               std::span<double> out,
                               std::size_t slots) const;

  /// The fleet's grid columns at native knot resolution (ten bins per
  /// server, 32-byte aligned, row i at i * kRowBins), built once at
  /// construction for the SIMD kernels.
  [[nodiscard]] metrics::kernels::FleetGridView grid_view() const;

  /// Server i's grid row as a single-curve kernel view (scale 10, the
  /// shared kRowU0 knot column).
  [[nodiscard]] metrics::kernels::GridView grid_row(std::size_t i) const;

  /// Top of each server's optimal working region at `ee_threshold` (1.0 for
  /// servers whose region is empty) — OptimalRegionPolicy's per-batch cap
  /// vector, identical to calling optimal_region() per record.
  [[nodiscard]] std::vector<double> optimal_region_tops(
      double ee_threshold) const;

  /// Deterministic FNV-1a digest of the fleet's composition (server ids and
  /// the bit patterns of the peak/idle/EP columns). Two fleets digest equal
  /// iff they evaluate identically, so the serve layer stamps it on every
  /// response: a response mixing state from two epochs would carry a digest
  /// matching neither (docs/SERVING.md, tests/serve_swap_stress_test.cpp).
  [[nodiscard]] std::uint64_t digest() const;

 private:
  // Only the named factories construct fleets.
  Fleet() = default;

  static Fleet make(std::span<const dataset::ServerRecord> servers);

  /// One lazily sorted server order.
  struct LazyOrder {
    std::once_flag once;
    std::vector<std::size_t> order;
  };
  struct LazyOrders {
    LazyOrder ee_at_full;
    LazyOrder peak_ee_value;
    LazyOrder overall_score;
  };
  std::span<const std::size_t> sorted_order(LazyOrder& lazy,
                                            std::span<const double> score) const;

  std::span<const dataset::ServerRecord> servers_;
  dataset::ColumnarSnapshot snapshot_;
  std::vector<std::int32_t> ids_;  // always populated (digest, tiebreaks)
  std::vector<metrics::PowerCurve> curves_;  // streamed fleets only
  std::vector<metrics::PowerCurve::InterpolationTable> tables_;
  std::vector<double> ee_at_full_;
  // SoA grid columns for the SIMD kernels (native knot resolution; see
  // grid_view()). Kept alongside tables_, which stays the kScalarReference
  // evaluation path and the pinned byte-identity reference.
  util::AlignedVector<double> grid_w0_;        // [size * kRowBins]
  util::AlignedVector<double> grid_m_;         // [size * kRowBins]
  util::AlignedVector<double> grid_inv_peak_;  // [size]
  double capacity_ops_ = 0.0;
  double total_idle_watts_ = 0.0;
  // Behind a pointer so the Fleet stays movable (a once_flag is not) and a
  // moved-to Fleet keeps the orders already sorted.
  std::unique_ptr<LazyOrders> orders_ = std::make_unique<LazyOrders>();
};

/// Thread-safe lazy Fleet: many threads may request the fleet concurrently,
/// the build runs exactly once under std::call_once (the same discipline as
/// AnalysisContext's memoized members; TSan-checked under `ctest -L
/// parallel`). Views the records like Fleet does.
class LazyFleet {
 public:
  explicit LazyFleet(std::span<const dataset::ServerRecord> servers)
      : servers_(servers) {}

  LazyFleet(const LazyFleet&) = delete;
  LazyFleet& operator=(const LazyFleet&) = delete;

  /// The shared build result (error if the fleet failed validation).
  const epserve::Result<Fleet>& get() const;

 private:
  std::span<const dataset::ServerRecord> servers_;
  mutable std::once_flag once_;
  mutable std::optional<epserve::Result<Fleet>> fleet_;
};

}  // namespace epserve::cluster
