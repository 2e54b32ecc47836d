// cluster::Fleet — the shared, immutable fleet handle every cluster
// subsystem evaluates against (paper §V.C operationalised at fleet scale).
//
// The cluster layer used to re-derive the same per-server state on every
// call: each placement evaluation rebuilt each server's power interpolation
// table, each policy batch (and the autoscaler) re-sorted the fleet by an
// efficiency score, and each subsystem (placement, day simulation,
// autoscaler, power cap, working regions, operating guide) walked its own
// std::vector<ServerRecord> copy record by record. A Fleet is built once —
// ids and ops rows, the seven per-server columns the cluster layer reads,
// one native-resolution grid row per server and the fleet-level aggregates —
// and then shared, read-only, across every policy, slot, and thread. The
// three server orders the policies fill by are sorted at most once per
// Fleet, on first use (order_by_ee_at_full() and its siblings), and so are
// the two staged policies' stage columns and prefix sums (staged_state()):
// a staged batch then costs its fill walk and its levels. Threads share a
// built Fleet by const reference; what it builds lazily is built once,
// under std::call_once.
//
// Every Fleet owns its columns, whichever factory built it: build(),
// from_records(), generate() and Fleet::Builder all write each row through
// the Builder's one row routine, so a Fleet may outlive the records it was
// built from. A chunk of at least Builder::kParallelRows rows is filled in
// index blocks on a pool of resolve_thread_count(0) lanes, and generate()
// fills every row in one such pass; every row is written once, by one
// lane, so the columns do not depend on the thread count. Each power sheet
// is stored once: curve(i) is rebuilt from the grid row, the peak-watts
// column and a per-server ops row.
//
// Determinism contract (docs/CLUSTER.md): every column is a bitwise copy of
// the corresponding per-record computation (the derived ones from one
// metrics::derive_curve_metrics call per row, as the analysis snapshot
// derives them), and a grid row holds the
// server's knot watts and slopes, so every power lookup runs the knot-walk
// expression of PowerCurve::normalized_power on the same doubles. Every
// fleet-wide total is the correctly rounded exact sum of the legacy
// per-server terms (util::ExactSum), so no total depends on the order its
// terms are visited in (pinned by tests/cluster_fleet_test.cpp against a
// test-local exact sum at fleet sizes 1/100/5000, 1 and 8 threads).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "dataset/record.h"
#include "metrics/power_curve.h"
#include "metrics/simd/kernels.h"
#include "util/aligned.h"
#include "util/exact_sum.h"
#include "util/result.h"

namespace epserve::dataset {
struct ScaledConfig;
}

namespace epserve::cluster {

class StagedState;  // cluster/staged_state.h

class Fleet {
 public:
  /// Validated build: fails on an empty fleet ("fleet is empty", the same
  /// message the legacy entry points return) or on any record whose
  /// measurement sheet fails PowerCurve::validate(). Emits a `fleet.build`
  /// telemetry span and bumps the `fleet.builds` counter.
  static epserve::Result<Fleet> build(
      std::span<const dataset::ServerRecord> servers);

  /// Unvalidated adapter at the record/Fleet call boundary: copies a record
  /// span without curve validation, preserving the error surfaces of the
  /// pre-Fleet scalar paths (which never validated curves — evaluation
  /// still fails on an empty fleet or bad demand exactly as before). Accepts
  /// an empty span. Every cluster entry point takes `const Fleet&` only;
  /// callers holding records convert once here. Prefer build() for
  /// untrusted input.
  static Fleet from_records(std::span<const dataset::ServerRecord> servers);

  /// Chunked fleet assembly, for chunk-emitting generators
  /// (dataset::generate_population_chunked) that never materialize a full
  /// vector<ServerRecord>: append record chunks, then finish(). Its row
  /// routine is the one behind every factory, so every column is
  /// byte-identical to a one-chunk build() of the same records at any chunk
  /// size (pinned by tests/cluster_fleet_stream_test.cpp).
  class Builder;

  /// The scaled population of `config` generated straight into the
  /// columns: one dataset::ScaledSampler, every row's curve drawn, checked
  /// by PowerCurve::validate() and written in one pass of 2048-row blocks
  /// on resolve_thread_count(config.threads) lanes, with no ServerRecord
  /// built. Every column equals build() of
  /// dataset::generate_scaled_population(config) bit for bit. Fails before
  /// any column is sized as ScaledSampler::create() fails, with "fleet is
  /// empty" at zero servers, and otherwise as the lowest-indexed server
  /// whose curve fails to synthesize or to validate ("server N: ...").
  /// Opens one `fleet.generate` span.
  static epserve::Result<Fleet> generate(const dataset::ScaledConfig& config);

  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  [[nodiscard]] bool empty() const { return ids_.empty(); }

  /// Record id of server i (the placement/autoscaler ordering tiebreak).
  [[nodiscard]] std::int32_t server_id(std::size_t i) const { return ids_[i]; }

  /// Measurement sheet of server i, rebuilt by value bit for bit: idle and
  /// 10-90% watts from its grid row, 100% watts from peak_watts(), ops from
  /// its ops row.
  [[nodiscard]] metrics::PowerCurve curve(std::size_t i) const;

  // --- Fleet aggregates (the correctly rounded exact sums of the per-server
  // --- peak ops and idle watts, util::ExactSum: independent of row order and
  // --- chunking) ------------------------------------------------------------
  [[nodiscard]] double capacity_ops() const { return capacity_ops_; }
  [[nodiscard]] double total_idle_watts() const { return total_idle_watts_; }

  // --- Per-server columns ---------------------------------------------------
  [[nodiscard]] std::span<const double> peak_ops() const { return peak_ops_; }
  [[nodiscard]] std::span<const double> peak_watts() const {
    return peak_watts_;
  }
  [[nodiscard]] std::span<const double> idle_watts() const {
    return idle_watts_;
  }
  [[nodiscard]] std::span<const double> ep() const { return ep_; }
  [[nodiscard]] std::span<const double> overall_score() const {
    return overall_score_;
  }
  [[nodiscard]] std::span<const double> peak_ee_value() const {
    return peak_ee_value_;
  }
  [[nodiscard]] std::span<const double> peak_ee_utilization() const {
    return peak_ee_utilization_;
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
  // placements, fleet-only benches) pay nothing for them. The sort is a
  // radix sort on a prefix of each score's bits, each run of equal
  // prefixes then settled by the comparison above (one `fleet.sort_order`
  // span per order).

  /// By ee_at_full() — PackToFullPolicy's fill order.
  [[nodiscard]] std::span<const std::size_t> order_by_ee_at_full() const;
  /// By peak_ee_value() — OptimalRegionPolicy's fill order.
  [[nodiscard]] std::span<const std::size_t> order_by_peak_ee_value() const;
  /// By overall_score() — the autoscaler's activation order.
  [[nodiscard]] std::span<const std::size_t> order_by_overall_score() const;

  // --- Batch power kernels --------------------------------------------------
  // Every lookup reads server i's grid row, the fleet's one power table, and
  // is bitwise identical to curve(i).normalized_power(u) (docs/KERNELS.md).
  // Every utilisation must be in [0, 1]; violations raise ContractViolation.
  // Two shapes, one per kind of caller: a point (cluster::evaluate, the
  // serve daemon) and a block of rows (account_batch and the autoscaler,
  // through the row_matrix kernel; with slots = 1 it takes one point per
  // server).

  /// normalized_power of server `i` at one utilisation, the shared scalar
  /// expression with no kernel-table call.
  [[nodiscard]] double normalized_power(std::size_t i, double utilization) const;

  /// Blocked matrix form — the batch accounting's inner loop: for servers
  /// i0..i0+count-1, out[r * slots + d] = normalized_power(i0 + r,
  /// utils[r * slots + d]), through the kernel set
  /// metrics::kernels::active() selects. One kernel call per block
  /// amortises dispatch across every row. Both spans must have
  /// count * slots entries.
  void normalized_power_matrix(std::size_t i0, std::size_t count,
                               std::span<const double> utils,
                               std::span<double> out,
                               std::size_t slots) const;

  /// The fleet's grid columns at native knot resolution (ten bins per
  /// server, 32-byte aligned, row i at i * kRowBins): each row is the
  /// server's InterpolationTable knot watts and slopes, copied bit for bit.
  [[nodiscard]] metrics::kernels::FleetGridView grid_view() const;

  /// Top of each server's optimal working region at kDefaultEeThreshold (1.0
  /// for servers whose region is empty), identical to calling
  /// optimal_region() per record: OptimalRegionPolicy's stage-1 caps.
  /// Computed on the first call, exactly once under std::call_once, and kept
  /// like the server orders (shared by every later call, moved with the
  /// Fleet).
  [[nodiscard]] std::span<const double> default_optimal_region_tops() const;

  // --- Staged-policy state --------------------------------------------------

  /// The staged placement policies, whose demand-independent state the
  /// Fleet keeps: PackToFullPolicy and OptimalRegionPolicy.
  enum class StagedPolicy { kPackToFull, kOptimalRegion };

  /// That policy's stage columns, fill order and exact prefix sums
  /// (cluster/staged_state.h), built on the first call per policy, exactly
  /// once under std::call_once however many threads ask, and kept like the
  /// server orders (the same pointer for every later call, moved with the
  /// Fleet). Every staged batch on this Fleet walks and accounts it.
  [[nodiscard]] std::shared_ptr<const StagedState> staged_state(
      StagedPolicy policy) const;

  /// Deterministic FNV-1a digest of the fleet's composition: its size, the
  /// server ids and the bit patterns of the peak_ops, peak_watts,
  /// idle_watts and ep columns. Nothing else is hashed: two fleets that
  /// differ only in a 10-90% watts or ops value digest equal yet evaluate
  /// differently. Unequal digests do tell two fleets apart, and the serve
  /// layer stamps the digest beside its epoch on every response; the epoch
  /// is what tells two snapshots apart (docs/SERVING.md,
  /// tests/serve_swap_stress_test.cpp). Not cached: each call rehashes every
  /// column, so callers that stamp it repeatedly keep the value
  /// (serve::FleetState, the exp runner).
  [[nodiscard]] std::uint64_t digest() const;

 private:
  // Only the named factories and the Builder construct fleets.
  Fleet() = default;

  /// One lazily sorted server order.
  struct LazyOrder {
    std::once_flag once;
    std::vector<std::size_t> order;
  };
  struct LazyStaged {
    std::once_flag once;
    std::shared_ptr<const StagedState> state;
  };
  struct LazyOrders {
    LazyOrder ee_at_full;
    LazyOrder peak_ee_value;
    LazyOrder overall_score;
    std::once_flag default_tops_once;
    std::vector<double> default_tops;
    LazyStaged staged[2];  // by StagedPolicy
  };
  std::span<const std::size_t> sorted_order(LazyOrder& lazy,
                                            std::span<const double> score) const;
  /// fn(column, values per server) for every per-server column, so the
  /// Builder sizes them together (defined in fleet.cpp, its one user).
  template <typename Fn>
  void for_each_column(Fn&& fn);

  // Sized once per chunk (once for generate()), each row written by the
  // lane that fills it.
  util::AlignedVector<std::int32_t> ids_;
  util::AlignedVector<double> ops_;  // [size * kNumLoadLevels]
  util::AlignedVector<double> peak_ops_;
  util::AlignedVector<double> peak_watts_;
  util::AlignedVector<double> idle_watts_;
  util::AlignedVector<double> ep_;
  util::AlignedVector<double> overall_score_;
  util::AlignedVector<double> peak_ee_value_;
  util::AlignedVector<double> peak_ee_utilization_;
  util::AlignedVector<double> ee_at_full_;
  // SoA grid columns (native knot resolution; see grid_view()).
  util::AlignedVector<double> grid_w0_;        // [size * kRowBins]
  util::AlignedVector<double> grid_m_;         // [size * kRowBins]
  util::AlignedVector<double> grid_inv_peak_;  // [size]
  double capacity_ops_ = 0.0;
  double total_idle_watts_ = 0.0;
  // Behind a pointer so the Fleet stays movable (a once_flag is not) and a
  // moved-to Fleet keeps the orders already sorted, the tops computed and
  // the staged state built.
  std::unique_ptr<LazyOrders> orders_ = std::make_unique<LazyOrders>();
};

class Fleet::Builder {
 public:
  Builder() = default;

  /// Validates and appends one chunk; fails on the lowest-indexed bad curve
  /// with the same "server N: ..." error build() produces (nothing from the
  /// failing chunk is appended).
  epserve::Result<bool> append(std::span<const dataset::ServerRecord> chunk);

  [[nodiscard]] std::uint64_t rows() const { return fleet_.size(); }

  /// Finishes the fleet ("fleet is empty" when nothing was appended),
  /// under one `fleet.build` span. The builder must not be reused
  /// afterwards.
  epserve::Result<Fleet> finish();

 private:
  friend class Fleet;

  /// Smallest chunk filled on resolve_thread_count(0) lanes, started for
  /// that chunk. Smaller chunks (a serve epoch's 2000 rows, the 477-row
  /// report population, small generator chunks) stay on the calling
  /// thread, where starting lanes would cost more than they save.
  static constexpr std::size_t kParallelRows = 8192;

  /// One fill block's terms of the fleet aggregates, merged into the
  /// builder's exact sums after the pass (exact, so in any order).
  struct Totals {
    util::ExactSum capacity_ops;
    util::ExactSum idle_watts;
  };

  /// Under one `fleet.append` span: validates `chunk` when asked (the
  /// lowest bad index wins, nothing is appended), then sizes every column
  /// once and fills the chunk in index blocks through write_row(), on lanes
  /// when it is large enough.
  epserve::Result<bool> append_rows(
      std::span<const dataset::ServerRecord> chunk, bool validate);
  /// Sizes every column for `rows` rows in all.
  void resize(std::size_t rows);
  /// The one row routine: writes row `i` of every column from `curve` and
  /// adds its aggregate terms to its block's `totals`.
  void write_row(std::size_t i, std::int32_t id,
                 const metrics::PowerCurve& curve, Totals& totals);
  /// Merges the blocks' totals into the builder's exact sums.
  void merge(std::span<const Totals> totals);
  /// Moves the finished fleet out and counts it; no checks, no span.
  Fleet take();

  Fleet fleet_;
  util::ExactSum capacity_ops_;
  util::ExactSum idle_watts_;
};

}  // namespace epserve::cluster
