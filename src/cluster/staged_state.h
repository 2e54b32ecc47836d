// The demand-independent half of a staged placement batch, and the one
// routine that accounts a staged level from it.
//
// A staged policy (pack-to-full, optimal-region) fills servers in one fill
// order, stage by stage (FillPlans, cluster/placement.h). Only the fill
// points depend on demand. The stage columns, the fill order, the fill
// positions that hold an out-of-range value, and every power and ops term a
// level can read are fixed by the Fleet and the policy. A StagedState holds
// them, with the exact prefix sums (util::ExactSum) of each value column's
// power and ops terms at every kSnapshotStride-th fill position. A level's
// totals are then a few prefix snapshots plus at most kSnapshotStride / 2
// terms re-evaluated at each ragged end, through Fleet::normalized_power.
// Exact sums make that the same value as adding every term.
//
// The Fleet keeps one StagedState per staged policy (Fleet::staged_state),
// built on first use; every staged batch walks and accounts that one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/placement.h"
#include "util/exact_sum.h"
#include "util/result.h"

namespace epserve::cluster {

/// A utilisation no level may hold: outside [0, 1] by more than rounding,
/// or NaN.
inline bool outside_unit_range(double u) {
  return !(u >= -1e-9 && u <= 1.0 + 1e-9);
}

/// What a staged fill walks: the fill order and each stage's caps.
struct Stages {
  /// order[pos] is the server at fill position pos.
  std::span<const std::size_t> order;
  /// caps[k][i] is server i's cap in stage k; an empty span caps every
  /// server at 1.0.
  std::vector<std::span<const double>> caps;
};

/// A staged policy's stages on `fleet` (placement.cpp): its Fleet-sorted
/// order, and OptimalRegionPolicy's default-threshold tops.
Stages stages_of(const Fleet& fleet, Fleet::StagedPolicy policy);

// The one fill walk, behind pack-to-full and optimal-region. For each
// demand it places demand * capacity ops by visiting servers in the fill
// order, stage by stage: stage k raises each server from its stage k-1
// value toward its stage-k cap (a server with no headroom is skipped),
// taking min(headroom ops, remaining ops), and a stage after the first runs
// only while ops remain. A stage therefore ends at a fill point: every
// server before it full, at most one partial, the rest untouched; and a
// later stage starts from every server at its previous full value. Each
// full value and partial utilisation is `base + take / peak_ops` with the
// greedy fill's operands, so the plans expand to its vectors bit for bit.
// The full values do not depend on demand (a StagedState's columns); the
// fill points do (walk_levels).

/// The fill walk over a StagedState's columns: one plan per demand.
std::vector<FillPlan> walk_levels(const Fleet& fleet, const Stages& stages,
                                  const FillPlans& columns,
                                  std::span<const double> demands);

class StagedState {
 public:
  /// Fill positions between prefix snapshots.
  static constexpr std::size_t kSnapshotStride = 512;

  /// The state of a fill by `stages`: its stage columns (FillPlans::full
  /// and keys), and its order as a view, which must outlive the state (the
  /// Fleet's orders do). Emits one `staged_state.build` span and counts
  /// `staged_state.builds`.
  static std::shared_ptr<const StagedState> build(const Fleet& fleet,
                                                  const Stages& stages);

  /// The stage columns; view() a level's plan through them.
  [[nodiscard]] const FillPlans& columns() const { return columns_; }
  /// order()[pos] is the server at fill position pos.
  [[nodiscard]] std::span<const std::size_t> order() const { return order_; }

  /// One level's power and ops totals, each the exact sum of the terms of
  /// every server at its plan's value: the fill order's first `filled`
  /// positions at full[stage], the partial server at its utilisation, the
  /// rest at the stage's base. Fails with "policy produced utilisation
  /// outside [0,1]" when the level reads a value outside [-1e-9, 1 + 1e-9]
  /// (NaN included).
  [[nodiscard]] std::optional<Error> account(const Fleet& fleet,
                                             const FillPlan& plan,
                                             Assignment& totals) const;

 private:
  StagedState() = default;

  /// Everything past the columns and the order: the out-of-range positions
  /// and the prefix snapshots.
  void index(const Fleet& fleet);

  /// A power and an ops sum.
  struct Sums {
    util::ExactSum power;
    util::ExactSum ops;

    void merge(const Sums& other) {
      power.merge(other.power);
      ops.merge(other.ops);
    }
  };

  /// Value column j's utilisation at server i as summed: 0.0 for column 0
  /// (every server before the first stage) and for an out-of-range value
  /// (no level reading it is accounted), else full[j - 1][i] clamped.
  [[nodiscard]] double summed(std::size_t j, std::size_t i) const;
  /// Adds column j's terms at fill positions [lo, hi) to `sums`.
  void add_terms(const Fleet& fleet, std::size_t j, std::size_t lo,
                 std::size_t hi, Sums& sums) const;
  /// Adds column j's prefix sum over positions [0, x) to `plus`, from the
  /// nearest snapshot: the terms between it and x go to `plus` when x lies
  /// above it and to `minus` when below.
  void fold_prefix(const Fleet& fleet, std::size_t j, std::size_t x,
                   Sums& plus, Sums& minus) const;
  [[nodiscard]] const Sums& snapshot(std::size_t j, std::size_t m) const {
    return snapshots_[j * (snapshot_count_ + 1) + m];
  }

  FillPlans columns_;
  std::span<const std::size_t> order_;
  /// Snapshots per column past the one at position 0: snapshot m of column
  /// j sums positions [0, min(m * kSnapshotStride, servers)).
  std::size_t snapshot_count_ = 0;
  std::vector<Sums> snapshots_;
  /// Per value column: the first fill position holding an out-of-range
  /// value (servers when none), and one past the last (0 when none).
  std::vector<std::size_t> first_bad_;
  std::vector<std::size_t> bad_end_;
};

}  // namespace epserve::cluster
