// Energy-proportionality-aware workload placement (paper §V.C).
//
// A fleet of heterogeneous servers must serve an aggregate demand expressed
// as a fraction of total fleet capacity. A placement policy decides each
// server's utilisation; the fleet's power is the sum of per-server powers
// read off their measured curves. The paper's claim: for a fixed number of
// racks, EP-aware placement (keep machines inside their optimal working
// region, e.g. at 70% rather than packed full) maximises throughput per watt.
//
// The policy set is closed: the paper's three placements, each at its
// defaults — pack servers full, spread load evenly, and keep each server
// inside its optimal working region at kDefaultEeThreshold. The engine is
// batch-first over a cluster::Fleet, and a placement is a plan, not a
// vector. A staged policy (pack-to-full, optimal-region) leaves each demand
// level as a FillPlan — a fill point in one server order over
// demand-independent per-server stage columns (FillPlans) — and balanced
// leaves each as one uniform utilisation. Demand-independent work happens
// once per Fleet: the server orders, the working-region tops at the
// default threshold, and each staged policy's stage columns with exact
// prefix sums of every term a level reads (Fleet::staged_state,
// cluster/staged_state.h). A batch then costs the fill walk over those
// columns, and account_batch takes each level's power and ops from their
// prefix sums, so no levels x servers matrix exists on the batch path.
// place_batch and evaluate_batch expand the plans into utilisation vectors
// only for callers that want them. Callers holding raw
// std::vector<ServerRecord> data convert once at the call boundary via
// Fleet::from_records (unvalidated) or Fleet::build (validated) — every
// entry point here takes `const Fleet&` only.
//
// Summation contract (docs/CLUSTER.md): every total here is the correctly
// rounded exact sum (util::ExactSum) of the pre-Fleet record-at-a-time
// per-server terms, so no total depends on the order its terms are
// visited in. Utilisations are bitwise the dense greedy fill's
// (tests/placement_property_test.cpp), and totals equal test-local exact
// sums of the scalar terms (tests/cluster_fleet_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/working_region.h"
#include "dataset/record.h"
#include "util/result.h"

namespace epserve::cluster {

/// Fleet assignment: one utilisation per server, aligned with the fleet.
struct Assignment {
  std::vector<double> utilization;
  double total_power_watts = 0.0;
  double total_ops = 0.0;

  [[nodiscard]] double efficiency() const {
    return total_power_watts > 0.0 ? total_ops / total_power_watts : 0.0;
  }
};

/// One demand level's placement as the fill walk leaves it, without a
/// per-server vector: which stage the walk ended in, how far it got, and
/// the one server it left part-filled (see FillPlans).
struct FillPlan {
  /// The walk's last stage for this level (index into FillPlans::full).
  std::size_t stage = 0;
  /// Servers at fill-order positions [0, filled) sit at their full value.
  std::size_t filled = 0;
  /// The server at position `filled` holds `utilization`: the walk leaves
  /// at most one partial server per level, and it is the last one visited.
  bool partial = false;
  /// The partial server's utilisation; in a uniform batch, every server's.
  double utilization = 0.0;
};

/// A staged policy's stage columns, the demand-independent half of its
/// placements. The fill walk visits servers in one fill order, stage by
/// stage; stage k raises each server it reaches from its stage k-1 value
/// (0.0 before the first stage) to full[k][i]. Under a level's plan the
/// first `filled` servers of the order sit at full[stage], the partial
/// server (if any) at the plan's utilisation, and every other server at
/// its stage-(stage-1) value. The columns do not depend on demand, so the
/// Fleet keeps one set per staged policy (StagedState) and a batch adds
/// only its levels' fill points.
struct FillPlans {
  /// keys[k][i]: server i's fill-order position shifted left by two, with
  /// bit 1 set when full[k][i] is 0.0 and bit 0 when server i starts stage
  /// k at 0.0 — so one word tells whether a server sits at 0.0.
  std::vector<std::vector<std::uint64_t>> keys;
  /// full[k][i]: server i's utilisation once stage k has filled it.
  std::vector<std::vector<double>> full;

  /// One level's per-server utilisations with the plan's columns resolved
  /// once. view[i] is bitwise the value the dense greedy fill left in
  /// server i's slot of its utilisation vector.
  class LevelView {
   public:
    [[nodiscard]] double operator[](std::size_t i) const {
      const std::uint64_t pos = key_[i] >> 2;
      if (pos == partial_pos_) return utilization_;
      // A pointer select, not a branch: fill order is unrelated to index
      // order, so `pos < filled_` is a coin flip in server order.
      return *(pos < filled_ ? full_ + i : base_ + (i & base_mask_));
    }

    /// view[i] == 0.0, read off server i's key alone: the parked test,
    /// one load instead of the two view[i] depends on.
    [[nodiscard]] bool zero(std::size_t i) const {
      const std::uint64_t key = key_[i];
      const std::uint64_t pos = key >> 2;
      if (pos == partial_pos_) return utilization_ == 0.0;
      return ((pos < filled_ ? key >> 1 : key) & 1) != 0;
    }

   private:
    friend struct FillPlans;
    const std::uint64_t* key_ = nullptr;
    const double* full_ = nullptr;
    const double* base_ = nullptr;        // the first stage: one shared 0.0
    std::size_t base_mask_ = 0;           // 0 for that shared 0.0, else ~0
    std::uint64_t filled_ = 0;
    std::uint64_t partial_pos_ = 0;       // filled when partial, else ~0
    double utilization_ = 0.0;
  };

  /// The view of one plan over these columns, which must hold the plan's
  /// stage (a StagedState's hold one or two). It points into them, so it
  /// is valid only while this FillPlans lives unchanged.
  [[nodiscard]] LevelView view(const FillPlan& plan) const {
    static constexpr double kZero = 0.0;
    LevelView view;
    view.utilization_ = plan.utilization;
    view.key_ = keys[plan.stage].data();
    view.full_ = full[plan.stage].data();
    view.base_ = plan.stage == 0 ? &kZero : full[plan.stage - 1].data();
    view.base_mask_ = plan.stage == 0 ? 0 : ~std::size_t{0};
    view.filled_ = plan.filled;
    view.partial_pos_ = plan.partial ? plan.filled : ~std::uint64_t{0};
    return view;
  }
};

struct BatchAccount;

/// A placement policy: one of the three below, each at its defaults. Each
/// demand is the requested fraction of the fleet's aggregate peak
/// throughput, in [0, 1].
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  PlacementPolicy(const PlacementPolicy&) = default;
  PlacementPolicy& operator=(const PlacementPolicy&) = default;
  PlacementPolicy(PlacementPolicy&&) = default;
  PlacementPolicy& operator=(PlacementPolicy&&) = default;

  /// "pack-to-full", "balanced" or "optimal-region".
  [[nodiscard]] std::string name() const;

  /// One utilisation vector per demand point, placing ops summing to
  /// demand * capacity. Each demand's placement is independent of the
  /// other demands in the batch. A staged policy walks the Fleet's kept
  /// staged state, which the first call on a Fleet builds.
  [[nodiscard]] std::vector<std::vector<double>> place_batch(
      const Fleet& fleet, std::span<const double> demands) const;

 private:
  friend class PackToFullPolicy;
  friend class BalancedPolicy;
  friend class OptimalRegionPolicy;
  friend epserve::Result<BatchAccount> account_batch(
      const PlacementPolicy& policy, const Fleet& fleet,
      std::span<const double> demands);

  explicit PlacementPolicy(std::optional<Fleet::StagedPolicy> staged)
      : staged_(staged) {}

  /// The batch's plans, with no totals: the fill walk over the Fleet's
  /// kept staged state for a staged policy, else each demand as one
  /// uniform level.
  [[nodiscard]] BatchAccount plan(const Fleet& fleet,
                                  std::span<const double> demands) const;

  /// Which of the Fleet's kept staged states the policy walks; empty for
  /// balanced.
  std::optional<Fleet::StagedPolicy> staged_;
};

/// Packs servers to 100% one at a time, most-efficient-at-full-load first.
class PackToFullPolicy final : public PlacementPolicy {
 public:
  PackToFullPolicy() : PlacementPolicy(Fleet::StagedPolicy::kPackToFull) {}
};

/// Spreads load uniformly: every server runs at the same utilisation.
class BalancedPolicy final : public PlacementPolicy {
 public:
  BalancedPolicy() : PlacementPolicy(std::nullopt) {}
};

/// §V.C policy: fill servers only up to the top of their optimal working
/// region at kDefaultEeThreshold (ordered by peak EE), packing beyond it
/// only when demand cannot otherwise be met.
class OptimalRegionPolicy final : public PlacementPolicy {
 public:
  OptimalRegionPolicy()
      : PlacementPolicy(Fleet::StagedPolicy::kOptimalRegion) {}
};

/// Evaluates a policy at one demand: evaluate_batch over that demand, so
/// utilisations, per-curve powers (linear interpolation on the measured
/// sheets; active idle at utilisation 0) and the achieved throughput, each
/// total the exact sum of its per-server terms. Fails if the fleet is
/// empty or demand is out of [0, 1].
epserve::Result<Assignment> evaluate(const PlacementPolicy& policy,
                                     const Fleet& fleet, double demand);

/// A batch's plans and each plan's fleet totals; the Assignments carry
/// total_power_watts and total_ops with empty utilisation vectors.
struct BatchAccount {
  /// A staged batch's stage columns and fill order (cluster/staged_state.h):
  /// the Fleet's kept state for the policy. Null for a uniform batch. It
  /// views the Fleet's server order, so read it only while the Fleet lives.
  std::shared_ptr<const StagedState> staged;
  /// One plan per demand, in demand order: fill points over
  /// staged->columns(), or a uniform level's utilisation.
  std::vector<FillPlan> levels;
  std::vector<Assignment> totals;
};

/// The one batch accounting routine, behind evaluate_batch, evaluate,
/// simulate_day and max_throughput_under_cap. A staged batch's levels come
/// from the fill walk over the Fleet's kept staged state, and each level's
/// totals are prefix sums of that state plus its partial server. A uniform
/// batch evaluates every (server, level) point into exact per-level sums
/// (cluster/lane_sums.h). Each total is the exact sum of its per-server
/// terms, so per-demand totals do not depend on the rest of the batch.
/// Fails if the fleet is empty or a demand is out of [0, 1], and with
/// "policy produced utilisation outside [0,1]" when a level reads a
/// server value outside it (StagedState::account).
epserve::Result<BatchAccount> account_batch(const PlacementPolicy& policy,
                                            const Fleet& fleet,
                                            std::span<const double> demands);

/// Evaluates a policy at many demand points in one call: account_batch's
/// totals, with each plan expanded into its utilisation vector.
epserve::Result<std::vector<Assignment>> evaluate_batch(
    const PlacementPolicy& policy, const Fleet& fleet,
    std::span<const double> demands);

/// Policy lookup by wire/CLI name ("pack-to-full", "balanced",
/// "optimal-region"): the one place a policy string becomes a policy object
/// (used by the serve daemon's place/powercap requests). kNotFound lists
/// the valid names on a miss.
epserve::Result<std::unique_ptr<PlacementPolicy>> make_placement_policy(
    std::string_view name);

/// Aggregate fleet power at a fleet-wide demand under a policy — evaluated
/// at the eleven SPECpower points this library uses everywhere — exposed as
/// a PowerCurve so cluster-wide EP (Eq.1) applies directly.
epserve::Result<metrics::PowerCurve> cluster_power_curve(
    const PlacementPolicy& policy, const Fleet& fleet);

}  // namespace epserve::cluster
