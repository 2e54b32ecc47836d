// Energy-proportionality-aware workload placement (paper §V.C).
//
// A fleet of heterogeneous servers must serve an aggregate demand expressed
// as a fraction of total fleet capacity. A placement policy decides each
// server's utilisation; the fleet's power is the sum of per-server powers
// read off their measured curves. The paper's claim: for a fixed number of
// racks, EP-aware placement (keep machines inside their optimal working
// region, e.g. at 70% rather than packed full) maximises throughput per watt.
//
// The engine is batch-first over a cluster::Fleet, and a placement is a
// plan, not a vector: a policy's core entry point is plan_batch(fleet,
// demands), one fill walk that leaves each demand level as a FillPlan — a
// fill point in one server order over demand-independent per-server
// columns (FillPlans). Demand-independent work happens once per Fleet:
// ordering servers by an efficiency score (its cached server orders),
// working-region caps at the default threshold, and, for the built-in
// staged policies at their defaults, the stage columns with exact prefix
// sums of every term a level reads (Fleet::staged_state,
// cluster/staged_state.h). account_batch then runs the fill walk and takes
// each level's power and ops from those prefix sums, so no levels x servers
// matrix exists on the batch path; any other staged policy builds the same
// state from its plans once per batch. place_batch and evaluate_batch
// expand the plans into utilisation vectors only for callers that want
// them. Callers holding raw std::vector<ServerRecord> data convert once at
// the call boundary via Fleet::from_records (unvalidated) or Fleet::build
// (validated) — every entry point here takes `const Fleet&` only.
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

/// A policy's placement of a batch of demand levels in the compact form a
/// fill walk produces. The walk visits servers in one fill order, stage by
/// stage; stage k raises each server it reaches from its stage k-1 value
/// (0.0 before the first stage) to full[k][i]. Under a level's plan the
/// first `filled` servers of the order sit at full[stage], the partial
/// server (if any) at the plan's utilisation, and every other server at
/// its stage-(stage-1) value. With no stages the batch is uniform: every
/// server of a level sits at its plan's utilisation. The columns do not
/// depend on demand, so a batch costs O(stages x servers) memory however
/// many levels it holds.
struct FillPlans {
  /// keys[k][i]: server i's fill-order position shifted left by two, with
  /// bit 1 set when full[k][i] is 0.0 and bit 0 when server i starts stage
  /// k at 0.0 — so one word tells whether a server sits at 0.0.
  std::vector<std::vector<std::uint64_t>> keys;
  /// full[k][i]: server i's utilisation once stage k has filled it.
  std::vector<std::vector<double>> full;
  /// One plan per demand, in demand order.
  std::vector<FillPlan> levels;

  /// One level's per-server utilisations with the plan's columns resolved
  /// once. view[i] is bitwise the value the dense greedy fill left in
  /// server i's slot of its utilisation vector.
  class LevelView {
   public:
    [[nodiscard]] double operator[](std::size_t i) const {
      if (key_ == nullptr) return utilization_;
      const std::uint64_t pos = key_[i] >> 2;
      if (pos == partial_pos_) return utilization_;
      // A pointer select, not a branch: fill order is unrelated to index
      // order, so `pos < filled_` is a coin flip in server order.
      return *(pos < filled_ ? full_ + i : base_ + (i & base_mask_));
    }

    /// view[i] == 0.0, read off server i's key alone: the parked test,
    /// one load instead of the two view[i] depends on.
    [[nodiscard]] bool zero(std::size_t i) const {
      if (key_ == nullptr) return utilization_ == 0.0;
      const std::uint64_t key = key_[i];
      const std::uint64_t pos = key >> 2;
      if (pos == partial_pos_) return utilization_ == 0.0;
      return ((pos < filled_ ? key >> 1 : key) & 1) != 0;
    }

   private:
    friend struct FillPlans;
    const std::uint64_t* key_ = nullptr;  // null: uniform
    const double* full_ = nullptr;
    const double* base_ = nullptr;        // the first stage: one shared 0.0
    std::size_t base_mask_ = 0;           // 0 for that shared 0.0, else ~0
    std::uint64_t filled_ = 0;
    std::uint64_t partial_pos_ = 0;       // filled when partial, else ~0
    double utilization_ = 0.0;
  };

  /// The view of one of this batch's plans. It points into these columns,
  /// so it is valid only while this FillPlans lives unchanged.
  [[nodiscard]] LevelView view(const FillPlan& plan) const {
    static constexpr double kZero = 0.0;
    LevelView view;
    view.utilization_ = plan.utilization;
    if (full.empty()) return view;
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

/// Placement policy interface. Each demand is the requested fraction of the
/// fleet's aggregate peak throughput, in [0, 1].
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Batch-first core: one FillPlan per demand point, placing ops summing
  /// to demand * capacity. Sort orders come once per Fleet
  /// (Fleet::order_by_*); the returned columns are this call's own. Each
  /// demand's plan is independent of the other demands in the batch.
  [[nodiscard]] virtual FillPlans plan_batch(
      const Fleet& fleet, std::span<const double> demands) const = 0;

  /// The plans expanded: one utilisation vector per demand point.
  [[nodiscard]] std::vector<std::vector<double>> place_batch(
      const Fleet& fleet, std::span<const double> demands) const;

  /// Single-demand convenience over place_batch.
  [[nodiscard]] std::vector<double> place(const Fleet& fleet,
                                          double demand) const;

 private:
  friend epserve::Result<BatchAccount> account_batch(
      const PlacementPolicy& policy, const Fleet& fleet,
      std::span<const double> demands);

  /// The Fleet-kept staged state whose columns equal this policy's
  /// plan_batch columns on every Fleet, if any: PackToFullPolicy's, and
  /// OptimalRegionPolicy's at kDefaultEeThreshold. account_batch then walks
  /// those columns instead of calling plan_batch. Every other policy has
  /// none, so a policy that forwards plan_batch to a built-in one is
  /// accounted from its own plans.
  [[nodiscard]] virtual std::optional<Fleet::StagedPolicy> staged_memo()
      const {
    return std::nullopt;
  }
};

/// Packs servers to 100% one at a time, most-efficient-at-full-load first.
class PackToFullPolicy final : public PlacementPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "pack-to-full"; }
  [[nodiscard]] FillPlans plan_batch(
      const Fleet& fleet, std::span<const double> demands) const override;

 private:
  [[nodiscard]] std::optional<Fleet::StagedPolicy> staged_memo()
      const override {
    return Fleet::StagedPolicy::kPackToFull;
  }
};

/// Spreads load uniformly: every server runs at the same utilisation.
class BalancedPolicy final : public PlacementPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "balanced"; }
  [[nodiscard]] FillPlans plan_batch(
      const Fleet& fleet, std::span<const double> demands) const override;
};

/// §V.C policy: fill servers only up to the top of their optimal working
/// region (ordered by peak EE), packing beyond it only when demand cannot
/// otherwise be met.
class OptimalRegionPolicy final : public PlacementPolicy {
 public:
  explicit OptimalRegionPolicy(double ee_threshold = kDefaultEeThreshold)
      : ee_threshold_(ee_threshold) {}
  [[nodiscard]] std::string name() const override { return "optimal-region"; }
  [[nodiscard]] FillPlans plan_batch(
      const Fleet& fleet, std::span<const double> demands) const override;

 private:
  [[nodiscard]] std::optional<Fleet::StagedPolicy> staged_memo()
      const override {
    if (ee_threshold_ != kDefaultEeThreshold) return std::nullopt;
    return Fleet::StagedPolicy::kOptimalRegion;
  }

  double ee_threshold_;
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
  /// the Fleet's own for a built-in staged policy at its defaults, else
  /// built from this batch's plans. Null for a uniform batch. It may view
  /// the Fleet's server order, so read it only while the Fleet lives.
  std::shared_ptr<const StagedState> staged;
  /// One plan per demand, in demand order: fill points over
  /// staged->columns(), or a uniform level's utilisation.
  std::vector<FillPlan> levels;
  std::vector<Assignment> totals;
};

/// The one batch accounting routine, behind evaluate_batch, evaluate,
/// simulate_day and max_throughput_under_cap. A staged batch's levels come
/// from the fill walk over its staged state, which a built-in staged policy
/// reads from the Fleet and any other builds from one plan_batch call; each
/// level's totals are prefix sums of that state plus its partial server.
/// A uniform batch evaluates every (server, level) point into exact
/// per-level sums (cluster/lane_sums.h). Each total is the exact sum of
/// its per-server terms, so per-demand totals do not depend on the rest of
/// the batch. Fails as evaluate_batch does, and with "policy returned a
/// misaligned batch" when the plans do not fit the fleet and the demands
/// or their keys do not encode one fill order shared by every stage.
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
