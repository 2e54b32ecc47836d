// Energy-proportionality-aware workload placement (paper §V.C).
//
// A fleet of heterogeneous servers must serve an aggregate demand expressed
// as a fraction of total fleet capacity. A placement policy decides each
// server's utilisation; the fleet's power is the sum of per-server powers
// read off their measured curves. The paper's claim: for a fixed number of
// racks, EP-aware placement (keep machines inside their optimal working
// region, e.g. at 70% rather than packed full) maximises throughput per watt.
//
// The engine is batch-first over a cluster::Fleet: a policy's core entry
// point is place_batch(fleet, demands), so demand-independent work happens
// once, not once per demand point — ordering servers by an efficiency score
// once per Fleet (its cached server orders), computing working-region caps
// once per batch — and all power accounting runs through the fleet's grid
// rows. Callers holding raw
// std::vector<ServerRecord> data convert once at the call boundary via
// Fleet::from_records (unvalidated) or Fleet::build (validated) — every
// entry point here takes `const Fleet&` only, and the results are
// byte-identical to the pre-Fleet record-at-a-time implementations
// (pinned by tests/cluster_fleet_test.cpp).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/fleet.h"
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

/// Placement policy interface. Each demand is the requested fraction of the
/// fleet's aggregate peak throughput, in [0, 1].
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Batch-first core: one utilisation vector (ops summing to
  /// demand * capacity) per demand point. Demand-independent state is
  /// computed once: sort orders once per Fleet (Fleet::order_by_*), region
  /// caps once per batch. Each demand's vector is independent of the other
  /// demands in the batch.
  [[nodiscard]] virtual std::vector<std::vector<double>> place_batch(
      const Fleet& fleet, std::span<const double> demands) const = 0;

  /// Single-demand convenience over place_batch.
  [[nodiscard]] std::vector<double> place(const Fleet& fleet,
                                          double demand) const;
};

/// Packs servers to 100% one at a time, most-efficient-at-full-load first.
class PackToFullPolicy final : public PlacementPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "pack-to-full"; }
  [[nodiscard]] std::vector<std::vector<double>> place_batch(
      const Fleet& fleet, std::span<const double> demands) const override;
};

/// Spreads load uniformly: every server runs at the same utilisation.
class BalancedPolicy final : public PlacementPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "balanced"; }
  [[nodiscard]] std::vector<std::vector<double>> place_batch(
      const Fleet& fleet, std::span<const double> demands) const override;
};

/// §V.C policy: fill servers only up to the top of their optimal working
/// region (ordered by peak EE), packing beyond it only when demand cannot
/// otherwise be met.
class OptimalRegionPolicy final : public PlacementPolicy {
 public:
  explicit OptimalRegionPolicy(double ee_threshold = 0.95)
      : ee_threshold_(ee_threshold) {}
  [[nodiscard]] std::string name() const override { return "optimal-region"; }
  [[nodiscard]] std::vector<std::vector<double>> place_batch(
      const Fleet& fleet, std::span<const double> demands) const override;

 private:
  double ee_threshold_;
};

/// Evaluates a policy: computes utilisations, per-curve powers (linear
/// interpolation on the measured sheets; active idle at utilisation 0) and
/// the achieved throughput. Fails if the fleet is empty or demand is out of
/// [0, 1].
epserve::Result<Assignment> evaluate(const PlacementPolicy& policy,
                                     const Fleet& fleet, double demand);

/// Evaluates a policy at many demand points in one call: one place_batch for
/// the placement, then server-major power accounting through the fleet's
/// grid rows (one lookup pass per server for the whole sweep). Per-slot results are bit-identical to calling evaluate()
/// per demand.
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
