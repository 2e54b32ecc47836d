// Property sweep over placement policies: conservation and bounds must hold
// for every (fleet slice, policy, demand) combination drawn from the
// generated population; and every plan must expand to the dense greedy
// fill's utilisations and totals bit for bit (tests/placement_reference.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>

#include "cluster/placement.h"
#include "dataset/generator.h"
#include "metrics/proportionality.h"
#include "placement_reference.h"

namespace epserve::cluster {
namespace {

const std::vector<dataset::ServerRecord>& population() {
  static const std::vector<dataset::ServerRecord> records = [] {
    auto result = dataset::generate_population();
    EXPECT_TRUE(result.ok());
    return std::move(result).take();
  }();
  return records;
}

std::vector<dataset::ServerRecord> fleet_slice(std::size_t start,
                                               std::size_t size) {
  const auto& records = population();
  std::vector<dataset::ServerRecord> fleet;
  for (std::size_t i = 0; i < size; ++i) {
    fleet.push_back(records[(start + i * 37) % records.size()]);
  }
  return fleet;
}

const PlacementPolicy& policy_by_name(const std::string& name) {
  static const PackToFullPolicy pack;
  static const BalancedPolicy balanced;
  static const OptimalRegionPolicy optimal;
  if (name == "pack") return pack;
  if (name == "balanced") return balanced;
  return optimal;
}

// (policy, fleet start offset, demand)
using PlacementCase = std::tuple<std::string, int, double>;

class PlacementSweep : public ::testing::TestWithParam<PlacementCase> {};

TEST_P(PlacementSweep, ConservationAndBounds) {
  const auto& [policy_name, offset, demand] = GetParam();
  const auto fleet = fleet_slice(static_cast<std::size_t>(offset), 16);
  const auto& policy = policy_by_name(policy_name);

  const auto assignment = evaluate(policy, Fleet::from_records(fleet), demand);
  ASSERT_TRUE(assignment.ok()) << assignment.error().message;

  // Utilisations within [0, 1].
  ASSERT_EQ(assignment.value().utilization.size(), fleet.size());
  for (const double u : assignment.value().utilization) {
    EXPECT_GE(u, -1e-12);
    EXPECT_LE(u, 1.0 + 1e-12);
  }

  // Work conservation: served ops equal demand * capacity.
  double capacity = 0.0;
  for (const auto& s : fleet) capacity += s.curve.peak_ops();
  EXPECT_NEAR(assignment.value().total_ops, demand * capacity,
              capacity * 1e-9);

  // Power bracketing: between all-idle and all-peak.
  double idle_floor = 0.0;
  double peak_ceiling = 0.0;
  for (const auto& s : fleet) {
    idle_floor += s.curve.idle_watts();
    peak_ceiling += s.curve.peak_watts();
  }
  EXPECT_GE(assignment.value().total_power_watts, idle_floor - 1e-6);
  EXPECT_LE(assignment.value().total_power_watts, peak_ceiling + 1e-6);

  // Power monotone in demand (same policy, same fleet).
  if (demand <= 0.85) {
    const auto higher = evaluate(policy, Fleet::from_records(fleet), demand + 0.1);
    ASSERT_TRUE(higher.ok());
    EXPECT_GE(higher.value().total_power_watts,
              assignment.value().total_power_watts - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PlacementSweep,
    ::testing::Combine(::testing::Values("pack", "balanced", "optimal"),
                       ::testing::Values(0, 101, 293),
                       ::testing::Values(0.05, 0.25, 0.5, 0.75, 0.95)),
    [](const ::testing::TestParamInfo<PlacementCase>& info) {
      return std::get<0>(info.param) + "_o" +
             std::to_string(std::get<1>(info.param)) + "_d" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 100));
    });

TEST(PlacementAggregates, ClusterCurveEpWithinRange) {
  const auto fleet = fleet_slice(50, 12);
  for (const auto* name : {"pack", "balanced", "optimal"}) {
    const auto curve = cluster_power_curve(policy_by_name(name), Fleet::from_records(fleet));
    ASSERT_TRUE(curve.ok()) << name << ": " << curve.error().message;
    const double ep = metrics::energy_proportionality(curve.value());
    EXPECT_GT(ep, 0.0) << name;
    EXPECT_LT(ep, 2.0) << name;
  }
}

TEST(PlacementAggregates, BalancedClusterEpMatchesMeanServerBehaviour) {
  // Under balanced placement every server runs at the aggregate load, so the
  // cluster curve is the power-weighted average of the member curves and its
  // EP sits within the members' EP range.
  const auto fleet = fleet_slice(200, 8);
  double lo = 2.0, hi = 0.0;
  for (const auto& s : fleet) {
    const double ep = metrics::energy_proportionality(s.curve);
    lo = std::min(lo, ep);
    hi = std::max(hi, ep);
  }
  const auto curve = cluster_power_curve(policy_by_name("balanced"), Fleet::from_records(fleet));
  ASSERT_TRUE(curve.ok());
  const double cluster_ep = metrics::energy_proportionality(curve.value());
  EXPECT_GE(cluster_ep, lo - 0.02);
  EXPECT_LE(cluster_ep, hi + 0.02);
}

// --- Plans expand to the dense greedy fill, bit for bit ----------------------

class PlanEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlanEquivalence, PlaceBatchAndTotalsMatchDenseGreedyFillBitwise) {
  const auto records = reference::mixed_fleet(GetParam());
  const auto built = Fleet::build(records);
  ASSERT_TRUE(built.ok()) << built.error().message;
  const Fleet& fleet = built.value();

  // Demand at which optimal-region's stage 1 (every server at its region
  // top) runs out: anything above it spills into stage 2.
  const std::vector<double> tops = reference::region_tops(fleet);
  double region_ops = 0.0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    region_ops += tops[i] * fleet.peak_ops()[i];
  }
  const double spill = region_ops / fleet.capacity_ops();
  ASSERT_LT(spill, 1.0);
  const std::vector<double> demands = {
      0.0,
      -0.0,
      1.0,
      std::numeric_limits<double>::denorm_min(),
      0.05,
      0.3,
      0.5,
      0.7,
      0.97,
      spill,
      std::nextafter(spill, 1.0),
      (spill + 1.0) / 2.0,
      std::nextafter(1.0, 0.0)};

  for (const char* name : {"pack-to-full", "balanced", "optimal-region"}) {
    const auto policy = make_placement_policy(name);
    ASSERT_TRUE(policy.ok());
    const auto reference = reference::place_batch(fleet, name, demands);
    const auto placed = policy.value()->place_batch(fleet, demands);
    const auto evaluated = evaluate_batch(*policy.value(), fleet, demands);
    ASSERT_TRUE(evaluated.ok()) << evaluated.error().message;
    ASSERT_EQ(placed.size(), demands.size());
    ASSERT_EQ(evaluated.value().size(), demands.size());
    for (std::size_t d = 0; d < demands.size(); ++d) {
      const std::string where =
          std::string(name) + " demand " + std::to_string(demands[d]) +
          " (#" + std::to_string(d) + ")";
      ASSERT_EQ(placed[d].size(), fleet.size()) << where;
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        // Bit patterns, so the sign of a zero counts.
        ASSERT_EQ(std::bit_cast<std::uint64_t>(placed[d][i]),
                  std::bit_cast<std::uint64_t>(reference[d][i]))
            << where << " server " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(
                      evaluated.value()[d].utilization[i]),
                  std::bit_cast<std::uint64_t>(reference[d][i]))
            << where << " server " << i;
      }
      const Assignment dense = reference::account(fleet, reference[d]);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    evaluated.value()[d].total_power_watts),
                std::bit_cast<std::uint64_t>(dense.total_power_watts))
          << where;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(evaluated.value()[d].total_ops),
                std::bit_cast<std::uint64_t>(dense.total_ops))
          << where;
    }
  }

  // The grid does reach optimal-region's spill stage, and pack-to-full
  // leaves a partial server somewhere on it.
  const auto optimal = account_batch(OptimalRegionPolicy(), fleet, demands);
  ASSERT_TRUE(optimal.ok()) << optimal.error().message;
  const std::vector<FillPlan>& region_levels = optimal.value().levels;
  EXPECT_TRUE(std::any_of(region_levels.begin(), region_levels.end(),
                          [](const FillPlan& plan) { return plan.stage == 1; }));
  const auto pack = account_batch(PackToFullPolicy(), fleet, demands);
  ASSERT_TRUE(pack.ok()) << pack.error().message;
  const std::vector<FillPlan>& pack_levels = pack.value().levels;
  EXPECT_TRUE(std::any_of(pack_levels.begin(), pack_levels.end(),
                          [](const FillPlan& plan) { return plan.partial; }));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PlanEquivalence,
                         ::testing::Values(std::size_t{1}, std::size_t{100},
                                           std::size_t{5000}));

}  // namespace
}  // namespace epserve::cluster
