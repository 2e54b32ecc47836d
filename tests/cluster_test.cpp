#include <gtest/gtest.h>

#include <array>
#include <limits>

#include "cluster/placement.h"
#include "cluster/working_region.h"
#include "dataset/generator.h"
#include "metrics/curve_models.h"
#include "metrics/efficiency.h"
#include "metrics/proportionality.h"
#include "util/contracts.h"

namespace epserve::cluster {
namespace {

using metrics::kLoadLevels;
using metrics::kNumLoadLevels;

dataset::ServerRecord make_server(int id, double ep, double idle, double tau,
                                  double peak_watts, double peak_ops) {
  auto model = metrics::TwoSegmentPowerModel::solve(ep, idle, tau);
  EXPECT_TRUE(model.ok());
  dataset::ServerRecord r;
  r.id = id;
  r.curve = metrics::to_power_curve(model.value(), peak_watts, peak_ops);
  return r;
}

/// Small heterogeneous fleet: two modern interior-peak servers, two linear
/// mid-range ones, one legacy high-idle machine.
std::vector<dataset::ServerRecord> small_fleet() {
  std::vector<dataset::ServerRecord> fleet;
  fleet.push_back(make_server(1, 0.95, 0.20, 0.7, 300.0, 3e6));
  fleet.push_back(make_server(2, 0.90, 0.25, 0.8, 280.0, 2.5e6));
  fleet.push_back(make_server(3, 0.65, 0.35, 0.5, 350.0, 1.5e6));
  fleet.push_back(make_server(4, 0.60, 0.40, 0.5, 350.0, 1.4e6));
  fleet.push_back(make_server(5, 0.30, 0.70, 0.5, 400.0, 0.8e6));
  return fleet;
}

// --- Region arithmetic -----------------------------------------------------------

TEST(Region, BasicProperties) {
  const Region r{0.3, 0.8};
  EXPECT_FALSE(r.empty());
  EXPECT_DOUBLE_EQ(r.width(), 0.5);
  EXPECT_TRUE(r.contains(0.5));
  EXPECT_FALSE(r.contains(0.9));
}

TEST(Region, IntersectOverlapsAndDisjoint) {
  const Region a{0.2, 0.7};
  const Region b{0.5, 0.9};
  const Region c{0.8, 0.9};
  const Region ab = intersect(a, b);
  EXPECT_DOUBLE_EQ(ab.lo, 0.5);
  EXPECT_DOUBLE_EQ(ab.hi, 0.7);
  EXPECT_TRUE(intersect(a, c).empty());
}

// --- Optimal region ----------------------------------------------------------------

TEST(OptimalRegion, LinearServerRegionEndsAtFullLoad) {
  const auto server = make_server(1, 0.6, 0.4, 0.5, 300.0, 1e6);
  const Region region = optimal_region(server.curve, 0.95);
  EXPECT_DOUBLE_EQ(region.hi, 1.0);
  EXPECT_GT(region.lo, 0.3);  // low-load EE is far below peak
}

TEST(OptimalRegion, InteriorPeakServerRegionStraddlesPeak) {
  const auto server = make_server(1, 0.95, 0.25, 0.7, 300.0, 1e6);
  ASSERT_DOUBLE_EQ(metrics::peak_ee_utilization(server.curve), 0.7);
  const Region region = optimal_region(server.curve, 0.95);
  EXPECT_LT(region.lo, 0.7);
  EXPECT_GE(region.hi, 0.7);
}

TEST(OptimalRegion, HigherThresholdNarrowsRegion) {
  const auto server = make_server(1, 0.9, 0.25, 0.8, 300.0, 1e6);
  const Region loose = optimal_region(server.curve, 0.85);
  const Region tight = optimal_region(server.curve, 0.99);
  EXPECT_LT(tight.width(), loose.width());
  EXPECT_GE(tight.lo, loose.lo);
}

TEST(OptimalRegion, RejectsBadThreshold) {
  const auto server = make_server(1, 0.9, 0.25, 0.8, 300.0, 1e6);
  EXPECT_THROW(static_cast<void>(optimal_region(server.curve, 0.0)),
               ContractViolation);
  EXPECT_THROW(static_cast<void>(optimal_region(server.curve, 1.5)),
               ContractViolation);
}

// --- Logical clusters ----------------------------------------------------------------

TEST(LogicalClusters, PartitionCoversFleet) {
  const auto fleet = small_fleet();
  const auto clusters = build_logical_clusters(Fleet::from_records(fleet), 0.1);
  std::size_t members = 0;
  for (const auto& c : clusters) members += c.members.size();
  EXPECT_EQ(members, fleet.size());
}

TEST(LogicalClusters, BucketsAscendAndGroupSimilarEp) {
  const auto fleet = small_fleet();
  const auto clusters = build_logical_clusters(Fleet::from_records(fleet), 0.1);
  for (std::size_t i = 1; i < clusters.size(); ++i) {
    EXPECT_GT(clusters[i].ep_bucket_lo, clusters[i - 1].ep_bucket_lo);
  }
  for (const auto& c : clusters) {
    for (const std::size_t member : c.members) {
      const double ep = metrics::energy_proportionality(fleet[member].curve);
      EXPECT_GE(ep, c.ep_bucket_lo - 1e-9);
      EXPECT_LT(ep, c.ep_bucket_lo + 0.1 + 1e-9);
    }
  }
}

TEST(LogicalClusters, SharedRegionInsideEveryMemberRegion) {
  const auto fleet = small_fleet();
  for (const auto& c : build_logical_clusters(Fleet::from_records(fleet), 0.2)) {
    if (c.shared_region.empty()) continue;
    for (const std::size_t member : c.members) {
      const Region own = optimal_region(fleet[member].curve, 0.95);
      EXPECT_GE(c.shared_region.lo, own.lo - 1e-9);
      EXPECT_LE(c.shared_region.hi, own.hi + 1e-9);
    }
  }
}

// --- Placement policies ----------------------------------------------------------------

TEST(Placement, AllPoliciesMeetDemand) {
  const auto fleet = small_fleet();
  double capacity = 0.0;
  for (const auto& s : fleet) capacity += s.curve.peak_ops();

  const PackToFullPolicy pack;
  const BalancedPolicy balanced;
  const OptimalRegionPolicy optimal;
  for (const double demand : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    for (const PlacementPolicy* policy :
         std::initializer_list<const PlacementPolicy*>{&pack, &balanced,
                                                       &optimal}) {
      const auto assignment = evaluate(*policy, Fleet::from_records(fleet), demand);
      ASSERT_TRUE(assignment.ok()) << policy->name();
      EXPECT_NEAR(assignment.value().total_ops, demand * capacity,
                  capacity * 1e-9)
          << policy->name() << " demand " << demand;
    }
  }
}

TEST(Placement, FullDemandSaturatesEveryone) {
  const auto fleet = small_fleet();
  const OptimalRegionPolicy optimal;
  const auto assignment = evaluate(optimal, Fleet::from_records(fleet), 1.0);
  ASSERT_TRUE(assignment.ok());
  for (const double u : assignment.value().utilization) {
    EXPECT_NEAR(u, 1.0, 1e-9);
  }
}

TEST(Placement, OptimalRegionBeatsPackToFullAtModerateDemand) {
  // §V.C's claim: at mid demand, keeping servers in their efficient band
  // does more work per watt than packing machines to 100%.
  const auto fleet = small_fleet();
  const PackToFullPolicy pack;
  const OptimalRegionPolicy optimal;
  for (const double demand : {0.35, 0.45}) {
    const auto a = evaluate(pack, Fleet::from_records(fleet), demand);
    const auto b = evaluate(optimal, Fleet::from_records(fleet), demand);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_GT(b.value().efficiency(), a.value().efficiency())
        << "demand " << demand;
  }
  // Near the spill-over point the two converge; EP-aware placement must at
  // least never be materially worse.
  for (const double demand : {0.55, 0.65}) {
    const auto a = evaluate(pack, Fleet::from_records(fleet), demand);
    const auto b = evaluate(optimal, Fleet::from_records(fleet), demand);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_GT(b.value().efficiency(), a.value().efficiency() * 0.98)
        << "demand " << demand;
  }
}

TEST(Placement, BalancedWastesPowerOnLegacyMachinesAtLowDemand) {
  // Spreading load over a high-idle legacy machine is worse than filling
  // the efficient machines inside their optimal regions.
  const auto fleet = small_fleet();
  const BalancedPolicy balanced;
  const OptimalRegionPolicy optimal;
  const auto a = evaluate(balanced, Fleet::from_records(fleet), 0.3);
  const auto b = evaluate(optimal, Fleet::from_records(fleet), 0.3);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(b.value().efficiency(), a.value().efficiency());
}

TEST(Placement, RejectsEmptyFleetAndBadDemand) {
  const PackToFullPolicy pack;
  const std::vector<dataset::ServerRecord> empty;
  EXPECT_FALSE(evaluate(pack, Fleet::from_records(empty), 0.5).ok());
  const auto fleet = small_fleet();
  EXPECT_FALSE(evaluate(pack, Fleet::from_records(fleet), -0.1).ok());
  EXPECT_FALSE(evaluate(pack, Fleet::from_records(fleet), 1.1).ok());
  // NaN fails every range comparison, so each policy must see it rejected
  // up front rather than placed (or tripping a curve contract).
  const BalancedPolicy balanced;
  const OptimalRegionPolicy optimal;
  for (const PlacementPolicy* policy :
       {static_cast<const PlacementPolicy*>(&pack),
        static_cast<const PlacementPolicy*>(&balanced),
        static_cast<const PlacementPolicy*>(&optimal)}) {
    const auto nan = evaluate(*policy, Fleet::from_records(fleet),
                              std::numeric_limits<double>::quiet_NaN());
    ASSERT_FALSE(nan.ok()) << policy->name();
    EXPECT_EQ(nan.error().message, "demand must be in [0, 1]");
  }
}

// --- Cluster-wide EP ----------------------------------------------------------------------

TEST(ClusterEp, CurveIsValidAndComparable) {
  const auto fleet = small_fleet();
  const PackToFullPolicy pack;
  const OptimalRegionPolicy optimal;
  const auto pack_curve = cluster_power_curve(pack, Fleet::from_records(fleet));
  const auto optimal_curve = cluster_power_curve(optimal, Fleet::from_records(fleet));
  ASSERT_TRUE(pack_curve.ok()) << pack_curve.error().message;
  ASSERT_TRUE(optimal_curve.ok()) << optimal_curve.error().message;
  const double ep_pack = metrics::energy_proportionality(pack_curve.value());
  const double ep_optimal =
      metrics::energy_proportionality(optimal_curve.value());
  EXPECT_GT(ep_pack, 0.0);
  EXPECT_GT(ep_optimal, 0.0);
  // EP-aware placement yields a more energy-proportional aggregate.
  EXPECT_GE(ep_optimal, ep_pack - 1e-9);
}

TEST(ClusterEp, ConsolidationWinsOnSuperlinearNodes) {
  // Paper Fig.13 discussion: grouping identical nodes on a shared workload
  // beats spreading the same work across them. For a linear power curve the
  // two are exactly equal (both cost 1 + 3*idle normalised units at 25%
  // demand on 4 nodes); consolidation wins when the curve runs ABOVE its
  // linear interpolation (positive linear deviation — the paper's
  // production servers at low/mid utilisation), and loses on sublinear
  // curves. Verify both regimes.
  const auto fleet_with_ep = [](double ep, double idle) {
    std::vector<dataset::ServerRecord> nodes;
    for (int i = 1; i <= 4; ++i) {
      nodes.push_back(make_server(i, ep, idle, 0.5, 300.0, 1e6));
    }
    return nodes;
  };
  const PackToFullPolicy grouped;
  const BalancedPolicy independent;

  // Superlinear (EP < 1 - idle): consolidation wins.
  const auto legacy = fleet_with_ep(0.45, 0.35);
  const auto g1 = evaluate(grouped, Fleet::from_records(legacy), 0.25);
  const auto i1 = evaluate(independent, Fleet::from_records(legacy), 0.25);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(i1.ok());
  EXPECT_GT(g1.value().efficiency(), i1.value().efficiency());

  // Sublinear (EP > 1 - idle): spreading wins.
  const auto modern = fleet_with_ep(0.80, 0.35);
  const auto g2 = evaluate(grouped, Fleet::from_records(modern), 0.25);
  const auto i2 = evaluate(independent, Fleet::from_records(modern), 0.25);
  ASSERT_TRUE(g2.ok());
  ASSERT_TRUE(i2.ok());
  EXPECT_LT(g2.value().efficiency(), i2.value().efficiency());
}

TEST(ClusterEp, WorksOnGeneratedPopulationSubset) {
  auto population = dataset::generate_population();
  ASSERT_TRUE(population.ok());
  std::vector<dataset::ServerRecord> fleet(population.value().begin(),
                                           population.value().begin() + 20);
  const OptimalRegionPolicy optimal;
  const auto curve = cluster_power_curve(optimal, Fleet::from_records(fleet));
  ASSERT_TRUE(curve.ok()) << curve.error().message;
  EXPECT_TRUE(curve.value().validate().ok());
}

}  // namespace
}  // namespace epserve::cluster
