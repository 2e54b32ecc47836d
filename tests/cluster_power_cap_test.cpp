#include "cluster/power_cap.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dataset/generator.h"
#include "metrics/curve_models.h"

namespace epserve::cluster {
namespace {

dataset::ServerRecord make_server(int id, double ep, double idle, double tau) {
  auto model = metrics::TwoSegmentPowerModel::solve(ep, idle, tau);
  EXPECT_TRUE(model.ok());
  dataset::ServerRecord r;
  r.id = id;
  r.curve = metrics::to_power_curve(model.value(), 300.0, 2e6);
  return r;
}

std::vector<dataset::ServerRecord> fleet() {
  std::vector<dataset::ServerRecord> out;
  out.push_back(make_server(1, 0.95, 0.20, 0.7));
  out.push_back(make_server(2, 0.85, 0.28, 0.8));
  out.push_back(make_server(3, 0.60, 0.40, 0.5));
  out.push_back(make_server(4, 0.35, 0.65, 0.5));
  return out;
}

TEST(PowerCap, GenerousCapAllowsFullLoad) {
  const PackToFullPolicy policy;
  const auto result = max_throughput_under_cap(policy, Fleet::from_records(fleet()), 1e9);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().max_demand, 1.0);
  EXPECT_NEAR(result.value().max_throughput, 8e6, 1.0);
}

TEST(PowerCap, TightCapLimitsDemand) {
  const BalancedPolicy policy;
  // Fleet peak is 1200 W; cap at 70% of it.
  const auto result = max_throughput_under_cap(policy, Fleet::from_records(fleet()), 840.0);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().max_demand, 1.0);
  EXPECT_GT(result.value().max_demand, 0.0);
  EXPECT_LE(result.value().power_at_max, 840.0 + 1e-6);
}

TEST(PowerCap, BisectionConvergesToTheBoundary) {
  const BalancedPolicy policy;
  const auto result = max_throughput_under_cap(policy, Fleet::from_records(fleet()), 900.0, 1e-6);
  ASSERT_TRUE(result.ok());
  // Power just above the found demand must exceed the cap.
  const auto above =
      evaluate(policy, Fleet::from_records(fleet()), std::min(1.0, result.value().max_demand + 1e-3));
  ASSERT_TRUE(above.ok());
  EXPECT_GT(above.value().total_power_watts, 900.0 - 1.0);
}

// A tolerance below the spacing of doubles near the answer: the bisection
// stops once its bracket's ends are adjacent doubles, where the midpoint
// rounds to one of them, and returns the boundary to the last bit.
TEST(PowerCap, ToleranceBelowDoubleSpacingStopsAtAdjacentDemands) {
  dataset::ScaledConfig config;
  config.seed = 5;
  config.servers = 200;
  config.threads = 1;
  auto built = Fleet::generate(config);
  ASSERT_TRUE(built.ok()) << built.error().message;
  const Fleet& scaled = built.value();
  const PackToFullPolicy policy;
  const auto at_cap = evaluate(policy, scaled, 0.37);
  ASSERT_TRUE(at_cap.ok());
  const double cap = at_cap.value().total_power_watts;
  for (const double tolerance :
       {1e-300, std::numeric_limits<double>::denorm_min()}) {
    const auto result =
        max_throughput_under_cap(policy, scaled, cap, tolerance);
    ASSERT_TRUE(result.ok()) << result.error().message;
    const double max_demand = result.value().max_demand;
    EXPECT_LE(result.value().power_at_max, cap) << "tolerance " << tolerance;
    const auto above =
        evaluate(policy, scaled, std::nextafter(max_demand, 1.0));
    ASSERT_TRUE(above.ok());
    EXPECT_GT(above.value().total_power_watts, cap)
        << "tolerance " << tolerance;
  }
}

TEST(PowerCap, EpAwarePlacementDoesMoreWorkUnderTheSameCap) {
  // §V.C headline: under a fixed power supply, filling servers only to the
  // top of their efficient band does at least as much work as packing them
  // into their expensive top region. (Balanced spreading is not a universal
  // loser here: a very flat legacy curve has a tiny marginal watt per op, so
  // the comparison is made against pack-to-full.)
  const OptimalRegionPolicy optimal;
  const PackToFullPolicy pack;
  const double cap = 800.0;
  const auto a = max_throughput_under_cap(optimal, Fleet::from_records(fleet()), cap);
  const auto b = max_throughput_under_cap(pack, Fleet::from_records(fleet()), cap);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GE(a.value().max_throughput, b.value().max_throughput * 0.999);
}

TEST(PowerCap, ImpossibleCapFails) {
  const PackToFullPolicy policy;
  // Fleet idle power alone is several hundred watts.
  const auto result = max_throughput_under_cap(policy, Fleet::from_records(fleet()), 10.0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Error::Code::kFailedPrecondition);
}

TEST(PowerCap, RejectsBadArguments) {
  const PackToFullPolicy policy;
  EXPECT_FALSE(max_throughput_under_cap(policy, Fleet::from_records(fleet()), -5.0).ok());
  EXPECT_FALSE(max_throughput_under_cap(policy, Fleet::from_records(fleet()), 800.0, 0.0).ok());
  const std::vector<dataset::ServerRecord> empty;
  EXPECT_FALSE(max_throughput_under_cap(policy, Fleet::from_records(empty), 800.0).ok());
}

}  // namespace
}  // namespace epserve::cluster
