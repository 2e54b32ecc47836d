#include "cluster/autoscaler.h"

#include <gtest/gtest.h>

#include <limits>

#include "metrics/curve_models.h"

namespace epserve::cluster {
namespace {

dataset::ServerRecord make_server(int id, double ep, double idle) {
  auto model = metrics::TwoSegmentPowerModel::solve(ep, idle, 0.5);
  EXPECT_TRUE(model.ok());
  dataset::ServerRecord r;
  r.id = id;
  r.curve = metrics::to_power_curve(model.value(), 300.0, 1e6);
  return r;
}

std::vector<dataset::ServerRecord> fleet(int n = 8) {
  std::vector<dataset::ServerRecord> out;
  for (int i = 1; i <= n; ++i) {
    out.push_back(make_server(i, 0.6, 0.4));
  }
  return out;
}

TEST(Autoscaler, TracksTheDemandShape) {
  const auto result = autoscale_over_day(Fleet::from_records(fleet()), DemandTrace::diurnal());
  ASSERT_TRUE(result.ok()) << result.error().message;
  ASSERT_EQ(result.value().slots.size(), 24u);
  // More servers active at the evening peak than at the night trough.
  const auto& night = result.value().slots[4];
  const auto& evening = result.value().slots[20];
  EXPECT_GT(evening.active_servers, night.active_servers);
  EXPECT_GT(evening.power_watts, night.power_watts);
}

TEST(Autoscaler, BeatsAlwaysOnBalancedOnIdleHeavyFleets) {
  // The ensemble argument: powering machines OFF dominates leaving them
  // idling at 40% of peak power.
  const auto f = fleet();
  const auto trace = DemandTrace::diurnal(0.15, 0.35);
  const auto scaled = autoscale_over_day(Fleet::from_records(f), trace);
  ASSERT_TRUE(scaled.ok());
  const BalancedPolicy balanced;
  const auto always_on = simulate_day(balanced, Fleet::from_records(f), trace);
  ASSERT_TRUE(always_on.ok());
  EXPECT_LT(scaled.value().energy_kwh, always_on.value().energy_kwh * 0.85);
  // Same work served.
  EXPECT_NEAR(scaled.value().served_gops, always_on.value().served_gops,
              always_on.value().served_gops * 1e-6);
}

TEST(Autoscaler, HysteresisLimitsChurn) {
  DemandTrace saw;
  saw.slot_hours = 1.0;
  // Oscillating demand that would thrash one server without hysteresis.
  for (int i = 0; i < 24; ++i) {
    saw.demand.push_back(i % 2 == 0 ? 0.50 : 0.41);
  }
  AutoscalerConfig tight;
  tight.hysteresis_servers = 0;
  AutoscalerConfig loose;
  loose.hysteresis_servers = 2;
  const auto thrashy = autoscale_over_day(Fleet::from_records(fleet()), saw, tight);
  const auto damped = autoscale_over_day(Fleet::from_records(fleet()), saw, loose);
  ASSERT_TRUE(thrashy.ok());
  ASSERT_TRUE(damped.ok());
  double wakes_tight = 0.0, wakes_loose = 0.0;
  for (const auto& slot : thrashy.value().slots) wakes_tight += slot.wakes;
  for (const auto& slot : damped.value().slots) wakes_loose += slot.wakes;
  EXPECT_GT(wakes_tight, wakes_loose);
}

TEST(Autoscaler, WakePenaltyChargesEnergy) {
  AutoscalerConfig free_wakes;
  free_wakes.wake_penalty_wh = 0.0;
  AutoscalerConfig costly;
  costly.wake_penalty_wh = 100.0;
  const auto trace = DemandTrace::diurnal();
  const auto a = autoscale_over_day(Fleet::from_records(fleet()), trace, free_wakes);
  const auto b = autoscale_over_day(Fleet::from_records(fleet()), trace, costly);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(b.value().energy_kwh, a.value().energy_kwh);
}

TEST(Autoscaler, FullDemandActivatesEveryone) {
  DemandTrace full;
  full.demand.assign(4, 1.0);
  const auto result = autoscale_over_day(Fleet::from_records(fleet()), full);
  ASSERT_TRUE(result.ok());
  for (const auto& slot : result.value().slots) {
    EXPECT_EQ(slot.active_servers, 8);
  }
}

TEST(Autoscaler, ZeroDemandPowersEverythingDown) {
  DemandTrace nothing;
  nothing.demand.assign(4, 0.0);
  const auto result = autoscale_over_day(Fleet::from_records(fleet()), nothing);
  ASSERT_TRUE(result.ok());
  for (const auto& slot : result.value().slots) {
    EXPECT_EQ(slot.active_servers, 0);
    EXPECT_DOUBLE_EQ(slot.power_watts, 0.0);
  }
  EXPECT_DOUBLE_EQ(result.value().energy_kwh, 0.0);
}

TEST(Autoscaler, RejectsBadInputs) {
  const auto trace = DemandTrace::diurnal();
  EXPECT_FALSE(autoscale_over_day(Fleet::from_records(std::vector<dataset::ServerRecord>{}), trace).ok());
  DemandTrace empty;
  EXPECT_FALSE(autoscale_over_day(Fleet::from_records(fleet()), empty).ok());
  AutoscalerConfig bad;
  bad.target_utilization = 0.0;
  EXPECT_FALSE(autoscale_over_day(Fleet::from_records(fleet()), trace, bad).ok());
  bad = {};
  bad.wake_penalty_wh = -1.0;
  EXPECT_FALSE(autoscale_over_day(Fleet::from_records(fleet()), trace, bad).ok());
  DemandTrace out_of_range;
  out_of_range.demand = {1.5};
  EXPECT_FALSE(autoscale_over_day(Fleet::from_records(fleet()), out_of_range).ok());
  DemandTrace nan_slot;
  nan_slot.demand = {0.5, std::numeric_limits<double>::quiet_NaN()};
  const auto nan = autoscale_over_day(Fleet::from_records(fleet()), nan_slot);
  ASSERT_FALSE(nan.ok());
  EXPECT_EQ(nan.error().message, "trace demand outside [0, 1]");
}

}  // namespace
}  // namespace epserve::cluster
