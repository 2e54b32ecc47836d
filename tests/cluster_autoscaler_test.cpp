#include "cluster/autoscaler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "cluster/placement.h"
#include "cluster/trace.h"
#include "fsum_reference.h"
#include "metrics/curve_models.h"
#include "metrics/simd/kernels.h"

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
  const auto result = autoscale_over_day(Fleet::from_records(fleet()), make_trace("diurnal").value());
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
  const auto trace = make_trace({"diurnal", 0.15, 0.35}).value();
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
  const auto trace = make_trace("diurnal").value();
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

/// Servers whose EP, idle fraction, knee, peak watts and peak ops cycle
/// with the index, so the activation order mixes them and the power sums
/// round.
std::vector<dataset::ServerRecord> mixed_fleet(std::size_t n) {
  std::vector<dataset::ServerRecord> out;
  for (std::size_t i = 0; i < n; ++i) {
    const double idle = 0.20 + 0.05 * static_cast<double>(i % 7);
    const double tau = 0.5 + 0.1 * static_cast<double>(i % 4);
    const double ep =
        (1.0 - idle) * (tau + 0.25 + 0.1 * static_cast<double>(i % 6));
    auto model = metrics::TwoSegmentPowerModel::solve(ep, idle, tau);
    EXPECT_TRUE(model.ok());
    dataset::ServerRecord r;
    r.id = static_cast<int>(i) + 1;
    r.curve = metrics::to_power_curve(
        model.value(), 250.0 + 10.3 * static_cast<double>(i % 9),
        1e6 + 1.1e5 * static_cast<double>(i % 11));
    out.push_back(std::move(r));
  }
  return out;
}

// The summation contract behind every slot power, under every kernel
// variant the build and CPU offer: a slot's power is the correctly rounded
// exact sum of normalized_power(u) * peak_watts over the servers order[j],
// j < active, and the prefix-order sequential sum those terms once took
// lies within the standard bound of it; u spreads the slot's demand over
// the active prefix's capacity, summed in prefix order. The day's energy
// and served work are exact sums of the per-slot terms. A slot whose
// active prefix is the whole fleet reads the balanced batch's total at its
// utilisation, bit for bit.
TEST(Autoscaler, SlotPowersAreActivationOrderSumsUnderEveryKernel) {
  namespace kernels = metrics::kernels;
  const auto records = mixed_fleet(301);
  const Fleet fleet = Fleet::from_records(records);
  const std::span<const std::size_t> order = fleet.order_by_overall_score();
  const AutoscalerConfig config;
  const BalancedPolicy balanced;

  std::vector<DemandTrace> traces;
  for (const auto name : trace_names()) {
    auto trace = make_trace(name);
    ASSERT_TRUE(trace.ok()) << trace.error().message;
    if (!trace.value().latency_critical()) {
      traces.push_back(std::move(trace).take());
    }
  }
  ASSERT_FALSE(traces.empty());
  // Repeated levels, both ends of the range, and demands past the target
  // utilisation, which activate the whole fleet.
  DemandTrace repeats;
  repeats.slot_hours = 0.5;
  repeats.demand = {0.0,  0.35, 1.0,  0.35, 0.0,  0.62, 1.0,  0.62,
                    0.35, 0.08, 0.08, 0.9,  0.75, 0.83, 0.97, 0.75};
  traces.push_back(repeats);

  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto exact = [](const std::vector<double>& terms) {
    const double sum = fsum_reference::fsum(terms);
    EXPECT_TRUE(fsum_reference::within_sequential_bound(
        terms, fsum_reference::sequential_sum(terms), sum))
        << "sequential sum of " << terms.size() << " terms";
    return sum;
  };

  struct RestoreKernels {
    kernels::Variant saved = kernels::active().variant;
    ~RestoreKernels() { kernels::set_active_for_testing(saved); }
  } restore;
  std::size_t fully_active = 0;
  for (const auto variant :
       {kernels::Variant::kScalarReference, kernels::Variant::kGridScalar,
        kernels::Variant::kGridAvx2, kernels::Variant::kGridAvx512,
        kernels::Variant::kGridNeon}) {
    if (!kernels::set_active_for_testing(variant)) continue;
    for (std::size_t t = 0; t < traces.size(); ++t) {
      const DemandTrace& trace = traces[t];
      const auto result = autoscale_over_day(fleet, trace, config);
      ASSERT_TRUE(result.ok()) << result.error().message;
      ASSERT_EQ(result.value().slots.size(), trace.demand.size());
      std::vector<double> energy_terms;
      std::vector<double> served_terms;
      for (std::size_t s = 0; s < trace.demand.size(); ++s) {
        const ScaleSlot& slot = result.value().slots[s];
        const auto active = static_cast<std::size_t>(slot.active_servers);
        double active_capacity = 0.0;
        for (std::size_t j = 0; j < active; ++j) {
          active_capacity += records[order[j]].curve.peak_ops();
        }
        const double demand_ops = trace.demand[s] * fleet.capacity_ops();
        const double u =
            active_capacity > 0.0 ? std::min(1.0, demand_ops / active_capacity)
                                  : 0.0;
        std::vector<double> terms;
        for (std::size_t j = 0; j < active; ++j) {
          const metrics::PowerCurve& curve = records[order[j]].curve;
          terms.push_back(curve.normalized_power(u) * curve.peak_watts());
        }
        const double power = exact(terms);
        ASSERT_EQ(bits(slot.power_watts), bits(power))
            << kernels::variant_name(variant) << " trace " << t << " slot "
            << s << " active " << active;
        if (active == fleet.size()) {
          const auto level =
              account_batch(balanced, fleet, std::vector<double>{u});
          ASSERT_TRUE(level.ok()) << level.error().message;
          EXPECT_EQ(bits(slot.power_watts),
                    bits(level.value().totals[0].total_power_watts))
              << kernels::variant_name(variant) << " trace " << t
              << " slot " << s << " u " << u;
          ++fully_active;
        }
        energy_terms.push_back(power * trace.slot_hours / 1000.0 +
                               slot.wakes * config.wake_penalty_wh / 1000.0);
        served_terms.push_back(std::min(demand_ops, active_capacity) *
                               trace.slot_hours * 3600.0 / 1e9);
      }
      EXPECT_EQ(bits(result.value().energy_kwh), bits(exact(energy_terms)))
          << kernels::variant_name(variant) << " trace " << t;
      EXPECT_EQ(bits(result.value().served_gops), bits(exact(served_terms)))
          << kernels::variant_name(variant) << " trace " << t;
    }
  }
  EXPECT_GT(fully_active, 0u);
}

TEST(Autoscaler, RejectsBadInputs) {
  const auto trace = make_trace("diurnal").value();
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
