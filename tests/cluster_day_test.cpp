#include "cluster/day_simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/staged_state.h"
#include "dataset/generator.h"
#include "metrics/curve_models.h"
#include "metrics/simd/kernels.h"
#include "placement_reference.h"
#include "util/contracts.h"
#include "util/telemetry.h"

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
  out.push_back(make_server(2, 0.90, 0.25, 0.8));
  out.push_back(make_server(3, 0.60, 0.40, 0.5));
  out.push_back(make_server(4, 0.30, 0.70, 0.5));
  return out;
}

TEST(DemandTrace, DiurnalShapeIs24SlotsWithinBounds) {
  const auto trace = make_trace("diurnal").value();
  ASSERT_EQ(trace.demand.size(), 24u);
  for (const double d : trace.demand) {
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

TEST(DemandTrace, TroughAtNightPeakInEvening) {
  const auto trace = make_trace({"diurnal", 0.25, 0.45}).value();
  const double night = trace.demand[4];
  const double evening = trace.demand[20];
  EXPECT_LT(night, evening);
  EXPECT_NEAR(night, 0.25, 0.08);          // near the base at the trough
  EXPECT_GT(evening, 0.55);                // near base + amplitude
}

TEST(SimulateDay, AccountsEnergyAndWork) {
  const auto f = fleet();
  const OptimalRegionPolicy policy;
  const auto day = simulate_day(policy, Fleet::from_records(f), make_trace("diurnal").value());
  ASSERT_TRUE(day.ok()) << day.error().message;
  EXPECT_GT(day.value().energy_kwh, 0.0);
  EXPECT_GT(day.value().served_gops, 0.0);
  EXPECT_GT(day.value().avg_efficiency, 0.0);
  EXPECT_EQ(day.value().policy, "optimal-region");
}

TEST(SimulateDay, ZeroDemandTraceStillBurnsIdleEnergy) {
  const auto f = fleet();
  DemandTrace trace;
  trace.demand.assign(24, 0.0);
  const BalancedPolicy policy;
  const auto day = simulate_day(policy, Fleet::from_records(f), trace);
  ASSERT_TRUE(day.ok());
  double idle_watts = 0.0;
  for (const auto& s : f) idle_watts += s.curve.idle_watts();
  EXPECT_NEAR(day.value().energy_kwh, idle_watts * 24.0 / 1000.0, 1e-9);
  EXPECT_DOUBLE_EQ(day.value().served_gops, 0.0);
}

TEST(SimulateDay, RejectsEmptyTraceAndBadSlot) {
  const auto f = fleet();
  const BalancedPolicy policy;
  DemandTrace empty;
  EXPECT_FALSE(simulate_day(policy, Fleet::from_records(f), empty).ok());
  DemandTrace bad;
  bad.demand = {0.5};
  bad.slot_hours = 0.0;
  EXPECT_FALSE(simulate_day(policy, Fleet::from_records(f), bad).ok());
  DemandTrace nan_slot;
  nan_slot.demand = {0.5, std::numeric_limits<double>::quiet_NaN(), 0.5};
  const auto nan_day = simulate_day(policy, Fleet::from_records(f), nan_slot);
  ASSERT_FALSE(nan_day.ok());
  EXPECT_EQ(nan_day.error().message, "demand must be in [0, 1]");
}

TEST(SimulateDay, RejectsMalformedIdleStateCaps) {
  const Fleet f = Fleet::from_records(fleet());
  DemandTrace short_caps;
  short_caps.demand = {0.0, 0.5, 0.0, 0.5};
  short_caps.max_idle_state = {1};
  DemandTrace negative_cap;
  negative_cap.demand = {0.0, 0.5, 0.0, 0.5};
  negative_cap.max_idle_state = {4, -1, 2, 3};
  const PackToFullPolicy pack;
  const BalancedPolicy balanced;
  const OptimalRegionPolicy optimal;
  for (const PlacementPolicy* policy :
       std::initializer_list<const PlacementPolicy*>{&pack, &balanced,
                                                     &optimal}) {
    for (const IdleModel& idle : {IdleModel::none(), IdleModel::acpi()}) {
      const auto short_day = simulate_day(*policy, f, short_caps, idle);
      ASSERT_FALSE(short_day.ok()) << policy->name();
      EXPECT_EQ(short_day.error().code, Error::Code::kInvalidArgument);
      EXPECT_EQ(short_day.error().message,
                "trace needs one idle-state cap per slot");
      const auto negative_day = simulate_day(*policy, f, negative_cap, idle);
      ASSERT_FALSE(negative_day.ok()) << policy->name();
      EXPECT_EQ(negative_day.error().code, Error::Code::kInvalidArgument);
      EXPECT_EQ(negative_day.error().message, "idle-state caps must be >= 0");
    }
  }
  EXPECT_THROW(static_cast<void>(short_caps.idle_state_cap(3, 4)),
               ContractViolation);
}

/// Every field of two days, bit for bit.
void expect_same_day(const DayResult& got, const DayResult& want,
                     const std::string& where) {
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  EXPECT_EQ(got.policy, want.policy) << where;
  EXPECT_EQ(bits(got.energy_kwh), bits(want.energy_kwh)) << where;
  EXPECT_EQ(bits(got.served_gops), bits(want.served_gops)) << where;
  EXPECT_EQ(bits(got.avg_efficiency), bits(want.avg_efficiency)) << where;
  EXPECT_EQ(bits(got.idle_energy_kwh), bits(want.idle_energy_kwh)) << where;
  EXPECT_EQ(bits(got.wake_energy_kwh), bits(want.wake_energy_kwh)) << where;
  EXPECT_EQ(bits(got.wake_lost_gops), bits(want.wake_lost_gops)) << where;
  EXPECT_EQ(got.wake_count, want.wake_count) << where;
}

TEST(SimulateDay, WakeHeavyDayMatchesDenseReferenceBitwise) {
  // Idle, full and a part-filled level in turn, so every server parks and
  // wakes over and over; the cap changes every slot, so a parked server
  // wakes from whichever state its last parked slot allowed. The slot
  // length is not a power of two, so the slot-length products round.
  DemandTrace trace;
  trace.slot_hours = 0.7;
  const std::vector<double> partials = {0.37, 0.05, 0.81, 0.5, 0.93, 0.2};
  const std::vector<int> caps = {4, 1, 3, 0, 2};
  for (const double partial : partials) {
    for (const double demand : {0.0, 1.0, partial}) {
      trace.max_idle_state.push_back(caps[trace.demand.size() % caps.size()]);
      trace.demand.push_back(demand);
    }
  }
  // One server, whose terms are as large as the sums they join, and a
  // fleet, whose sums interleave parked, waking and busy servers.
  for (const std::size_t size : {std::size_t{1}, std::size_t{64}}) {
    const auto built = Fleet::build(reference::mixed_fleet(size));
    ASSERT_TRUE(built.ok()) << built.error().message;
    for (const char* name : {"pack-to-full", "balanced", "optimal-region"}) {
      const auto policy = make_placement_policy(name);
      ASSERT_TRUE(policy.ok());
      for (const IdleModel& idle : {IdleModel::none(), IdleModel::acpi()}) {
        const auto day =
            simulate_day(*policy.value(), built.value(), trace, idle);
        ASSERT_TRUE(day.ok()) << day.error().message;
        const DayResult ref = reference::day(built.value(), name, trace, idle);
        const std::string where = std::to_string(size) + " servers " + name +
                                  " idle states " +
                                  std::to_string(idle.states.size());
        if (!idle.trivial()) EXPECT_GT(ref.wake_count, 0u) << where;
        expect_same_day(day.value(), ref, where);
      }
    }
  }
}

TEST(AccountBatch, RejectsServerValuesOutsideTheUnitRange) {
  // A server with infinite full-load ops fills first under pack-to-full
  // and its full value reads inf / inf, so every level that fills it fails.
  std::vector<dataset::ServerRecord> records = fleet();
  {
    metrics::PowerCurve& curve = records[2].curve;
    std::array<double, metrics::kNumLoadLevels> watts{};
    std::array<double, metrics::kNumLoadLevels> ops{};
    for (std::size_t level = 0; level < metrics::kNumLoadLevels; ++level) {
      watts[level] = curve.watts_at_level(level);
      ops[level] = curve.ops_at_level(level);
    }
    ops.back() = std::numeric_limits<double>::infinity();
    curve = metrics::PowerCurve(watts, ops, curve.idle_watts());
  }
  const Fleet f = Fleet::from_records(records);
  const std::vector<double> demands = {0.5, 1.0};
  DemandTrace trace;
  trace.demand = demands;
  const PackToFullPolicy policy;
  const std::string message = "policy produced utilisation outside [0,1]";
  const auto account = account_batch(policy, f, demands);
  ASSERT_FALSE(account.ok());
  EXPECT_EQ(account.error().code, Error::Code::kFailedPrecondition);
  EXPECT_EQ(account.error().message, message);
  const auto evaluated = evaluate_batch(policy, f, demands);
  ASSERT_FALSE(evaluated.ok());
  EXPECT_EQ(evaluated.error().message, message);
  for (const IdleModel& idle : {IdleModel::none(), IdleModel::acpi()}) {
    const auto day = simulate_day(policy, f, trace, idle);
    ASSERT_FALSE(day.ok());
    EXPECT_EQ(day.error().message, message);
  }
}

TEST(SimulateDay, RangeSumDayMatchesExactDenseDay) {
  // The range-sum day against the dense slot x server reference, bit for
  // bit: the registry's traces with the idle cap changing every slot and a
  // trace of edge levels (+-0.0, a subnormal demand, full load, spill
  // levels for optimal-region), on a fleet where some servers' zero flags
  // break the position rule.
  std::vector<dataset::ServerRecord> records = reference::mixed_fleet(700);
  // Servers of subnormal throughput whose EE peaks at 10% load: the region
  // top is about 0.11, so top * peak_ops underflows and optimal-region's
  // first stage leaves them at 0.0. Their second stage then starts from
  // 0.0, and the idle pass charges them one by one as irregular servers.
  constexpr std::size_t kTiny = 5;
  for (std::size_t t = 0; t < kTiny; ++t) {
    std::array<double, metrics::kNumLoadLevels> watts{};
    std::array<double, metrics::kNumLoadLevels> ops{};
    for (std::size_t level = 0; level < metrics::kNumLoadLevels; ++level) {
      watts[level] = 1e-3 * static_cast<double>(level + 1);
      ops[level] = std::numeric_limits<double>::denorm_min();
    }
    dataset::ServerRecord r;
    r.id = static_cast<int>(records.size()) + 1;
    r.curve = metrics::PowerCurve(watts, ops, 5e-4);
    const auto at = static_cast<std::ptrdiff_t>(t * 150);
    records.insert(records.begin() + at, std::move(r));
  }
  const auto built = Fleet::build(records);
  ASSERT_TRUE(built.ok()) << built.error().message;
  const Fleet& fleet = built.value();
  const std::vector<double>& region_full =
      fleet.staged_state(Fleet::StagedPolicy::kOptimalRegion)
          ->columns()
          .full.front();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(region_full.begin(), region_full.end(), 0.0)),
            kTiny);
  const std::vector<int> caps = {4, 1, 3, 0, 2, 4, 2};
  std::vector<std::pair<std::string, DemandTrace>> traces;
  for (const std::string_view name : trace_names()) {
    auto trace = make_trace(name);
    ASSERT_TRUE(trace.ok());
    DemandTrace capped = std::move(trace).take();
    capped.max_idle_state.resize(capped.demand.size());
    for (std::size_t s = 0; s < capped.demand.size(); ++s) {
      capped.max_idle_state[s] = caps[s % caps.size()];
    }
    traces.emplace_back(std::string(name), std::move(capped));
  }
  DemandTrace edges;
  edges.slot_hours = 0.3;
  edges.demand = {0.0, std::numeric_limits<double>::denorm_min(), 1.0, -0.0,
                  0.9, 0.2, 0.0, 0.97, 0.05, 1.0, 0.0};
  for (std::size_t s = 0; s < edges.demand.size(); ++s) {
    edges.max_idle_state.push_back(caps[(s + 3) % caps.size()]);
  }
  traces.emplace_back("edges", edges);

  for (const auto& [trace_name, trace] : traces) {
    for (const IdleModel& idle : {IdleModel::none(), IdleModel::acpi()}) {
      const std::string suffix =
          " " + trace_name + " idle states " + std::to_string(idle.states.size());
      for (const char* name : {"pack-to-full", "balanced", "optimal-region"}) {
        const auto policy = make_placement_policy(name);
        ASSERT_TRUE(policy.ok());
        const auto day = simulate_day(*policy.value(), fleet, trace, idle);
        ASSERT_TRUE(day.ok()) << day.error().message;
        expect_same_day(day.value(), reference::day(fleet, name, trace, idle),
                        name + suffix);
      }
    }
  }
}

TEST(SimulateDay, PartialServerThatUnderflowsToZeroParks) {
  // A level whose partial server sits at +0.0, which the idle pass parks
  // one by one. Server A carries 1 - 2^-53 ops at every level on tiny
  // power, so it leads pack-to-full's order; server B's throughput scales
  // with 2^1023, so the fleet's capacity rounds to 2^1023. At demand
  // 2^-1023 the walk fills A and leaves 2^-53 ops for B, whose share
  // 2^-53 / 2^1023 underflows to +0.0.
  std::vector<dataset::ServerRecord> records(2);
  std::array<double, metrics::kNumLoadLevels> watts{};
  std::array<double, metrics::kNumLoadLevels> ops{};
  for (std::size_t k = 0; k < metrics::kNumLoadLevels; ++k) {
    watts[k] = 1e-300 * static_cast<double>(k + 2);
    ops[k] = 1.0 - std::ldexp(1.0, -53);
  }
  records[0].id = 1;
  records[0].curve = metrics::PowerCurve(watts, ops, 1e-300);
  for (std::size_t k = 0; k < metrics::kNumLoadLevels; ++k) {
    watts[k] = 5e8 + 5e7 * static_cast<double>(k + 1);
    ops[k] = std::ldexp(1.0, 1023) * metrics::kLoadLevels[k];
  }
  records[1].id = 2;
  records[1].curve = metrics::PowerCurve(watts, ops, 4e8);
  const auto built = Fleet::build(records);
  ASSERT_TRUE(built.ok()) << built.error().message;
  const Fleet& fleet = built.value();
  ASSERT_EQ(fleet.capacity_ops(), std::ldexp(1.0, 1023));

  DemandTrace trace;
  const double low = std::ldexp(1.0, -1023);
  trace.demand = {0.5, low, 0.5, low};
  const PackToFullPolicy policy;
  const auto account = account_batch(policy, fleet, trace.demand);
  ASSERT_TRUE(account.ok()) << account.error().message;
  const FillPlan& plan = account.value().levels[1];
  EXPECT_EQ(fleet.order_by_ee_at_full().front(), 0u);
  EXPECT_TRUE(plan.partial);
  EXPECT_EQ(plan.filled, 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(plan.utilization), 0u);  // +0.0
  const auto day = simulate_day(policy, fleet, trace, IdleModel::acpi());
  ASSERT_TRUE(day.ok()) << day.error().message;
  const DayResult ref =
      reference::day(fleet, "pack-to-full", trace, IdleModel::acpi());
  EXPECT_GT(ref.wake_count, 0u);
  expect_same_day(day.value(), ref, "partial server at +0.0");
}

/// Restores the dispatched kernel set on scope exit.
class KernelGuard {
 public:
  KernelGuard() : saved_(metrics::kernels::active().variant) {}
  ~KernelGuard() { metrics::kernels::set_active_for_testing(saved_); }
  KernelGuard(const KernelGuard&) = delete;
  KernelGuard& operator=(const KernelGuard&) = delete;

 private:
  metrics::kernels::Variant saved_;
};

TEST(SimulateDay, KeptStagedStateDayMatchesDenseDayUnderEveryKernel) {
  // A staged policy's day reads the staged state its Fleet keeps, and must
  // equal the dense reference day bit for bit, over the trace registry
  // with and without an idle model, at fleet sizes around the snapshot
  // stride, under every kernel variant the CPU has: each variant gets its
  // own Fleet, so its kernel computes the kept snapshots. The dense day
  // runs no kernel, so it is computed once per size.
  namespace kernels = metrics::kernels;
  const KernelGuard guard;
  constexpr std::size_t kStride = StagedState::kSnapshotStride;
  std::vector<std::pair<std::string, DemandTrace>> traces;
  for (const std::string_view name : trace_names()) {
    auto trace = make_trace(name);
    ASSERT_TRUE(trace.ok());
    traces.emplace_back(std::string(name), std::move(trace).take());
  }
  const IdleModel idles[] = {IdleModel::none(), IdleModel::acpi()};
  const char* const policies[] = {"pack-to-full", "optimal-region"};
  std::size_t variants = 0;
  for (const std::size_t size :
       {std::size_t{1}, kStride - 1, kStride, kStride + 1, std::size_t{5000}}) {
    const auto records = reference::mixed_fleet(size);
    std::vector<DayResult> dense;  // by policy, then trace, then idle model
    {
      const auto built = Fleet::build(records);
      ASSERT_TRUE(built.ok()) << built.error().message;
      for (const char* name : policies) {
        for (const auto& [trace_name, trace] : traces) {
          for (const IdleModel& idle : idles) {
            dense.push_back(reference::day(built.value(), name, trace, idle));
          }
        }
      }
    }
    variants = 0;
    for (const auto variant :
         {kernels::Variant::kScalarReference, kernels::Variant::kGridScalar,
          kernels::Variant::kGridAvx2, kernels::Variant::kGridAvx512,
          kernels::Variant::kGridNeon}) {
      if (!kernels::set_active_for_testing(variant)) continue;
      ++variants;
      const auto built = Fleet::build(records);
      ASSERT_TRUE(built.ok()) << built.error().message;
      const Fleet& fleet = built.value();
      telemetry::reset();
      telemetry::set_enabled(true);
      std::size_t k = 0;
      for (const char* name : policies) {
        const auto policy = make_placement_policy(name);
        ASSERT_TRUE(policy.ok());
        for (const auto& [trace_name, trace] : traces) {
          for (const IdleModel& idle : idles) {
            const std::string where =
                std::string(kernels::variant_name(variant)) + " " + name +
                " servers " + std::to_string(size) + " " + trace_name +
                " idle states " + std::to_string(idle.states.size());
            const auto day = simulate_day(*policy.value(), fleet, trace, idle);
            ASSERT_TRUE(day.ok()) << where << ": " << day.error().message;
            expect_same_day(day.value(), dense[k++], where);
          }
        }
      }
      // One kept build per staged policy, however many days read it.
      const auto snap = telemetry::snapshot();
      telemetry::set_enabled(false);
      telemetry::reset();
      const auto* builds = snap.find_counter("staged_state.builds");
      ASSERT_NE(builds, nullptr);
      EXPECT_EQ(builds->value, 2u)
          << kernels::variant_name(variant) << " servers " << size;
    }
  }
  EXPECT_GE(variants, 2u);
}

TEST(CompareOverDay, ReturnsAllThreePolicies) {
  const auto results = compare_policies_over_day(Fleet::from_records(fleet()), make_trace("diurnal").value());
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results.value().size(), 3u);
  EXPECT_EQ(results.value()[0].policy, "pack-to-full");
  EXPECT_EQ(results.value()[1].policy, "balanced");
  EXPECT_EQ(results.value()[2].policy, "optimal-region");
}

TEST(CompareOverDay, AllPoliciesServeTheSameWork) {
  const auto results = compare_policies_over_day(Fleet::from_records(fleet()), make_trace("diurnal").value());
  ASSERT_TRUE(results.ok());
  const double reference = results.value()[0].served_gops;
  for (const auto& day : results.value()) {
    EXPECT_NEAR(day.served_gops, reference, reference * 1e-9) << day.policy;
  }
}

TEST(CompareOverDay, OptimalRegionUsesLeastEnergyOnModernFleet) {
  // On an interior-peak-dominated fleet under a diurnal trace, the §V.C
  // policy should pay the smallest daily energy bill for the same work.
  auto population = dataset::generate_population();
  ASSERT_TRUE(population.ok());
  std::vector<dataset::ServerRecord> modern;
  for (const auto& r : population.value()) {
    if (r.hw_year >= 2012 && r.nodes == 1 && modern.size() < 24) {
      modern.push_back(r);
    }
  }
  const auto results = compare_policies_over_day(Fleet::from_records(modern), make_trace("diurnal").value());
  ASSERT_TRUE(results.ok());
  const auto& pack = results.value()[0];
  const auto& balanced = results.value()[1];
  const auto& optimal = results.value()[2];
  EXPECT_LE(optimal.energy_kwh, pack.energy_kwh * 1.005);
  EXPECT_LT(optimal.energy_kwh, balanced.energy_kwh);
}

}  // namespace
}  // namespace epserve::cluster
