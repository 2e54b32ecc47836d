#include "cluster/day_simulation.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <span>
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
  const auto trace = DemandTrace::diurnal();
  ASSERT_EQ(trace.demand.size(), 24u);
  for (const double d : trace.demand) {
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

TEST(DemandTrace, DiurnalClampsExtremeShapesIntoUnitRange) {
  // Regression: base + amplitude can push the sinusoid past 1.0 (and a
  // negative base below 0.0); every slot must still land in [0, 1] so the
  // trace is always a valid simulate_day input.
  const auto f = fleet();
  const OptimalRegionPolicy policy;
  for (const auto& [base, amplitude] :
       {std::pair{0.9, 0.9}, std::pair{-0.5, 0.3}, std::pair{0.5, 5.0}}) {
    const auto trace = DemandTrace::diurnal(base, amplitude);
    ASSERT_EQ(trace.demand.size(), 24u);
    for (const double d : trace.demand) {
      EXPECT_GE(d, 0.0) << "base " << base << " amplitude " << amplitude;
      EXPECT_LE(d, 1.0) << "base " << base << " amplitude " << amplitude;
    }
    const auto day = simulate_day(policy, Fleet::from_records(f), trace);
    EXPECT_TRUE(day.ok()) << day.error().message;
  }
}

TEST(DemandTrace, TroughAtNightPeakInEvening) {
  const auto trace = DemandTrace::diurnal(0.25, 0.45);
  const double night = trace.demand[4];
  const double evening = trace.demand[20];
  EXPECT_LT(night, evening);
  EXPECT_NEAR(night, 0.25, 0.08);          // near the base at the trough
  EXPECT_GT(evening, 0.55);                // near base + amplitude
}

TEST(SimulateDay, AccountsEnergyAndWork) {
  const auto f = fleet();
  const OptimalRegionPolicy policy;
  const auto day = simulate_day(policy, Fleet::from_records(f), DemandTrace::diurnal());
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
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
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
        EXPECT_EQ(day.value().policy, ref.policy) << where;
        EXPECT_EQ(bits(day.value().energy_kwh), bits(ref.energy_kwh)) << where;
        EXPECT_EQ(bits(day.value().served_gops), bits(ref.served_gops))
            << where;
        EXPECT_EQ(bits(day.value().avg_efficiency), bits(ref.avg_efficiency))
            << where;
        EXPECT_EQ(bits(day.value().idle_energy_kwh),
                  bits(ref.idle_energy_kwh))
            << where;
        EXPECT_EQ(bits(day.value().wake_energy_kwh),
                  bits(ref.wake_energy_kwh))
            << where;
        EXPECT_EQ(bits(day.value().wake_lost_gops), bits(ref.wake_lost_gops))
            << where;
        EXPECT_EQ(day.value().wake_count, ref.wake_count) << where;
      }
    }
  }
}

/// A built-in policy whose plans are edited after the fill walk: `edit`
/// receives the plans and the fleet size and may change any column.
class EditedPolicy final : public PlacementPolicy {
 public:
  using Edit = std::function<void(FillPlans&, std::size_t)>;
  EditedPolicy(std::string_view base, Edit edit)
      : base_(make_placement_policy(base).take()), edit_(std::move(edit)) {}
  [[nodiscard]] std::string name() const override { return base_->name(); }
  [[nodiscard]] FillPlans plan_batch(
      const Fleet& fleet, std::span<const double> demands) const override {
    FillPlans plans = base_->plan_batch(fleet, demands);
    edit_(plans, fleet.size());
    return plans;
  }

 private:
  std::unique_ptr<PlacementPolicy> base_;
  Edit edit_;
};

/// Server i's stage-k value set to `value`, with its keys' zero flags
/// (this stage's full value, the next stage's base) kept consistent.
void set_full(FillPlans& plans, std::size_t stage, std::size_t i,
              double value) {
  plans.full[stage][i] = value;
  const auto zero = std::uint64_t{value == 0.0};
  plans.keys[stage][i] = (plans.keys[stage][i] & ~std::uint64_t{2}) | zero << 1;
  if (stage + 1 < plans.keys.size()) {
    plans.keys[stage + 1][i] = (plans.keys[stage + 1][i] & ~std::uint64_t{1}) |
                               zero;
  }
}

TEST(AccountBatch, RejectsPlansOutsideTheUnitRangeOrPastTheFleet) {
  const auto built = Fleet::build(fleet());
  ASSERT_TRUE(built.ok());
  const std::vector<double> demands = {0.5, 1.0};
  DemandTrace trace;
  trace.demand = demands;
  // Every server is full at demand 1.0, so each reads its full value.
  const EditedPolicy outside("pack-to-full", [](FillPlans& plans,
                                                std::size_t) {
    plans.full[0][2] = 1.5;
  });
  const EditedPolicy past("pack-to-full", [](FillPlans& plans,
                                             std::size_t servers) {
    plans.levels[0].filled = servers + 1;
  });
  const std::pair<const PlacementPolicy*, std::string> cases[] = {
      {&outside, "policy produced utilisation outside [0,1]"},
      {&past, "policy returned a misaligned batch"}};
  for (const auto& [policy, message] : cases) {
    const auto account = account_batch(*policy, built.value(), demands);
    ASSERT_FALSE(account.ok());
    EXPECT_EQ(account.error().code, Error::Code::kFailedPrecondition);
    EXPECT_EQ(account.error().message, message);
    const auto evaluated = evaluate_batch(*policy, built.value(), demands);
    ASSERT_FALSE(evaluated.ok());
    EXPECT_EQ(evaluated.error().message, message);
    for (const IdleModel& idle : {IdleModel::none(), IdleModel::acpi()}) {
      const auto day = simulate_day(*policy, built.value(), trace, idle);
      ASSERT_FALSE(day.ok());
      EXPECT_EQ(day.error().message, message);
    }
  }
}

TEST(SimulateDay, RangeSumDayMatchesExactDenseDay) {
  // The range-sum day against the dense slot x server reference, bit for
  // bit: the registry's traces with the idle cap changing every slot, a
  // trace of edge levels (+-0.0, a subnormal demand, full load, spill
  // levels for optimal-region), and plans edited so that some servers'
  // zero flags break the position rule or a partial server sits at 0.0.
  const auto built = Fleet::build(reference::mixed_fleet(700));
  ASSERT_TRUE(built.ok()) << built.error().message;
  const Fleet& fleet = built.value();
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

  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  const auto expect_same = [&bits](const DayResult& got, const DayResult& want,
                                   const std::string& where) {
    EXPECT_EQ(bits(got.energy_kwh), bits(want.energy_kwh)) << where;
    EXPECT_EQ(bits(got.served_gops), bits(want.served_gops)) << where;
    EXPECT_EQ(bits(got.avg_efficiency), bits(want.avg_efficiency)) << where;
    EXPECT_EQ(bits(got.idle_energy_kwh), bits(want.idle_energy_kwh)) << where;
    EXPECT_EQ(bits(got.wake_energy_kwh), bits(want.wake_energy_kwh)) << where;
    EXPECT_EQ(bits(got.wake_lost_gops), bits(want.wake_lost_gops)) << where;
    EXPECT_EQ(got.wake_count, want.wake_count) << where;
  };
  // Irregular servers: a full value of 0.0 in the first stage (so a later
  // stage starts it from 0.0), in the second stage only, or in both.
  const EditedPolicy pack_zeros("pack-to-full", [](FillPlans& plans,
                                                   std::size_t servers) {
    for (std::size_t i = 0; i < servers; i += 5) set_full(plans, 0, i, 0.0);
  });
  const EditedPolicy region_zeros("optimal-region", [](FillPlans& plans,
                                                       std::size_t servers) {
    for (std::size_t i = 0; i < servers; ++i) {
      if (i % 7 == 0) set_full(plans, 0, i, 0.0);
      if (i % 7 == 0 || i % 11 == 0) set_full(plans, 1, i, 0.0);
      if (i % 13 == 0) set_full(plans, 0, i, 0.0);
    }
  });

  // A custom plan may leave its partial server at 0.0, parking it. The
  // edit reads only the plan, so a level's plan is edited alike in a batch
  // of distinct levels and in one of every slot.
  const EditedPolicy partial_zeros("pack-to-full", [](FillPlans& plans,
                                                      std::size_t) {
    for (FillPlan& plan : plans.levels) {
      if (plan.partial && plan.filled % 2 == 0) plan.utilization = 0.0;
    }
  });

  for (const auto& [trace_name, trace] : traces) {
    for (const IdleModel& idle : {IdleModel::none(), IdleModel::acpi()}) {
      const std::string suffix =
          " " + trace_name + " idle states " + std::to_string(idle.states.size());
      for (const char* name : {"pack-to-full", "balanced", "optimal-region"}) {
        const auto policy = make_placement_policy(name);
        ASSERT_TRUE(policy.ok());
        const auto day = simulate_day(*policy.value(), fleet, trace, idle);
        ASSERT_TRUE(day.ok()) << day.error().message;
        expect_same(day.value(), reference::day(fleet, name, trace, idle),
                    name + suffix);
      }
      for (const EditedPolicy* policy :
           {&pack_zeros, &region_zeros, &partial_zeros}) {
        const auto day = simulate_day(*policy, fleet, trace, idle);
        ASSERT_TRUE(day.ok()) << day.error().message;
        const DayResult want = reference::day_of(
            fleet, policy->name(), policy->place_batch(fleet, trace.demand),
            trace, idle);
        if (!idle.trivial()) EXPECT_GT(want.wake_count, 0u);
        expect_same(day.value(), want, "edited " + policy->name() + suffix);
      }
    }
  }
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

TEST(SimulateDay, KeptStagedStateDayEqualsAFreshlyBuiltOneBitForBit) {
  // A built-in staged policy's day reads the staged state its Fleet keeps;
  // a policy that forwards plan_batch to it builds that state from its own
  // plans on every call. Both days must agree bit for bit, over the trace
  // registry with and without an idle model, at fleet sizes around the
  // snapshot stride, under every kernel variant the CPU has: each variant
  // gets its own Fleet, so its kernel computes the kept snapshots.
  namespace kernels = metrics::kernels;
  const KernelGuard guard;
  constexpr std::size_t kStride = StagedState::kSnapshotStride;
  std::vector<DemandTrace> traces;
  for (const std::string_view name : trace_names()) {
    auto trace = make_trace(name);
    ASSERT_TRUE(trace.ok());
    traces.push_back(std::move(trace).take());
  }
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  std::size_t variants = 0;
  for (const auto variant :
       {kernels::Variant::kScalarReference, kernels::Variant::kGridScalar,
        kernels::Variant::kGridAvx2, kernels::Variant::kGridAvx512,
        kernels::Variant::kGridNeon}) {
    if (!kernels::set_active_for_testing(variant)) continue;
    ++variants;
    for (const std::size_t size :
         {std::size_t{1}, kStride - 1, kStride, kStride + 1, std::size_t{5000}}) {
      const auto built = Fleet::build(reference::mixed_fleet(size));
      ASSERT_TRUE(built.ok()) << built.error().message;
      const Fleet& fleet = built.value();
      telemetry::reset();
      telemetry::set_enabled(true);
      std::uint64_t fresh_days = 0;
      for (const char* name : {"pack-to-full", "optimal-region"}) {
        const auto kept = make_placement_policy(name);
        ASSERT_TRUE(kept.ok());
        const EditedPolicy forwarding(name, [](FillPlans&, std::size_t) {});
        for (std::size_t t = 0; t < traces.size(); ++t) {
          for (const IdleModel& idle : {IdleModel::none(), IdleModel::acpi()}) {
            const std::string where =
                std::string(kernels::variant_name(variant)) + " " + name +
                " servers " + std::to_string(size) + " trace " +
                std::to_string(t) + " idle states " +
                std::to_string(idle.states.size());
            const auto got = simulate_day(*kept.value(), fleet, traces[t], idle);
            const auto want = simulate_day(forwarding, fleet, traces[t], idle);
            ++fresh_days;
            ASSERT_TRUE(got.ok()) << where << ": " << got.error().message;
            ASSERT_TRUE(want.ok()) << where << ": " << want.error().message;
            EXPECT_EQ(bits(got.value().energy_kwh), bits(want.value().energy_kwh))
                << where;
            EXPECT_EQ(bits(got.value().served_gops),
                      bits(want.value().served_gops))
                << where;
            EXPECT_EQ(bits(got.value().avg_efficiency),
                      bits(want.value().avg_efficiency))
                << where;
            EXPECT_EQ(bits(got.value().idle_energy_kwh),
                      bits(want.value().idle_energy_kwh))
                << where;
            EXPECT_EQ(bits(got.value().wake_energy_kwh),
                      bits(want.value().wake_energy_kwh))
                << where;
            EXPECT_EQ(bits(got.value().wake_lost_gops),
                      bits(want.value().wake_lost_gops))
                << where;
            EXPECT_EQ(got.value().wake_count, want.value().wake_count) << where;
          }
        }
      }
      // One kept build per policy; the forwarding policy built one per day.
      const auto snap = telemetry::snapshot();
      telemetry::set_enabled(false);
      telemetry::reset();
      const auto* builds = snap.find_counter("staged_state.builds");
      ASSERT_NE(builds, nullptr);
      EXPECT_EQ(builds->value, 2 + fresh_days)
          << kernels::variant_name(variant) << " servers " << size;
    }
  }
  EXPECT_GE(variants, 2u);
}

TEST(CompareOverDay, ReturnsAllThreePolicies) {
  const auto results = compare_policies_over_day(Fleet::from_records(fleet()), DemandTrace::diurnal());
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results.value().size(), 3u);
  EXPECT_EQ(results.value()[0].policy, "pack-to-full");
  EXPECT_EQ(results.value()[1].policy, "balanced");
  EXPECT_EQ(results.value()[2].policy, "optimal-region");
}

TEST(CompareOverDay, AllPoliciesServeTheSameWork) {
  const auto results = compare_policies_over_day(Fleet::from_records(fleet()), DemandTrace::diurnal());
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
  const auto results = compare_policies_over_day(Fleet::from_records(modern), DemandTrace::diurnal());
  ASSERT_TRUE(results.ok());
  const auto& pack = results.value()[0];
  const auto& balanced = results.value()[1];
  const auto& optimal = results.value()[2];
  EXPECT_LE(optimal.energy_kwh, pack.energy_kwh * 1.005);
  EXPECT_LT(optimal.energy_kwh, balanced.energy_kwh);
}

}  // namespace
}  // namespace epserve::cluster
