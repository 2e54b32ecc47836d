// Trace library + idle model + the one policy-day evaluator: registry
// invariants, checked construction (out-of-range shapes are rejected),
// idle-state energy conservation, and simulate_policy_day's dispatch and
// eligibility rule.
#include "cluster/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "cluster/autoscaler.h"
#include "cluster/day_simulation.h"
#include "cluster/idle_model.h"
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

std::vector<dataset::ServerRecord> records() {
  std::vector<dataset::ServerRecord> out;
  out.push_back(make_server(1, 0.95, 0.20, 0.7));
  out.push_back(make_server(2, 0.90, 0.25, 0.8));
  out.push_back(make_server(3, 0.75, 0.30, 0.6));
  out.push_back(make_server(4, 0.60, 0.40, 0.5));
  out.push_back(make_server(5, 0.45, 0.55, 0.5));
  out.push_back(make_server(6, 0.30, 0.70, 0.5));
  return out;
}

// --- Registry invariants ---------------------------------------------------

TEST(TraceRegistry, CatalogListsTheFourTraceClasses) {
  const auto names = trace_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "diurnal");
  EXPECT_EQ(names[1], "flash_crowd");
  EXPECT_EQ(names[2], "weekly");
  EXPECT_EQ(names[3], "scale_out");
}

TEST(TraceRegistry, EveryTraceSatisfiesTheSharedInvariants) {
  // Per-trace slot counts are part of the contract (the matrix and the CLI
  // catalog table quote them); demand must be a valid simulate_day input.
  const std::pair<std::string_view, std::pair<std::size_t, double>> expected[] =
      {{"diurnal", {24, 1.0}},
       {"flash_crowd", {48, 0.5}},
       {"weekly", {168, 1.0}},
       {"scale_out", {24, 1.0}}};
  for (const auto& [name, shape] : expected) {
    auto trace = make_trace(name);
    ASSERT_TRUE(trace.ok()) << name;
    EXPECT_EQ(trace.value().demand.size(), shape.first) << name;
    EXPECT_EQ(trace.value().slot_hours, shape.second) << name;
    EXPECT_GT(trace.value().slot_hours, 0.0) << name;
    for (const double d : trace.value().demand) {
      EXPECT_GE(d, 0.0) << name;
      EXPECT_LE(d, 1.0) << name;
    }
  }
}

TEST(TraceRegistry, OnlyScaleOutIsLatencyCritical) {
  for (const auto& info : trace_catalog()) {
    auto trace = make_trace(info.name);
    ASSERT_TRUE(trace.ok());
    EXPECT_EQ(trace.value().latency_critical(), info.latency_critical);
    if (info.latency_critical) {
      ASSERT_EQ(trace.value().max_idle_state.size(),
                trace.value().demand.size());
      for (const int cap : trace.value().max_idle_state) {
        EXPECT_GE(cap, 1);
        EXPECT_LE(cap, 2);  // C1/C3 only — deep states forbidden
      }
    } else {
      EXPECT_TRUE(trace.value().max_idle_state.empty());
    }
  }
}

TEST(TraceRegistry, UnknownNameListsTheKnownNames) {
  const auto missing = make_trace("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, Error::Code::kNotFound);
  EXPECT_NE(missing.error().message.find(
                "diurnal, flash_crowd, weekly, scale_out"),
            std::string::npos);
}

TEST(TraceRegistry, RejectsOutOfRangeShapes) {
  // Shapes that push some slot's demand outside [0, 1] are reported, not
  // clamped into range.
  for (const auto& [base, amplitude] :
       {std::pair{0.9, 0.9}, std::pair{-0.5, 0.3}, std::pair{0.5, 5.0}}) {
    TraceSpec spec;
    spec.name = "diurnal";
    spec.base = base;
    spec.amplitude = amplitude;
    const auto checked = make_trace(spec);
    ASSERT_FALSE(checked.ok()) << base << "/" << amplitude;
    EXPECT_EQ(checked.error().code, Error::Code::kInvalidArgument);
  }
}

// --- Idle model ------------------------------------------------------------

TEST(IdleModel, NoneIsTrivialAndAcpiIsNot) {
  EXPECT_TRUE(IdleModel::none().trivial());
  EXPECT_TRUE(IdleModel::none().validate().ok());
  EXPECT_FALSE(IdleModel::acpi().trivial());
  EXPECT_TRUE(IdleModel::acpi().validate().ok());
  EXPECT_EQ(IdleModel::acpi().deepest(), 4);
  EXPECT_FALSE(IdleModel::by_name("nope").ok());
}

TEST(IdleModel, ValidateRejectsMalformedLadders) {
  IdleModel empty;
  EXPECT_FALSE(empty.validate().ok());

  IdleModel costly_active = IdleModel::none();
  costly_active.states[0].wake_energy_j = 5.0;
  EXPECT_FALSE(costly_active.validate().ok());

  IdleModel rising = IdleModel::acpi();
  rising.states[2].power_fraction = 0.9;  // deeper state drawing more
  EXPECT_FALSE(rising.validate().ok());

  IdleModel cheap_deep = IdleModel::acpi();
  cheap_deep.states[4].wake_energy_j = 0.0;  // deeper state waking cheaper
  EXPECT_FALSE(cheap_deep.validate().ok());
}

TEST(IdleModel, ZeroCostMultiStateModelConservesTheLegacyAccounting) {
  // Energy conservation: a ladder whose states draw full active-idle power
  // and wake for free exercises the idle pass without being able to change
  // any accounted quantity — the results must equal the legacy path bitwise.
  const auto fleet_records = records();
  const auto fleet = Fleet::from_records(fleet_records);
  IdleModel free_ladder;
  free_ladder.states = {{"C0", 1.0, 0.0, 0.0}, {"C1", 1.0, 0.0, 0.0}};
  ASSERT_TRUE(free_ladder.validate().ok());
  ASSERT_FALSE(free_ladder.trivial());
  const PackToFullPolicy pack;
  for (const auto& info : trace_catalog()) {
    auto trace = make_trace(info.name);
    ASSERT_TRUE(trace.ok());
    const auto legacy = simulate_day(pack, fleet, trace.value());
    const auto modeled =
        simulate_day(pack, fleet, trace.value(), free_ladder);
    ASSERT_TRUE(legacy.ok());
    ASSERT_TRUE(modeled.ok());
    EXPECT_EQ(modeled.value().energy_kwh, legacy.value().energy_kwh)
        << info.name;
    EXPECT_EQ(modeled.value().served_gops, legacy.value().served_gops)
        << info.name;
    EXPECT_EQ(modeled.value().avg_efficiency, legacy.value().avg_efficiency)
        << info.name;
    EXPECT_EQ(modeled.value().wake_energy_kwh, 0.0);
    EXPECT_EQ(modeled.value().wake_lost_gops, 0.0);
  }
}

TEST(IdleModel, AcpiLadderSavesEnergyAndChargesWakesOnFlashCrowd) {
  const auto fleet_records = records();
  const auto fleet = Fleet::from_records(fleet_records);
  auto trace = make_trace("flash_crowd");
  ASSERT_TRUE(trace.ok());
  const PackToFullPolicy pack;
  const auto baseline = simulate_day(pack, fleet, trace.value());
  const auto modeled =
      simulate_day(pack, fleet, trace.value(), IdleModel::acpi());
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(modeled.ok());
  // Parked servers sleeping below active idle save net energy even after
  // the burst's wake charges; the wake accounting must be visible.
  EXPECT_LT(modeled.value().energy_kwh, baseline.value().energy_kwh);
  EXPECT_GT(modeled.value().wake_count, 0u);
  EXPECT_GT(modeled.value().wake_energy_kwh, 0.0);
  EXPECT_GT(modeled.value().idle_energy_kwh, 0.0);
  EXPECT_GT(modeled.value().wake_lost_gops, 0.0);
  EXPECT_LT(modeled.value().served_gops, baseline.value().served_gops);
}

TEST(IdleModel, ScaleOutIdleCapCostsEnergyVersusUncappedSleep) {
  // The latency-critical trace forbids deep states, so its parked servers
  // burn more residency power than the same demand shape without the cap.
  const auto fleet_records = records();
  const auto fleet = Fleet::from_records(fleet_records);
  auto capped = make_trace("scale_out");
  ASSERT_TRUE(capped.ok());
  DemandTrace uncapped = capped.value();
  uncapped.max_idle_state.clear();
  const PackToFullPolicy pack;
  const auto with_cap =
      simulate_day(pack, fleet, capped.value(), IdleModel::acpi());
  const auto without_cap =
      simulate_day(pack, fleet, uncapped, IdleModel::acpi());
  ASSERT_TRUE(with_cap.ok());
  ASSERT_TRUE(without_cap.ok());
  EXPECT_GT(with_cap.value().idle_energy_kwh,
            without_cap.value().idle_energy_kwh);
  EXPECT_GE(with_cap.value().energy_kwh, without_cap.value().energy_kwh);
}

// --- One policy-day evaluator ------------------------------------------------

TEST(SimulatePolicyDay, AutoscalerIsIneligibleOnScaleOutOnly) {
  const auto fleet_records = records();
  const auto fleet = Fleet::from_records(fleet_records);
  for (const auto& info : trace_catalog()) {
    const auto trace = make_trace(info.name);
    ASSERT_TRUE(trace.ok());
    for (const auto policy : kDayPolicies) {
      const auto day =
          simulate_policy_day(policy, fleet, trace.value(), IdleModel::acpi());
      ASSERT_TRUE(day.ok()) << info.name << "/" << policy;
      // The autoscaler powers machines off, which scale_out's idle cap
      // forbids; every other (trace, policy) cell is eligible.
      const bool ineligible =
          policy == "autoscaler" && info.name == "scale_out";
      ASSERT_EQ(day.value().has_value(), !ineligible)
          << info.name << "/" << policy;
      if (day.value()) {
        EXPECT_EQ(day.value()->policy, policy);
        EXPECT_GT(day.value()->energy_kwh, 0.0) << info.name << "/" << policy;
      }
    }
  }
}

TEST(SimulatePolicyDay, MatchesTheSimulatorItDispatchesTo) {
  const auto fleet_records = records();
  const auto fleet = Fleet::from_records(fleet_records);
  const auto trace = make_trace("flash_crowd");
  ASSERT_TRUE(trace.ok());
  const auto placed = simulate_policy_day("optimal-region", fleet,
                                          trace.value(), IdleModel::acpi());
  const auto direct = simulate_day(OptimalRegionPolicy(), fleet, trace.value(),
                                   IdleModel::acpi());
  ASSERT_TRUE(placed.ok() && placed.value() && direct.ok());
  EXPECT_EQ(placed.value()->energy_kwh, direct.value().energy_kwh);
  EXPECT_EQ(placed.value()->wake_lost_gops, direct.value().wake_lost_gops);
  EXPECT_EQ(placed.value()->wake_count, direct.value().wake_count);

  // The autoscaler day maps onto DayResult; its wake penalty doubles as the
  // wake-energy line item.
  const auto scaled = simulate_policy_day("autoscaler", fleet, trace.value(),
                                          IdleModel::acpi());
  const auto raw = autoscale_over_day(fleet, trace.value());
  ASSERT_TRUE(scaled.ok() && scaled.value() && raw.ok());
  double wakes = 0.0;
  for (const auto& slot : raw.value().slots) wakes += slot.wakes;
  EXPECT_EQ(scaled.value()->energy_kwh, raw.value().energy_kwh);
  EXPECT_EQ(scaled.value()->served_gops, raw.value().served_gops);
  EXPECT_EQ(scaled.value()->avg_efficiency, raw.value().avg_efficiency);
  EXPECT_EQ(scaled.value()->wake_count,
            static_cast<std::uint64_t>(std::llround(wakes)));
  EXPECT_EQ(scaled.value()->wake_energy_kwh,
            wakes * AutoscalerConfig{}.wake_penalty_wh / 1000.0);
}

TEST(SimulatePolicyDay, RejectsAnUnknownPolicy) {
  const auto fleet_records = records();
  const auto fleet = Fleet::from_records(fleet_records);
  const auto trace = make_trace("diurnal");
  ASSERT_TRUE(trace.ok());
  const auto day = simulate_policy_day("nope", fleet, trace.value());
  ASSERT_FALSE(day.ok());
  EXPECT_EQ(day.error().code, Error::Code::kNotFound);
}

}  // namespace
}  // namespace epserve::cluster
