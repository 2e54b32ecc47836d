// cluster::Fleet contract tests: the shared fleet handle must be a pure
// cache — every column equals the per-record metric function bitwise, every
// policy/simulation result routed through the Fleet equals the pre-refactor
// record-at-a-time arithmetic bitwise (reimplemented here as the scalar
// reference, per demand point and per trace slot, with each placement and
// autoscaler total the exact sum of its per-server or per-slot terms), at
// fleet sizes 1/100/5000 and from 1 or 8 threads sharing one Fleet, its
// lazily sorted server orders and its kept staged state (run under
// -DEPSERVE_SANITIZE=thread via `ctest -L parallel`).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <latch>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/autoscaler.h"
#include "cluster/day_simulation.h"
#include "cluster/fleet.h"
#include "cluster/idle_model.h"
#include "cluster/knightshift.h"
#include "cluster/operating_guide.h"
#include "cluster/placement.h"
#include "cluster/power_cap.h"
#include "cluster/staged_state.h"
#include "cluster/trace.h"
#include "cluster/working_region.h"
#include "metrics/curve_models.h"
#include "metrics/efficiency.h"
#include "metrics/proportionality.h"
#include "fsum_reference.h"
#include "util/contracts.h"
#include "util/telemetry.h"

namespace epserve::cluster {
namespace {

/// A reference total: the exact sum of its terms (tests/fsum_reference.h),
/// after checking that the sequential sum the reference once took lies
/// within the standard error bound of it.
double exact_total(const std::vector<double>& terms) {
  const double exact = fsum_reference::fsum(terms);
  EXPECT_TRUE(fsum_reference::within_sequential_bound(
      terms, fsum_reference::sequential_sum(terms), exact))
      << "sequential sum of " << terms.size() << " terms";
  return exact;
}

/// Deterministic heterogeneous fleet: EP/idle/tau/peak parameters cycle with
/// the index, so any size yields a mix of modern interior-peak and legacy
/// pack-friendly machines.
std::vector<dataset::ServerRecord> make_fleet(std::size_t size) {
  std::vector<dataset::ServerRecord> fleet;
  fleet.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    const double idle = 0.20 + 0.05 * static_cast<double>(i % 7);
    const double tau = 0.5 + 0.1 * static_cast<double>(i % 4);
    // Keep EP inside the model's feasible band [(1-idle)*tau, (1-idle)*(1+tau)].
    const double ep =
        (1.0 - idle) * (tau + 0.25 + 0.1 * static_cast<double>(i % 6));
    auto model = metrics::TwoSegmentPowerModel::solve(ep, idle, tau);
    EXPECT_TRUE(model.ok()) << model.error().message;
    dataset::ServerRecord r;
    r.id = static_cast<int>(i) + 1;
    r.curve = metrics::to_power_curve(model.value(),
                                      250.0 + 10.0 * static_cast<double>(i % 9),
                                      1e6 + 1e5 * static_cast<double>(i % 11));
    fleet.push_back(std::move(r));
  }
  return fleet;
}

// --- Scalar reference: the pre-Fleet placement/evaluation arithmetic -------

std::vector<std::size_t> reference_order(
    const std::vector<dataset::ServerRecord>& fleet,
    const std::function<double(const dataset::ServerRecord&)>& score) {
  std::vector<std::size_t> order(fleet.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double sa = score(fleet[a]);
    const double sb = score(fleet[b]);
    if (sa != sb) return sa > sb;
    return fleet[a].id < fleet[b].id;
  });
  return order;
}

void reference_fill(const std::vector<dataset::ServerRecord>& fleet,
                    const std::vector<std::size_t>& order,
                    const std::vector<double>& cap_util,
                    std::vector<double>& util, double& remaining_ops) {
  for (const auto idx : order) {
    if (remaining_ops <= 0.0) break;
    const double headroom_util = cap_util[idx] - util[idx];
    if (headroom_util <= 0.0) continue;
    const double headroom_ops = headroom_util * fleet[idx].curve.peak_ops();
    const double take = std::min(headroom_ops, remaining_ops);
    util[idx] += take / fleet[idx].curve.peak_ops();
    remaining_ops -= take;
  }
}

double reference_capacity(const std::vector<dataset::ServerRecord>& fleet) {
  std::vector<double> terms;
  for (const auto& s : fleet) terms.push_back(s.curve.peak_ops());
  return exact_total(terms);
}

std::vector<double> reference_place(
    const std::vector<dataset::ServerRecord>& fleet, const std::string& policy,
    double demand) {
  std::vector<double> util(fleet.size(), 0.0);
  if (policy == "balanced") {
    return std::vector<double>(fleet.size(), demand);
  }
  double remaining = demand * reference_capacity(fleet);
  if (policy == "pack-to-full") {
    const auto order = reference_order(fleet, [](const auto& r) {
      return metrics::ee_at_level(r.curve, metrics::kNumLoadLevels - 1);
    });
    const std::vector<double> caps(fleet.size(), 1.0);
    reference_fill(fleet, order, caps, util, remaining);
    return util;
  }
  // optimal-region, threshold 0.95.
  std::vector<double> region_top(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const Region region = optimal_region(fleet[i].curve, 0.95);
    region_top[i] = region.empty() ? 1.0 : region.hi;
  }
  const auto order = reference_order(fleet, [](const auto& r) {
    return metrics::peak_ee(r.curve).value;
  });
  reference_fill(fleet, order, region_top, util, remaining);
  if (remaining > 0.0) {
    const std::vector<double> caps(fleet.size(), 1.0);
    reference_fill(fleet, order, caps, util, remaining);
  }
  return util;
}

Assignment reference_evaluate(const std::vector<dataset::ServerRecord>& fleet,
                              const std::string& policy, double demand) {
  Assignment assignment;
  assignment.utilization = reference_place(fleet, policy, demand);
  std::vector<double> power;
  std::vector<double> ops;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const double clamped = std::clamp(assignment.utilization[i], 0.0, 1.0);
    power.push_back(fleet[i].curve.normalized_power(clamped) *
                    fleet[i].curve.peak_watts());
    ops.push_back(clamped * fleet[i].curve.peak_ops());
  }
  assignment.total_power_watts = exact_total(power);
  assignment.total_ops = exact_total(ops);
  return assignment;
}

/// Per-slot reference day over precomputed per-slot assignments: the slot
/// energy and served work, then a copy of the slot x server idle pass
/// reading each slot's own assignment; each total is the exact sum of the
/// terms it collects.
DayResult reference_day(const std::vector<dataset::ServerRecord>& fleet,
                        const std::vector<Assignment>& slots,
                        const DemandTrace& trace, const IdleModel& idle) {
  DayResult result;
  std::vector<double> energy;
  std::vector<double> served;
  std::vector<double> idle_energy;
  std::vector<double> wake_energy;
  std::vector<double> wake_lost;
  for (const Assignment& slot : slots) {
    energy.push_back(slot.total_power_watts * trace.slot_hours / 1000.0);
    served.push_back(slot.total_ops * trace.slot_hours * 3600.0 / 1e9);
  }
  if (!idle.trivial()) {
    const double slot_seconds = trace.slot_hours * 3600.0;
    std::vector<int> parked_state(fleet.size(), -1);
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const int cap = trace.idle_state_cap(s, idle.deepest());
      const IdleState& state = idle.states[static_cast<std::size_t>(cap)];
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        const double u = slots[s].utilization[i];
        const double idle_watts = fleet[i].curve.idle_watts();
        if (u == 0.0) {
          energy.push_back(idle_watts * (state.power_fraction - 1.0) *
                           trace.slot_hours / 1000.0);
          idle_energy.push_back(idle_watts * state.power_fraction *
                                trace.slot_hours / 1000.0);
          parked_state[i] = cap;
          continue;
        }
        if (parked_state[i] >= 0) {
          const IdleState& from =
              idle.states[static_cast<std::size_t>(parked_state[i])];
          result.wake_count += 1;
          wake_energy.push_back(from.wake_energy_j / 3.6e6);
          energy.push_back(from.wake_energy_j / 3.6e6);
          const double gap =
              std::min(from.wake_latency_s, slot_seconds) / slot_seconds;
          const double lost = u * fleet[i].curve.peak_ops() * gap *
                              trace.slot_hours * 3600.0 / 1e9;
          wake_lost.push_back(lost);
          served.push_back(-lost);
        }
        parked_state[i] = -1;
      }
    }
  }
  result.energy_kwh = exact_total(energy);
  result.served_gops = exact_total(served);
  result.idle_energy_kwh = exact_total(idle_energy);
  result.wake_energy_kwh = exact_total(wake_energy);
  result.wake_lost_gops = exact_total(wake_lost);
  const double joules = result.energy_kwh * 3.6e6;
  result.avg_efficiency =
      joules > 0.0 ? result.served_gops * 1e9 / joules : 0.0;
  return result;
}

/// Per-slot reference autoscaler: a linear scan grows the active prefix one
/// server at a time, and each slot's power is the exact sum of its active
/// servers' terms, as are the day's energy and served work of the per-slot
/// terms.
AutoscaleResult reference_autoscale(
    const std::vector<dataset::ServerRecord>& fleet, const DemandTrace& trace,
    const AutoscalerConfig& config) {
  const auto order = reference_order(
      fleet, [](const auto& r) { return metrics::overall_score(r.curve); });
  const double capacity = reference_capacity(fleet);
  const auto prefix_capacity = [&](std::size_t count) {
    double sum = 0.0;
    for (std::size_t k = 0; k < count; ++k) {
      sum += fleet[order[k]].curve.peak_ops();
    }
    return sum;
  };
  AutoscaleResult result;
  std::vector<double> energy;
  std::vector<double> served;
  int active = 0;
  for (const double demand : trace.demand) {
    const double demand_ops = demand * capacity;
    int needed = 0;
    double needed_capacity = 0.0;
    while (needed < static_cast<int>(fleet.size()) &&
           needed_capacity * config.target_utilization < demand_ops) {
      needed_capacity +=
          fleet[order[static_cast<std::size_t>(needed)]].curve.peak_ops();
      ++needed;
    }
    int next_active = active;
    if (needed > active || active - needed > config.hysteresis_servers) {
      next_active = needed;
    }
    ScaleSlot slot;
    slot.demand = demand;
    slot.wakes = std::max(0, next_active - active);
    active = std::max(next_active, demand_ops > 0.0 ? 1 : 0);
    slot.active_servers = active;
    const double active_capacity =
        prefix_capacity(static_cast<std::size_t>(active));
    const double utilization =
        active_capacity > 0.0 ? std::min(1.0, demand_ops / active_capacity)
                              : 0.0;
    std::vector<double> power;
    for (int k = 0; k < active; ++k) {
      const auto& curve = fleet[order[static_cast<std::size_t>(k)]].curve;
      power.push_back(curve.normalized_power(utilization) *
                      curve.peak_watts());
    }
    slot.power_watts = exact_total(power);
    energy.push_back(slot.power_watts * trace.slot_hours / 1000.0 +
                     slot.wakes * config.wake_penalty_wh / 1000.0);
    served.push_back(std::min(demand_ops, active_capacity) *
                     trace.slot_hours * 3600.0 / 1e9);
    result.slots.push_back(slot);
  }
  result.energy_kwh = exact_total(energy);
  result.served_gops = exact_total(served);
  const double joules = result.energy_kwh * 3.6e6;
  result.avg_efficiency =
      joules > 0.0 ? result.served_gops * 1e9 / joules : 0.0;
  return result;
}

/// Hand-made trace: repeated levels, +0.0 and -0.0 slots (distinct level
/// keys), zero-demand slots after small ones (the autoscaler's hysteresis
/// keeps servers on through them: one utilisation, two active prefixes),
/// and a per-slot idle cap that differs between slots of one level.
DemandTrace repeated_levels_trace() {
  DemandTrace trace;
  trace.demand = {0.0, 0.3, 0.0, -0.0, 0.3,  0.62, 0.0, 0.62,
                  -0.0, 1.0, 0.3, 0.02, 0.0, 0.05, 0.05};
  trace.slot_hours = 0.5;
  trace.max_idle_state = {4, 4, 4, 1, 2, 4, 0, 3, 4, 4, 1, 4, 2, 4, 3};
  return trace;
}
constexpr std::uint64_t kRepeatedLevelsTraceLevels = 7;

const PlacementPolicy& policy_by_name(const std::string& name) {
  static const PackToFullPolicy pack;
  static const BalancedPolicy balanced;
  static const OptimalRegionPolicy optimal;
  if (name == "pack-to-full") return pack;
  if (name == "balanced") return balanced;
  return optimal;
}

// --- Fleet construction ----------------------------------------------------

TEST(FleetBuild, ColumnsAreBitwiseCopiesOfPerRecordMetrics) {
  const auto records = make_fleet(100);
  const auto built = Fleet::build(records);
  ASSERT_TRUE(built.ok()) << built.error().message;
  const Fleet& fleet = built.value();
  ASSERT_EQ(fleet.size(), records.size());

  std::vector<double> capacity_terms;
  std::vector<double> idle_terms;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& curve = records[i].curve;
    EXPECT_EQ(fleet.peak_ops()[i], curve.peak_ops());
    EXPECT_EQ(fleet.peak_watts()[i], curve.peak_watts());
    EXPECT_EQ(fleet.idle_watts()[i], curve.idle_watts());
    EXPECT_EQ(fleet.ep()[i], metrics::energy_proportionality(curve));
    EXPECT_EQ(fleet.overall_score()[i], metrics::overall_score(curve));
    EXPECT_EQ(fleet.peak_ee_value()[i], metrics::peak_ee(curve).value);
    EXPECT_EQ(fleet.peak_ee_utilization()[i],
              metrics::peak_ee_utilization(curve));
    EXPECT_EQ(fleet.ee_at_full()[i],
              metrics::ee_at_level(curve, metrics::kNumLoadLevels - 1));
    capacity_terms.push_back(curve.peak_ops());
    idle_terms.push_back(curve.idle_watts());
  }
  EXPECT_EQ(fleet.capacity_ops(), exact_total(capacity_terms));
  EXPECT_EQ(fleet.total_idle_watts(), exact_total(idle_terms));
}

TEST(FleetBuild, NormalizedPowerMatchesCurveBitwise) {
  const auto records = make_fleet(20);
  const Fleet fleet = Fleet::from_records(records);
  // Utilisations 4 ULP either side of every knot, where segment selection
  // is most fragile, plus a few interior points.
  std::vector<double> utils = {0.03, 0.37, 0.71, 0.99};
  for (std::size_t k = 0; k <= metrics::kNumLoadLevels; ++k) {
    const double knot = k == 0 ? 0.0 : metrics::kLoadLevels[k - 1];
    utils.push_back(knot);
    double lo = knot;
    double hi = knot;
    for (int step = 0; step < 4; ++step) {
      lo = std::nextafter(lo, 0.0);
      hi = std::nextafter(hi, 1.0);
      utils.push_back(lo);
      utils.push_back(hi);
    }
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    for (const double u : utils) {
      EXPECT_EQ(fleet.normalized_power(i, u),
                records[i].curve.normalized_power(u))
          << "server " << i << " u = " << u;
    }
    for (const double u :
         {-0.001, 1.001, std::numeric_limits<double>::quiet_NaN()}) {
      EXPECT_THROW(static_cast<void>(fleet.normalized_power(i, u)),
                   ContractViolation)
          << "u = " << u;
    }
  }
}

TEST(FleetBuild, RejectsEmptyFleet) {
  const std::vector<dataset::ServerRecord> empty;
  const auto built = Fleet::build(empty);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.error().message, "fleet is empty");
}

TEST(FleetBuild, RejectsInvalidCurveNamingTheServer) {
  auto records = make_fleet(3);
  records[1].curve = metrics::PowerCurve{};  // all-zero: fails validate()
  const auto built = Fleet::build(records);
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().message.find("server 2: "), std::string::npos)
      << built.error().message;
}

/// Every curve-validation failure mode must surface through Fleet::build
/// with the offending server named and the kFailedPrecondition code intact —
/// the serve daemon forwards this exact message to admin clients, so the
/// context is part of the contract (tests/serve_integration_test.cpp checks
/// the wire side; this pins the build side for each failure mode).
TEST(FleetBuild, NamesTheServerForEveryCurveFailureMode) {
  struct FailureCase {
    const char* name;
    std::function<void(metrics::PowerCurve&)> corrupt;
    const char* fragment;
  };
  const auto rebuild = [](const metrics::PowerCurve& curve, double idle,
                          const std::function<void(
                              std::array<double, metrics::kNumLoadLevels>&,
                              std::array<double, metrics::kNumLoadLevels>&)>&
                              mutate) {
    std::array<double, metrics::kNumLoadLevels> watts{};
    std::array<double, metrics::kNumLoadLevels> ops{};
    for (std::size_t i = 0; i < metrics::kNumLoadLevels; ++i) {
      watts[i] = curve.watts_at_level(i);
      ops[i] = curve.ops_at_level(i);
    }
    mutate(watts, ops);
    return metrics::PowerCurve(watts, ops, idle);
  };
  const FailureCase cases[] = {
      {"non-positive idle",
       [&rebuild](metrics::PowerCurve& curve) {
         curve = rebuild(curve, 0.0, [](auto&, auto&) {});
       },
       "idle power must be > 0"},
      {"non-finite power",
       [&rebuild](metrics::PowerCurve& curve) {
         curve = rebuild(curve, curve.idle_watts(), [](auto& watts, auto&) {
           watts[4] = std::numeric_limits<double>::infinity();
         });
       },
       "power at level 4 must be finite"},
      {"negative ops",
       [&rebuild](metrics::PowerCurve& curve) {
         curve = rebuild(curve, curve.idle_watts(),
                         [](auto&, auto& ops) { ops[0] = -1.0; });
       },
       "ops at level 0 must be finite and >= 0"},
      {"decreasing ops",
       [&rebuild](metrics::PowerCurve& curve) {
         curve = rebuild(curve, curve.idle_watts(), [](auto&, auto& ops) {
           std::swap(ops[2], ops[7]);
         });
       },
       "ops must be non-decreasing"},
      {"idle above peak",
       [&rebuild](metrics::PowerCurve& curve) {
         curve = rebuild(curve, 2.0 * curve.peak_watts(),
                         [](auto&, auto&) {});
       },
       "idle power exceeds peak power"},
  };
  for (const FailureCase& failure : cases) {
    auto records = make_fleet(4);
    failure.corrupt(records[2].curve);
    const auto built = Fleet::build(records);
    ASSERT_FALSE(built.ok()) << failure.name;
    EXPECT_EQ(built.error().code, Error::Code::kFailedPrecondition)
        << failure.name;
    EXPECT_NE(built.error().message.find("server 3: "), std::string::npos)
        << failure.name << ": " << built.error().message;
    EXPECT_NE(built.error().message.find(failure.fragment), std::string::npos)
        << failure.name << ": " << built.error().message;
  }
}

TEST(FleetBuild, OptimalRegionTopsMatchPerRecordRegions) {
  const auto records = make_fleet(50);
  const Fleet fleet = Fleet::from_records(records);
  const auto tops = fleet.default_optimal_region_tops();
  ASSERT_EQ(tops.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Region region = optimal_region(records[i].curve, kDefaultEeThreshold);
    EXPECT_EQ(tops[i], region.empty() ? 1.0 : region.hi);
  }
}

// --- Equivalence with the scalar reference at 1 / 100 / 5000 servers -------

class FleetEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FleetEquivalence, EvaluateIsByteIdenticalToScalarReference) {
  const auto records = make_fleet(GetParam());
  const auto built = Fleet::build(records);
  ASSERT_TRUE(built.ok()) << built.error().message;
  for (const char* name : {"pack-to-full", "balanced", "optimal-region"}) {
    for (const double demand : {0.0, 0.05, 0.3, 0.7, 1.0}) {
      const auto via_fleet =
          evaluate(policy_by_name(name), built.value(), demand);
      ASSERT_TRUE(via_fleet.ok()) << via_fleet.error().message;
      const Assignment ref = reference_evaluate(records, name, demand);
      ASSERT_EQ(via_fleet.value().utilization.size(), ref.utilization.size());
      for (std::size_t i = 0; i < ref.utilization.size(); ++i) {
        ASSERT_EQ(via_fleet.value().utilization[i], ref.utilization[i])
            << name << " demand " << demand << " server " << i;
      }
      EXPECT_EQ(via_fleet.value().total_power_watts, ref.total_power_watts);
      EXPECT_EQ(via_fleet.value().total_ops, ref.total_ops);
    }
  }
}

TEST_P(FleetEquivalence, FromRecordsAdapterMatchesValidatedBuild) {
  const auto records = make_fleet(GetParam());
  const auto built = Fleet::build(records);
  ASSERT_TRUE(built.ok()) << built.error().message;
  const auto trace = make_trace("diurnal").value();

  const auto day_fleet =
      compare_policies_over_day(built.value(), trace);
  const auto day_legacy =
      compare_policies_over_day(Fleet::from_records(records), trace);
  ASSERT_TRUE(day_fleet.ok());
  ASSERT_TRUE(day_legacy.ok());
  ASSERT_EQ(day_fleet.value().size(), day_legacy.value().size());
  for (std::size_t i = 0; i < day_fleet.value().size(); ++i) {
    EXPECT_EQ(day_fleet.value()[i].policy, day_legacy.value()[i].policy);
    EXPECT_EQ(day_fleet.value()[i].energy_kwh,
              day_legacy.value()[i].energy_kwh);
    EXPECT_EQ(day_fleet.value()[i].served_gops,
              day_legacy.value()[i].served_gops);
    EXPECT_EQ(day_fleet.value()[i].avg_efficiency,
              day_legacy.value()[i].avg_efficiency);
  }

  const auto scaled_fleet = autoscale_over_day(built.value(), trace);
  const auto scaled_legacy =
      autoscale_over_day(Fleet::from_records(records), trace);
  ASSERT_TRUE(scaled_fleet.ok());
  ASSERT_TRUE(scaled_legacy.ok());
  EXPECT_EQ(scaled_fleet.value().energy_kwh, scaled_legacy.value().energy_kwh);
  EXPECT_EQ(scaled_fleet.value().served_gops,
            scaled_legacy.value().served_gops);
  ASSERT_EQ(scaled_fleet.value().slots.size(),
            scaled_legacy.value().slots.size());
  for (std::size_t s = 0; s < scaled_fleet.value().slots.size(); ++s) {
    EXPECT_EQ(scaled_fleet.value().slots[s].power_watts,
              scaled_legacy.value().slots[s].power_watts);
    EXPECT_EQ(scaled_fleet.value().slots[s].active_servers,
              scaled_legacy.value().slots[s].active_servers);
  }

  const auto guide_fleet = build_operating_guide(built.value());
  const auto guide_legacy =
      build_operating_guide(Fleet::from_records(records));
  ASSERT_TRUE(guide_fleet.ok());
  ASSERT_TRUE(guide_legacy.ok());
  EXPECT_EQ(render_guide(guide_fleet.value()),
            render_guide(guide_legacy.value()));
  EXPECT_EQ(guide_fleet.value().efficient_capacity_fraction,
            guide_legacy.value().efficient_capacity_fraction);

  const OptimalRegionPolicy optimal;
  const auto cap_fleet =
      max_throughput_under_cap(optimal, built.value(), 1e9);
  const auto cap_legacy =
      max_throughput_under_cap(optimal, Fleet::from_records(records), 1e9);
  ASSERT_TRUE(cap_fleet.ok());
  ASSERT_TRUE(cap_legacy.ok());
  EXPECT_EQ(cap_fleet.value().max_demand, cap_legacy.value().max_demand);
  EXPECT_EQ(cap_fleet.value().max_throughput,
            cap_legacy.value().max_throughput);
}

TEST_P(FleetEquivalence, DayMatchesPerSlotReferenceOverTheTraceRegistry) {
  const auto records = make_fleet(GetParam());
  const auto built = Fleet::build(records);
  ASSERT_TRUE(built.ok()) << built.error().message;
  const Fleet& fleet = built.value();

  std::vector<std::pair<std::string, DemandTrace>> traces;
  for (const std::string_view name : trace_names()) {
    auto trace = make_trace(name);
    ASSERT_TRUE(trace.ok()) << trace.error().message;
    traces.emplace_back(std::string(name), std::move(trace).take());
  }
  traces.emplace_back("repeated-levels", repeated_levels_trace());

  for (const auto& [trace_name, trace] : traces) {
    for (const char* policy : {"pack-to-full", "balanced", "optimal-region"}) {
      std::vector<Assignment> slots;
      for (const double demand : trace.demand) {
        slots.push_back(reference_evaluate(records, policy, demand));
      }
      for (const IdleModel& idle : {IdleModel::none(), IdleModel::acpi()}) {
        const auto day = simulate_day(policy_by_name(policy), fleet, trace, idle);
        ASSERT_TRUE(day.ok()) << day.error().message;
        const DayResult ref = reference_day(records, slots, trace, idle);
        const std::string where = trace_name + " " + policy + " idle " +
                                  std::to_string(idle.states.size());
        EXPECT_EQ(day.value().policy, policy) << where;
        EXPECT_EQ(day.value().energy_kwh, ref.energy_kwh) << where;
        EXPECT_EQ(day.value().served_gops, ref.served_gops) << where;
        EXPECT_EQ(day.value().avg_efficiency, ref.avg_efficiency) << where;
        EXPECT_EQ(day.value().idle_energy_kwh, ref.idle_energy_kwh) << where;
        EXPECT_EQ(day.value().wake_energy_kwh, ref.wake_energy_kwh) << where;
        EXPECT_EQ(day.value().wake_lost_gops, ref.wake_lost_gops) << where;
        EXPECT_EQ(day.value().wake_count, ref.wake_count) << where;
      }
    }
    for (const int hysteresis : {0, 1, 5}) {
      AutoscalerConfig config;
      config.hysteresis_servers = hysteresis;
      const auto scaled = autoscale_over_day(fleet, trace, config);
      ASSERT_TRUE(scaled.ok()) << scaled.error().message;
      const AutoscaleResult ref = reference_autoscale(records, trace, config);
      const std::string where =
          trace_name + " hysteresis " + std::to_string(hysteresis);
      EXPECT_EQ(scaled.value().energy_kwh, ref.energy_kwh) << where;
      EXPECT_EQ(scaled.value().served_gops, ref.served_gops) << where;
      EXPECT_EQ(scaled.value().avg_efficiency, ref.avg_efficiency) << where;
      ASSERT_EQ(scaled.value().slots.size(), ref.slots.size()) << where;
      for (std::size_t s = 0; s < ref.slots.size(); ++s) {
        EXPECT_EQ(scaled.value().slots[s].demand, ref.slots[s].demand)
            << where << " slot " << s;
        EXPECT_EQ(scaled.value().slots[s].active_servers,
                  ref.slots[s].active_servers)
            << where << " slot " << s;
        EXPECT_EQ(scaled.value().slots[s].power_watts,
                  ref.slots[s].power_watts)
            << where << " slot " << s;
        EXPECT_EQ(scaled.value().slots[s].wakes, ref.slots[s].wakes)
            << where << " slot " << s;
      }
    }
  }

  // Levels are keyed on bit patterns: the hand-made trace's fifteen slots
  // are seven levels, +0.0 and -0.0 apart.
  telemetry::reset();
  telemetry::set_enabled(true);
  ASSERT_TRUE(simulate_day(policy_by_name("balanced"), fleet,
                           repeated_levels_trace())
                  .ok());
  const auto snap = telemetry::snapshot();
  telemetry::set_enabled(false);
  telemetry::reset();
  const auto* levels = snap.find_counter("cluster.day.levels");
  const auto* evaluations = snap.find_counter("cluster.evaluations");
  ASSERT_NE(levels, nullptr);
  ASSERT_NE(evaluations, nullptr);
  EXPECT_EQ(levels->value, kRepeatedLevelsTraceLevels);
  EXPECT_EQ(evaluations->value, kRepeatedLevelsTraceLevels * fleet.size());
}

INSTANTIATE_TEST_SUITE_P(Sizes, FleetEquivalence,
                         ::testing::Values(std::size_t{1}, std::size_t{100},
                                           std::size_t{5000}));

// --- Order freedom: a shuffled fleet accounts the same bits ---------------

TEST(FleetOrder, ShuffledRecordsGiveBitIdenticalDaysAndAutoscaling) {
  // Every total is an exact sum, and every fill order breaks ties by
  // record id, so the row order of the records cannot show in any result.
  const auto records = make_fleet(700);
  auto shuffled = records;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (std::size_t k = shuffled.size(); k > 1; --k) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(shuffled[k - 1], shuffled[(state >> 33) % k]);
  }
  const auto a = Fleet::build(records);
  const auto b = Fleet::build(shuffled);
  ASSERT_TRUE(a.ok() && b.ok());
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  EXPECT_EQ(bits(a.value().capacity_ops()), bits(b.value().capacity_ops()));
  EXPECT_EQ(bits(a.value().total_idle_watts()),
            bits(b.value().total_idle_watts()));

  std::vector<std::pair<std::string, DemandTrace>> traces;
  for (const std::string_view name : trace_names()) {
    auto trace = make_trace(name);
    ASSERT_TRUE(trace.ok());
    traces.emplace_back(std::string(name), std::move(trace).take());
  }
  traces.emplace_back("repeated-levels", repeated_levels_trace());
  for (const auto& [trace_name, trace] : traces) {
    for (const char* policy : {"pack-to-full", "balanced", "optimal-region"}) {
      for (const IdleModel& idle : {IdleModel::none(), IdleModel::acpi()}) {
        const auto x = simulate_day(policy_by_name(policy), a.value(), trace,
                                    idle);
        const auto y = simulate_day(policy_by_name(policy), b.value(), trace,
                                    idle);
        ASSERT_TRUE(x.ok() && y.ok());
        const std::string where = trace_name + " " + policy + " idle " +
                                  std::to_string(idle.states.size());
        EXPECT_EQ(bits(x.value().energy_kwh), bits(y.value().energy_kwh))
            << where;
        EXPECT_EQ(bits(x.value().served_gops), bits(y.value().served_gops))
            << where;
        EXPECT_EQ(bits(x.value().avg_efficiency),
                  bits(y.value().avg_efficiency))
            << where;
        EXPECT_EQ(bits(x.value().idle_energy_kwh),
                  bits(y.value().idle_energy_kwh))
            << where;
        EXPECT_EQ(bits(x.value().wake_energy_kwh),
                  bits(y.value().wake_energy_kwh))
            << where;
        EXPECT_EQ(bits(x.value().wake_lost_gops),
                  bits(y.value().wake_lost_gops))
            << where;
        EXPECT_EQ(x.value().wake_count, y.value().wake_count) << where;
      }
    }
    const auto x = autoscale_over_day(a.value(), trace);
    const auto y = autoscale_over_day(b.value(), trace);
    ASSERT_TRUE(x.ok() && y.ok());
    EXPECT_EQ(bits(x.value().energy_kwh), bits(y.value().energy_kwh))
        << trace_name;
    EXPECT_EQ(bits(x.value().served_gops), bits(y.value().served_gops))
        << trace_name;
    EXPECT_EQ(bits(x.value().avg_efficiency), bits(y.value().avg_efficiency))
        << trace_name;
    ASSERT_EQ(x.value().slots.size(), y.value().slots.size());
    for (std::size_t s = 0; s < x.value().slots.size(); ++s) {
      EXPECT_EQ(bits(x.value().slots[s].power_watts),
                bits(y.value().slots[s].power_watts))
          << trace_name << " slot " << s;
      EXPECT_EQ(x.value().slots[s].active_servers,
                y.value().slots[s].active_servers)
          << trace_name << " slot " << s;
    }
  }
}

// --- Concurrency: 8 threads share one Fleet ---------------------------------

TEST(FleetConcurrency, EightThreadsShareOneFleetWithIdenticalResults) {
  const auto records = make_fleet(100);
  const auto trace = make_trace("diurnal").value();

  // Single-threaded baseline through its own fleet.
  const auto baseline =
      compare_policies_over_day(Fleet::from_records(records), trace);
  ASSERT_TRUE(baseline.ok());

  const auto built = Fleet::build(records);
  ASSERT_TRUE(built.ok()) << built.error().message;
  const Fleet& fleet = built.value();
  constexpr int kThreads = 8;
  std::vector<std::vector<DayResult>> per_thread(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      auto day = compare_policies_over_day(fleet, trace);
      ASSERT_TRUE(day.ok());
      per_thread[static_cast<std::size_t>(t)] = std::move(day).take();
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& result : per_thread) {
    ASSERT_EQ(result.size(), baseline.value().size());
    for (std::size_t i = 0; i < result.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result[i].energy_kwh),
                std::bit_cast<std::uint64_t>(baseline.value()[i].energy_kwh))
          << result[i].policy;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result[i].served_gops),
                std::bit_cast<std::uint64_t>(baseline.value()[i].served_gops))
          << result[i].policy;
    }
  }
}

/// Server `r`'s sheet with its full-load ops set to `ee` times its
/// full-load watts, so its ee_at_full reads about `ee` (exactly, for zeros
/// and denorm_min) and its peak EE and overall score move with it.
void set_full_load_ee(dataset::ServerRecord& r, double ee) {
  std::array<double, metrics::kNumLoadLevels> watts{};
  std::array<double, metrics::kNumLoadLevels> ops{};
  for (std::size_t level = 0; level < metrics::kNumLoadLevels; ++level) {
    watts[level] = r.curve.watts_at_level(level);
    ops[level] = r.curve.ops_at_level(level);
  }
  ops.back() = ee * watts.back();
  r.curve = metrics::PowerCurve(watts, ops, r.curve.idle_watts());
}

TEST(FleetConcurrency, ServerOrdersSortOnceForAllThreadsAndSurviveAMove) {
  // Each order is the permutation the comparison (score descending, record
  // id ascending) defines, on every input a score-bits radix sort could get
  // wrong: runs of equal scores whose ids fall as the index rises, -0.0
  // beside +0.0 (equal, so the id decides), subnormals of either sign,
  // negative and huge scores, and fleets of 0, 1, 2 and one either side of
  // the staged state's snapshot stride.
  constexpr double kSpecial[] = {0.0,
                                 -0.0,
                                 std::numeric_limits<double>::denorm_min(),
                                 -std::numeric_limits<double>::denorm_min(),
                                 1e-310,
                                 -1e-310,
                                 -1.0,
                                 -5e5,
                                 1e300,
                                 -1e300,
                                 0.0,
                                 -0.0};
  std::vector<std::pair<std::string, std::vector<dataset::ServerRecord>>>
      cases;
  {
    // A third of the fleet duplicated under fresh ids: every score column
    // has ties for the record-id tiebreak to settle.
    auto records = make_fleet(300);
    for (std::size_t i = 0; i < 100; ++i) {
      dataset::ServerRecord copy = records[i];
      copy.id = 1000 - static_cast<int>(i);
      records.push_back(std::move(copy));
    }
    cases.emplace_back("duplicates", std::move(records));
  }
  constexpr std::size_t kStride = StagedState::kSnapshotStride;
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, kStride - 1,
        kStride + 1}) {
    // make_fleet's sheets repeat with the index, and ids fall as it rises;
    // every third server takes the next special score.
    auto records = make_fleet(size);
    for (std::size_t i = 0; i < size; ++i) {
      records[i].id = 5000 - static_cast<int>(i);
      if (i % 3 == 0 || size <= 2) {
        set_full_load_ee(records[i], kSpecial[(i / 3) % std::size(kSpecial)]);
      }
    }
    if (size == 2) set_full_load_ee(records[1], -0.0);  // beside +0.0
    cases.emplace_back("size " + std::to_string(size), std::move(records));
  }

  for (const auto& [label, records] : cases) {
    Fleet fleet = Fleet::from_records(records);
    const auto orders_of = [](const Fleet& f) {
      return std::array{f.order_by_ee_at_full(), f.order_by_peak_ee_value(),
                        f.order_by_overall_score()};
    };
    const std::array scores{fleet.ee_at_full(), fleet.peak_ee_value(),
                            fleet.overall_score()};
    const std::array names{"ee_at_full", "peak_ee_value", "overall_score"};

    constexpr int kThreads = 8;
    std::vector<std::array<std::span<const std::size_t>, 3>> seen(kThreads);
    std::vector<std::span<const double>> seen_tops(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        seen[static_cast<std::size_t>(t)] = orders_of(fleet);
        seen_tops[static_cast<std::size_t>(t)] =
            fleet.default_optimal_region_tops();
      });
    }
    for (auto& thread : threads) thread.join();

    // The default-threshold region tops are computed once, too, and equal
    // each server's own region top at that threshold.
    if (label == "duplicates") {
      std::vector<double> tops;
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        const Region region =
            optimal_region(fleet.curve(i), kDefaultEeThreshold);
        tops.push_back(region.empty() ? 1.0 : region.hi);
      }
      for (const auto& per_thread : seen_tops) {
        EXPECT_EQ(per_thread.data(), seen_tops[0].data());
        EXPECT_TRUE(std::equal(per_thread.begin(), per_thread.end(),
                               tops.begin(), tops.end()));
      }
    }

    std::array<std::vector<std::size_t>, 3> expected;
    for (std::size_t c = 0; c < expected.size(); ++c) {
      const std::span<const double> score = scores[c];
      expected[c].resize(fleet.size());
      std::iota(expected[c].begin(), expected[c].end(), std::size_t{0});
      std::sort(expected[c].begin(), expected[c].end(),
                [&](std::size_t a, std::size_t b) {
                  if (score[a] != score[b]) return score[a] > score[b];
                  return records[a].id < records[b].id;
                });
      for (const auto& per_thread : seen) {
        // One shared vector, not a copy per caller.
        EXPECT_EQ(per_thread[c].data(), seen[0][c].data())
            << label << " " << names[c];
        EXPECT_TRUE(std::equal(per_thread[c].begin(), per_thread[c].end(),
                               expected[c].begin(), expected[c].end()))
            << label << " " << names[c];
      }
    }

    // The orders and tops move with the Fleet: no re-sort, same storage.
    const Fleet moved = std::move(fleet);
    EXPECT_EQ(moved.default_optimal_region_tops().data(),
              seen_tops[0].data());
    const auto moved_orders = orders_of(moved);
    for (std::size_t c = 0; c < expected.size(); ++c) {
      EXPECT_EQ(moved_orders[c].data(), seen[0][c].data())
          << label << " " << names[c];
      EXPECT_TRUE(std::equal(moved_orders[c].begin(), moved_orders[c].end(),
                             expected[c].begin(), expected[c].end()))
          << label << " " << names[c];
    }
  }
}

TEST(FleetConcurrency, StagedStateBuildsOnceForAllThreadsAndSurvivesAMove) {
  // Eight threads account both built-in staged policies on a fresh Fleet
  // at once, so each reaches the Fleet's kept staged state first: each
  // policy's is built once, every thread reads the same one, and it moves
  // with the Fleet.
  const auto records = make_fleet(1200);
  const auto trace = make_trace("diurnal").value();
  const PackToFullPolicy pack;
  const OptimalRegionPolicy region;
  const std::array<const PlacementPolicy*, 2> policies{&pack, &region};
  const std::array kinds{Fleet::StagedPolicy::kPackToFull,
                         Fleet::StagedPolicy::kOptimalRegion};
  std::array<std::vector<Assignment>, 2> baseline;
  {
    const Fleet other = Fleet::from_records(records);
    for (std::size_t p = 0; p < policies.size(); ++p) {
      auto account = account_batch(*policies[p], other, trace.demand);
      ASSERT_TRUE(account.ok()) << account.error().message;
      baseline[p] = std::move(account.value().totals);
    }
  }
  const auto expect_baseline = [&](const std::vector<Assignment>& totals,
                                   std::size_t p) {
    ASSERT_EQ(totals.size(), baseline[p].size());
    for (std::size_t d = 0; d < totals.size(); ++d) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(totals[d].total_power_watts),
                std::bit_cast<std::uint64_t>(baseline[p][d].total_power_watts))
          << policies[p]->name() << " level " << d;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(totals[d].total_ops),
                std::bit_cast<std::uint64_t>(baseline[p][d].total_ops))
          << policies[p]->name() << " level " << d;
    }
  };

  Fleet fleet = Fleet::from_records(records);
  telemetry::reset();
  telemetry::set_enabled(true);
  constexpr int kThreads = 8;
  std::vector<std::array<const void*, 2>> seen(kThreads);
  std::vector<std::array<std::vector<Assignment>, 2>> totals(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto k = static_cast<std::size_t>(t);
      start.arrive_and_wait();
      for (std::size_t p = 0; p < policies.size(); ++p) {
        // Half the threads start with the other policy.
        const std::size_t q = (p + k) % policies.size();
        auto account = account_batch(*policies[q], fleet, trace.demand);
        if (account.ok()) totals[k][q] = std::move(account.value().totals);
        seen[k][q] = fleet.staged_state(kinds[q]).get();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto snap = telemetry::snapshot();
  telemetry::set_enabled(false);
  telemetry::reset();
  const auto* builds = snap.find_counter("staged_state.builds");
  ASSERT_NE(builds, nullptr);
  EXPECT_EQ(builds->value, policies.size());

  for (std::size_t k = 0; k < seen.size(); ++k) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      EXPECT_NE(seen[k][p], nullptr);
      EXPECT_EQ(seen[k][p], seen[0][p]) << policies[p]->name();
      expect_baseline(totals[k][p], p);
    }
  }
  EXPECT_NE(seen[0][0], seen[0][1]);

  const Fleet moved = std::move(fleet);
  for (std::size_t p = 0; p < policies.size(); ++p) {
    EXPECT_EQ(moved.staged_state(kinds[p]).get(), seen[0][p])
        << policies[p]->name();
    auto account = account_batch(*policies[p], moved, trace.demand);
    ASSERT_TRUE(account.ok()) << account.error().message;
    EXPECT_EQ(account.value().staged.get(), seen[0][p]);
    expect_baseline(account.value().totals, p);
  }
}

}  // namespace
}  // namespace epserve::cluster
