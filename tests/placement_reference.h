// Dense reference placement and day accounting, for tests only: the greedy
// fill that wrote one utilisation vector per demand level, the sums over
// those vectors, and the slot x server idle pass that read them. Each total
// is the exact sum of the per-server terms it collects
// (tests/fsum_reference.h). src/cluster now plans and accounts without
// those vectors (FillPlans, account_batch, range sums over the fill order);
// these are the independent baseline its bits must match.
// Everything reads the Fleet's own columns, orders, grid rows and curves, so
// a mismatch points at the plan path, not at the Fleet.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "cluster/day_simulation.h"
#include "cluster/fleet.h"
#include "cluster/idle_model.h"
#include "cluster/placement.h"
#include "cluster/trace.h"
#include "cluster/working_region.h"
#include "dataset/record.h"
#include "fsum_reference.h"
#include "metrics/power_curve.h"

namespace epserve::cluster::reference {

/// A reference total: the exact sum of its terms, after checking that the
/// sequential sum the reference once took lies within the standard error
/// bound of it.
inline double exact_total(const std::vector<double>& terms) {
  const double exact = fsum_reference::fsum(terms);
  EXPECT_TRUE(fsum_reference::within_sequential_bound(
      terms, fsum_reference::sequential_sum(terms), exact))
      << "sequential sum of " << terms.size() << " terms";
  return exact;
}

/// Greedy fill: walk servers in `order`, loading each up to its cap (ops),
/// until `remaining_ops` is exhausted. Adds to existing utilisations.
inline void greedy_fill(const Fleet& fleet, std::span<const std::size_t> order,
                        const std::vector<double>& cap_util,
                        std::vector<double>& util, double& remaining_ops) {
  const std::span<const double> peak_ops = fleet.peak_ops();
  for (const auto idx : order) {
    if (remaining_ops <= 0.0) break;
    const double headroom_util = cap_util[idx] - util[idx];
    if (headroom_util <= 0.0) continue;
    const double headroom_ops = headroom_util * peak_ops[idx];
    const double take = std::min(headroom_ops, remaining_ops);
    util[idx] += take / peak_ops[idx];
    remaining_ops -= take;
  }
}

/// Top of each server's optimal working region at kDefaultEeThreshold (1.0
/// for an empty region), one optimal_region() call per server.
inline std::vector<double> region_tops(const Fleet& fleet) {
  std::vector<double> tops;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const Region region = optimal_region(fleet.curve(i), kDefaultEeThreshold);
    tops.push_back(region.empty() ? 1.0 : region.hi);
  }
  return tops;
}

/// One utilisation vector per demand under the named built-in policy
/// ("pack-to-full", "balanced", "optimal-region" at kDefaultEeThreshold).
inline std::vector<std::vector<double>> place_batch(
    const Fleet& fleet, std::string_view policy,
    std::span<const double> demands) {
  std::vector<std::vector<double>> out;
  const std::vector<double> caps(fleet.size(), 1.0);
  const std::vector<double> region_top = region_tops(fleet);
  for (const double demand : demands) {
    if (policy == "balanced") {
      out.emplace_back(fleet.size(), demand);
      continue;
    }
    std::vector<double> util(fleet.size(), 0.0);
    double remaining = demand * fleet.capacity_ops();
    if (policy == "pack-to-full") {
      greedy_fill(fleet, fleet.order_by_ee_at_full(), caps, util, remaining);
    } else {
      const auto order = fleet.order_by_peak_ee_value();
      greedy_fill(fleet, order, region_top, util, remaining);
      if (remaining > 0.0) greedy_fill(fleet, order, caps, util, remaining);
    }
    out.push_back(std::move(util));
  }
  return out;
}

/// Fleet power and ops of one utilisation vector through the fleet's grid
/// rows, each the exact sum of its per-server terms.
inline Assignment account(const Fleet& fleet, std::vector<double> utilization) {
  Assignment assignment;
  assignment.utilization = std::move(utilization);
  std::vector<double> power;
  std::vector<double> ops;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const double clamped = std::clamp(assignment.utilization[i], 0.0, 1.0);
    power.push_back(fleet.normalized_power(i, clamped) * fleet.peak_watts()[i]);
    ops.push_back(clamped * fleet.peak_ops()[i]);
  }
  assignment.total_power_watts = exact_total(power);
  assignment.total_ops = exact_total(ops);
  return assignment;
}

/// A day from one dense vector per slot: slot energy and served work, then
/// the idle pass over every (slot, server); each total is the exact sum of
/// the terms it collects.
inline DayResult day_of(const Fleet& fleet, std::string_view policy,
                        std::vector<std::vector<double>> vectors,
                        const DemandTrace& trace, const IdleModel& idle) {
  DayResult result;
  result.policy = std::string(policy);
  std::vector<Assignment> slots;
  for (auto& util : vectors) {
    slots.push_back(account(fleet, std::move(util)));
  }
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
    const auto idle_watts = fleet.idle_watts();
    const auto peak_ops = fleet.peak_ops();
    std::vector<int> parked_state(fleet.size(), -1);
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const int cap = trace.idle_state_cap(s, idle.deepest());
      const IdleState& state = idle.states[static_cast<std::size_t>(cap)];
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        const double u = slots[s].utilization[i];
        if (u == 0.0) {
          energy.push_back(idle_watts[i] * (state.power_fraction - 1.0) *
                           trace.slot_hours / 1000.0);
          idle_energy.push_back(idle_watts[i] * state.power_fraction *
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
          const double lost =
              u * peak_ops[i] * gap * trace.slot_hours * 3600.0 / 1e9;
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

/// The day of a built-in policy from the greedy fill's vectors.
inline DayResult day(const Fleet& fleet, std::string_view policy,
                     const DemandTrace& trace, const IdleModel& idle) {
  return day_of(fleet, policy, place_batch(fleet, policy, trace.demand), trace,
                idle);
}

/// Heterogeneous fleet for plan-vs-dense checks. Servers cycle through
/// three kinds of measured curve: a quartic power tail whose EE peaks near
/// 60% load (a region top below 1.0, so optimal-region spills into a
/// second stage at high demand), linear power whose EE peaks at full load
/// (region top 1.0: stage 1 fills the server completely, leaving it no
/// stage-2 headroom), and quadratic power whose EE peaks at 10% load (a
/// region top just above 0.1).
inline std::vector<dataset::ServerRecord> mixed_fleet(std::size_t size) {
  std::vector<dataset::ServerRecord> fleet;
  fleet.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    const double peak_ops = 1e6 + 1e5 * static_cast<double>(i % 11);
    const double peak_watts = 250.0 + 10.0 * static_cast<double>(i % 9);
    double idle = 0.0;
    std::array<double, metrics::kNumLoadLevels> watts{};
    std::array<double, metrics::kNumLoadLevels> ops{};
    for (std::size_t k = 0; k < metrics::kNumLoadLevels; ++k) {
      const double u = metrics::kLoadLevels[k];
      ops[k] = peak_ops * u;
      double shape = 0.0;
      switch (i % 4) {
        case 2:  // linear
          idle = peak_watts * (0.3 + 0.05 * static_cast<double>(i % 5));
          shape = u;
          break;
        case 3:  // quadratic
          idle = 0.01 * peak_watts;
          shape = u * u;
          break;
        default: {  // linear plus a quartic tail
          idle = peak_watts * (0.1 + 0.03 * static_cast<double>(i % 6));
          const double linear = 0.4 + 0.05 * static_cast<double>(i % 5);
          shape = linear * u + (1.0 - linear) * u * u * u * u;
          break;
        }
      }
      watts[k] = idle + (peak_watts - idle) * shape;
    }
    dataset::ServerRecord r;
    r.id = static_cast<int>(i) + 1;
    r.curve = metrics::PowerCurve(watts, ops, idle);
    fleet.push_back(std::move(r));
  }
  return fleet;
}

}  // namespace epserve::cluster::reference
