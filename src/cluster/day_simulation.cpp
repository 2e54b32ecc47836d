#include "cluster/day_simulation.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/autoscaler.h"
#include "util/telemetry.h"

namespace epserve::cluster {

Result<DayResult> simulate_day(const PlacementPolicy& policy,
                               const Fleet& fleet, const DemandTrace& trace,
                               const IdleModel& idle) {
  if (trace.demand.empty()) {
    return Error::invalid_argument("trace has no slots");
  }
  if (!(trace.slot_hours > 0.0)) {
    return Error::invalid_argument("slot length must be positive");
  }
  if (!trace.max_idle_state.empty()) {
    if (trace.max_idle_state.size() != trace.demand.size()) {
      return Error::invalid_argument(
          "trace needs one idle-state cap per slot");
    }
    for (const int cap : trace.max_idle_state) {
      if (cap < 0) {
        return Error::invalid_argument("idle-state caps must be >= 0");
      }
    }
  }
  // The trivial model (IdleModel::none()) skips the idle pass entirely, so
  // that path stays bit-identical to the pre-idle-model accounting.
  const bool idle_aware = !idle.trivial();
  if (idle_aware) {
    if (auto valid = idle.validate(); !valid.ok()) return valid.error();
  }
  // Root scope: the policy's whole day reads as `cluster/policy/<name>`
  // whether it runs on the calling thread or a pool worker.
  const telemetry::Span policy_span("cluster/policy/", policy.name(),
                                    telemetry::Span::Scope::kRoot);
  const telemetry::Span span("simulate_day");
  telemetry::count("cluster.day.slots", trace.demand.size());
  // Traces repeat demand levels (weekdays, flat baselines), so the day is one
  // batch accounting over the distinct levels, keyed on the double's bit
  // pattern in first-appearance order; slot s reads level_of[s]. A demand's
  // plan does not depend on the rest of the batch (per-demand fill walk,
  // element-wise kernels), and the slot-order sums below keep their order,
  // so this is bit-identical to evaluating every slot.
  std::vector<double> levels;
  std::vector<std::size_t> level_of(trace.demand.size());
  std::unordered_map<std::uint64_t, std::size_t> level_index;
  for (std::size_t s = 0; s < trace.demand.size(); ++s) {
    const auto [it, added] = level_index.try_emplace(
        std::bit_cast<std::uint64_t>(trace.demand[s]), levels.size());
    if (added) levels.push_back(trace.demand[s]);
    level_of[s] = it->second;
  }
  telemetry::count("cluster.day.levels", levels.size());
  DayResult result;
  result.policy = policy.name();
  auto account = account_batch(policy, fleet, levels);
  if (!account.ok()) return account.error();
  const FillPlans& plans = account.value().plans;
  const std::vector<Assignment>& totals = account.value().totals;
  for (const std::size_t level : level_of) {
    result.energy_kwh +=
        totals[level].total_power_watts * trace.slot_hours / 1000.0;
    result.served_gops +=
        totals[level].total_ops * trace.slot_hours * 3600.0 / 1e9;
  }
  if (idle_aware) {
    // Idle pass, server-index order per slot (deterministic), read straight
    // off each level's plan: whether a server is parked from its one-word
    // key, its utilisation only when it wakes. A parked server (exact
    // utilisation 0.0 — the evaluators charge it active idle power) drops
    // to the deepest state the trace's cap allows; the parked->active
    // transition charges the state's wake energy and forfeits the
    // wake_latency_s head of the slot's served work, at its place in the
    // chain of sums.
    const double slot_seconds = trace.slot_hours * 3600.0;
    const auto idle_watts = fleet.idle_watts();
    const auto peak_ops = fleet.peak_ops();
    // Per-cap residency columns, built on a cap's first slot: what a
    // parked server adds to energy_kwh (its state's draw less the active
    // idle power its level's total already charged) and to idle_energy_kwh.
    std::vector<std::vector<double>> parked_kwh(idle.states.size());
    std::vector<std::vector<double>> residency_kwh(idle.states.size());
    std::vector<int> parked_state(fleet.size(), -1);  // -1 = active
    for (std::size_t s = 0; s < level_of.size(); ++s) {
      const int cap = trace.idle_state_cap(s, idle.deepest());
      const auto state_index = static_cast<std::size_t>(cap);
      if (parked_kwh[state_index].empty()) {
        const IdleState& state = idle.states[state_index];
        parked_kwh[state_index].resize(fleet.size());
        residency_kwh[state_index].resize(fleet.size());
        for (std::size_t i = 0; i < fleet.size(); ++i) {
          parked_kwh[state_index][i] = idle_watts[i] *
                                       (state.power_fraction - 1.0) *
                                       trace.slot_hours / 1000.0;
          residency_kwh[state_index][i] = idle_watts[i] *
                                          state.power_fraction *
                                          trace.slot_hours / 1000.0;
        }
      }
      const std::vector<double>& parked = parked_kwh[state_index];
      const std::vector<double>& residency = residency_kwh[state_index];
      const FillPlans::LevelView utilization =
          plans.view(plans.levels[level_of[s]]);
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        if (utilization.zero(i)) {
          result.energy_kwh += parked[i];
          result.idle_energy_kwh += residency[i];
          parked_state[i] = cap;
          continue;
        }
        if (parked_state[i] >= 0) {
          const double u = utilization[i];
          const IdleState& from =
              idle.states[static_cast<std::size_t>(parked_state[i])];
          result.wake_count += 1;
          result.wake_energy_kwh += from.wake_energy_j / 3.6e6;
          result.energy_kwh += from.wake_energy_j / 3.6e6;
          const double gap =
              std::min(from.wake_latency_s, slot_seconds) / slot_seconds;
          const double lost =
              u * peak_ops[i] * gap * trace.slot_hours * 3600.0 / 1e9;
          result.wake_lost_gops += lost;
          result.served_gops -= lost;
        }
        parked_state[i] = -1;
      }
    }
    telemetry::count("cluster.day.wakes", result.wake_count);
  }
  const double joules = result.energy_kwh * 3.6e6;
  result.avg_efficiency = joules > 0.0 ? result.served_gops * 1e9 / joules : 0.0;
  return result;
}

Result<std::optional<DayResult>> simulate_policy_day(std::string_view policy,
                                                     const Fleet& fleet,
                                                     const DemandTrace& trace,
                                                     const IdleModel& idle) {
  if (policy == "autoscaler") {
    // Powering servers fully off violates the trace's idle-state cap.
    if (trace.latency_critical()) return std::optional<DayResult>();
    const AutoscalerConfig config;
    auto scaled = autoscale_over_day(fleet, trace, config);
    if (!scaled.ok()) return scaled.error();
    DayResult day;
    day.policy = std::string(policy);
    day.energy_kwh = scaled.value().energy_kwh;
    day.served_gops = scaled.value().served_gops;
    day.avg_efficiency = scaled.value().avg_efficiency;
    double wakes = 0.0;
    for (const auto& slot : scaled.value().slots) wakes += slot.wakes;
    day.wake_count = static_cast<std::uint64_t>(std::llround(wakes));
    day.wake_energy_kwh = wakes * config.wake_penalty_wh / 1000.0;
    return std::optional<DayResult>(std::move(day));
  }
  auto placement = make_placement_policy(policy);
  if (!placement.ok()) return placement.error();
  auto day = simulate_day(*placement.value(), fleet, trace, idle);
  if (!day.ok()) return day.error();
  return std::optional<DayResult>(std::move(day).take());
}

Result<std::vector<DayResult>> compare_policies_over_day(
    const Fleet& fleet, const DemandTrace& trace, const IdleModel& idle) {
  const PackToFullPolicy pack;
  const BalancedPolicy balanced;
  const OptimalRegionPolicy optimal;
  std::vector<DayResult> results;
  for (const PlacementPolicy* policy :
       std::initializer_list<const PlacementPolicy*>{&pack, &balanced,
                                                     &optimal}) {
    auto day = simulate_day(*policy, fleet, trace, idle);
    if (!day.ok()) return day.error();
    results.push_back(std::move(day).take());
  }
  return results;
}

}  // namespace epserve::cluster
