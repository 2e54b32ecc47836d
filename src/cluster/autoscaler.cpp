#include "cluster/autoscaler.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <numeric>
#include <span>
#include <utility>

#include "metrics/simd/kernels.h"
#include "util/telemetry.h"

namespace epserve::cluster {

Result<AutoscaleResult> autoscale_over_day(const Fleet& fleet,
                                           const DemandTrace& trace,
                                           const AutoscalerConfig& config) {
  if (fleet.empty()) return Error::invalid_argument("fleet is empty");
  if (trace.demand.empty()) return Error::invalid_argument("trace is empty");
  if (!(trace.slot_hours > 0.0)) {
    return Error::invalid_argument("slot length must be positive");
  }
  if (!(config.target_utilization > 0.0 &&
        config.target_utilization <= 1.0)) {
    return Error::invalid_argument("target utilisation must be in (0, 1]");
  }
  if (config.wake_penalty_wh < 0.0 || config.hysteresis_servers < 0) {
    return Error::invalid_argument("penalty/hysteresis must be non-negative");
  }
  const telemetry::Span policy_span("cluster/policy/autoscaler",
                                    telemetry::Span::Scope::kRoot);
  const telemetry::Span span("autoscale_over_day");
  telemetry::count("cluster.autoscale.slots", trace.demand.size());

  const std::size_t n = fleet.size();
  const std::size_t num_slots = trace.demand.size();

  // Servers best-overall-EE first (the Fleet's cached order); the active set
  // is always a prefix.
  const std::span<const std::size_t> order = fleet.order_by_overall_score();

  // prefix[k] = capacity of the k best servers, accumulated in prefix order —
  // the same additions (and therefore the same doubles) as growing the
  // active prefix one server at a time.
  const std::span<const double> peak_ops = fleet.peak_ops();
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    prefix[k + 1] = prefix[k] + peak_ops[order[k]];
  }

  const double fleet_capacity = fleet.capacity_ops();

  // Pass 1 — per-slot scaling decisions (scalar, no curve evaluations):
  // validate demand, size the active prefix, apply hysteresis, record
  // utilisation and served ops.
  AutoscaleResult result;
  result.slots.resize(num_slots);
  std::vector<double> slot_utilization(num_slots, 0.0);
  std::vector<double> slot_served_ops(num_slots, 0.0);
  int active = 0;
  for (std::size_t s = 0; s < num_slots; ++s) {
    const double demand = trace.demand[s];
    if (!(demand >= 0.0 && demand <= 1.0)) {  // NaN fails too
      return Error::invalid_argument("trace demand outside [0, 1]");
    }
    const double demand_ops = demand * fleet_capacity;

    // Smallest prefix whose capacity at the target utilisation covers the
    // demand, else the whole fleet (serving above target utilisation). A
    // binary search: prefix is non-decreasing because every peak_ops is
    // >= 0, which PowerCurve::validate guarantees (an unvalidated
    // Fleet::from_records fleet must hold it too), so the "does not cover"
    // test is true on a leading run of prefix and false after it.
    const int needed = static_cast<int>(
        std::partition_point(prefix.begin(),
                             prefix.begin() + static_cast<std::ptrdiff_t>(n),
                             [&](double capacity) {
                               return capacity * config.target_utilization <
                                      demand_ops;
                             }) -
        prefix.begin());

    // Hysteresis: grow immediately, shrink only past the band.
    int next_active = active;
    if (needed > active) {
      next_active = needed;
    } else if (active - needed > config.hysteresis_servers) {
      next_active = needed;
    }
    const double wakes = std::max(0, next_active - active);
    active = std::max(next_active, demand_ops > 0.0 ? 1 : 0);

    // Spread the demand over the active prefix proportionally to capacity.
    const double active_capacity = prefix[static_cast<std::size_t>(active)];
    const double utilization =
        active_capacity > 0.0
            ? std::min(1.0, demand_ops / active_capacity)
            : 0.0;
    slot_utilization[s] = utilization;
    slot_served_ops[s] = std::min(demand_ops, active_capacity);

    ScaleSlot& slot = result.slots[s];
    slot.demand = demand;
    slot.active_servers = active;
    slot.wakes = wakes;
  }

  // A slot's power depends only on its (active prefix, utilisation) pair, and
  // traces repeat pairs: account each distinct pair once (keyed on the
  // utilisation's bit pattern, first-appearance order) and copy its power to
  // its slots.
  struct Level {
    std::size_t active = 0;
    double utilization = 0.0;
    double power_watts = 0.0;
  };
  std::vector<Level> levels;
  std::vector<std::size_t> level_of(num_slots);
  std::map<std::pair<std::size_t, std::uint64_t>, std::size_t> level_index;
  for (std::size_t s = 0; s < num_slots; ++s) {
    const auto active_servers =
        static_cast<std::size_t>(result.slots[s].active_servers);
    const auto [it, added] = level_index.try_emplace(
        {active_servers, std::bit_cast<std::uint64_t>(slot_utilization[s])},
        levels.size());
    if (added) levels.push_back({active_servers, slot_utilization[s], 0.0});
    level_of[s] = it->second;
  }
  telemetry::count("cluster.autoscale.levels", levels.size());

  // Pass 2 — server-major power: for each prefix position j, one batched
  // table evaluation covers every level whose active set includes order[j].
  // With the levels sorted by active prefix, longest first, those levels
  // are a leading run that only shortens as j grows, so each position is
  // one batch and one element-wise axpy over that run. Each level still
  // adds its servers in ascending j, the order the scalar per-slot loop
  // did, so slot powers match bitwise.
  const std::span<const double> peak_watts = fleet.peak_watts();
  std::vector<std::size_t> by_active(levels.size());
  std::iota(by_active.begin(), by_active.end(), std::size_t{0});
  std::stable_sort(by_active.begin(), by_active.end(),
                   [&levels](std::size_t a, std::size_t b) {
                     return levels[a].active > levels[b].active;
                   });
  std::vector<double> utils(levels.size());
  for (std::size_t k = 0; k < levels.size(); ++k) {
    utils[k] = levels[by_active[k]].utilization;
  }
  std::vector<double> norm(levels.size());
  std::vector<double> power(levels.size(), 0.0);
  const metrics::kernels::Kernels& kernel = metrics::kernels::active();
  std::size_t run = levels.size();
  for (std::size_t j = 0; j < n; ++j) {
    while (run > 0 && levels[by_active[run - 1]].active <= j) --run;
    if (run == 0) break;  // active > j fails for every later j too
    const std::span<const double> run_utils(utils.data(), run);
    fleet.normalized_power_batch(order[j], run_utils,
                                 std::span<double>(norm.data(), run));
    kernel.axpy(power.data(), norm.data(), peak_watts[order[j]], run);
  }
  for (std::size_t k = 0; k < levels.size(); ++k) {
    levels[by_active[k]].power_watts = power[k];
  }
  for (std::size_t s = 0; s < num_slots; ++s) {
    result.slots[s].power_watts = levels[level_of[s]].power_watts;
  }

  // Pass 3 — energy/served accounting in slot order (the legacy per-slot
  // accumulation sequence).
  for (std::size_t s = 0; s < num_slots; ++s) {
    result.energy_kwh +=
        result.slots[s].power_watts * trace.slot_hours / 1000.0 +
        result.slots[s].wakes * config.wake_penalty_wh / 1000.0;
    result.served_gops += slot_served_ops[s] * trace.slot_hours * 3600.0 / 1e9;
  }
  const double joules = result.energy_kwh * 3.6e6;
  result.avg_efficiency =
      joules > 0.0 ? result.served_gops * 1e9 / joules : 0.0;
  return result;
}

}  // namespace epserve::cluster
