#include "cluster/autoscaler.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <utility>

#include "cluster/lane_sums.h"
#include "util/contracts.h"
#include "util/exact_sum.h"
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
  util::ExactSum served_gops;
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
    served_gops.add(std::min(demand_ops, active_capacity) * trace.slot_hours *
                    3600.0 / 1e9);

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
    if (added) levels.push_back({active_servers, slot_utilization[s]});
    level_of[s] = it->second;
  }
  telemetry::count("cluster.autoscale.levels", levels.size());

  // Pass 2 — each level is a lane, summed as account_batch sums a balanced
  // batch: servers in index order through blocks of kernel points, one per
  // (server, level), each term zeroed in every level whose active prefix
  // does not hold the server (its activation rank is past the prefix), and
  // each level's power the exact sum of its terms (LaneSums). No sum
  // depends on the order its terms arrive in.
  EPSERVE_EXPECTS(n <= std::numeric_limits<std::uint32_t>::max());
  std::vector<std::uint32_t> rank(n);
  for (std::size_t j = 0; j < n; ++j) {
    rank[order[j]] = static_cast<std::uint32_t>(j);
  }
  constexpr std::size_t kBlockServers = LaneSums::kMaxRows;
  const std::size_t lanes = levels.size();
  const std::span<const double> peak_watts = fleet.peak_watts();
  std::vector<double> utils(kBlockServers * lanes);
  std::vector<double> norm(kBlockServers * lanes);
  for (std::size_t k = 0; k < utils.size(); ++k) {
    utils[k] = levels[k % lanes].utilization;
  }
  LaneSums power(lanes);
  for (std::size_t i0 = 0; i0 < n; i0 += kBlockServers) {
    const std::size_t count = std::min(kBlockServers, n - i0);
    fleet.normalized_power_matrix(
        i0, count, std::span<const double>(utils.data(), count * lanes),
        std::span<double>(norm.data(), count * lanes), lanes);
    for (std::size_t r = 0; r < count; ++r) {
      const std::uint32_t position = rank[i0 + r];
      double* row = norm.data() + r * lanes;
      for (std::size_t k = 0; k < lanes; ++k) {
        if (position >= levels[k].active) row[k] = 0.0;
      }
    }
    power.add_block(norm.data(), lanes, peak_watts.data() + i0, count);
  }

  // Pass 3 — the day's totals, exact sums of the per-slot terms.
  util::ExactSum energy_kwh;
  for (std::size_t s = 0; s < num_slots; ++s) {
    ScaleSlot& slot = result.slots[s];
    slot.power_watts = power.value(level_of[s]);
    energy_kwh.add(slot.power_watts * trace.slot_hours / 1000.0 +
                   slot.wakes * config.wake_penalty_wh / 1000.0);
  }
  result.energy_kwh = energy_kwh.value();
  result.served_gops = served_gops.value();
  const double joules = result.energy_kwh * 3.6e6;
  result.avg_efficiency =
      joules > 0.0 ? result.served_gops * 1e9 / joules : 0.0;
  return result;
}

}  // namespace epserve::cluster
