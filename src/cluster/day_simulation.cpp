#include "cluster/day_simulation.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/autoscaler.h"
#include "cluster/fill_ranges.h"
#include "cluster/staged_state.h"
#include "util/exact_sum.h"
#include "util/telemetry.h"

namespace epserve::cluster {

namespace {

/// The day's five totals as exact sums, plus the wake count.
struct DaySums {
  util::ExactSum energy_kwh;
  util::ExactSum served_gops;
  util::ExactSum idle_energy_kwh;
  util::ExactSum wake_energy_kwh;
  util::ExactSum wake_lost_gops;
  std::uint64_t wake_count = 0;
};

/// The idle model's per-server terms, each the expression the slot x server
/// pass always charged. A parked server (exact utilisation 0.0 — the
/// evaluators charge it active idle power) drops to the deepest state the
/// trace's cap allows: it adds its state's draw less that active idle
/// power to energy_kwh and its state's draw to idle_energy_kwh. A
/// parked->active transition charges the state it leaves (the cap of the
/// slot before) its wake energy and forfeits the wake_latency_s head of the
/// slot's served work.
class IdleTerms {
 public:
  IdleTerms(const Fleet& fleet, const DemandTrace& trace,
            const IdleModel& idle)
      : idle_watts_(fleet.idle_watts()),
        peak_ops_(fleet.peak_ops()),
        trace_(trace),
        idle_(idle),
        slot_seconds_(trace.slot_hours * 3600.0) {}

  [[nodiscard]] const IdleState& state(int cap) const {
    return idle_.states[static_cast<std::size_t>(cap)];
  }
  [[nodiscard]] double parked_kwh(std::size_t i, int cap) const {
    return idle_watts_[i] * (state(cap).power_fraction - 1.0) *
           trace_.slot_hours / 1000.0;
  }
  [[nodiscard]] double residency_kwh(std::size_t i, int cap) const {
    return idle_watts_[i] * state(cap).power_fraction * trace_.slot_hours /
           1000.0;
  }
  [[nodiscard]] double wake_kwh(int from) const {
    return state(from).wake_energy_j / 3.6e6;
  }
  [[nodiscard]] double lost_gops(std::size_t i, double u, int from) const {
    const double gap =
        std::min(state(from).wake_latency_s, slot_seconds_) / slot_seconds_;
    return u * peak_ops_[i] * gap * trace_.slot_hours * 3600.0 / 1e9;
  }

  /// Server i parked in a slot capped at `cap`.
  void park(DaySums& sums, std::size_t i, int cap) const {
    sums.energy_kwh.add(parked_kwh(i, cap));
    sums.idle_energy_kwh.add(residency_kwh(i, cap));
  }
  /// Server i woken from state `from` into utilisation u.
  void wake(DaySums& sums, std::size_t i, double u, int from) const {
    sums.wake_count += 1;
    sums.wake_energy_kwh.add(wake_kwh(from));
    sums.energy_kwh.add(wake_kwh(from));
    const double lost = lost_gops(i, u, from);
    sums.wake_lost_gops.add(lost);
    sums.served_gops.add(-lost);
  }

 private:
  std::span<const double> idle_watts_;
  std::span<const double> peak_ops_;
  const DemandTrace& trace_;
  const IdleModel& idle_;
  double slot_seconds_;
};

/// The idle accounting of a uniform batch (balanced): every server of a
/// level sits at its utilisation, so a slot parks all servers or none, and
/// a slot where neither it nor the slot before parks anything charges
/// nothing. The rest are charged server by server.
void account_idle_uniform(const Fleet& fleet, std::span<const FillPlan> levels,
                          std::span<const std::size_t> level_of,
                          std::span<const int> caps, const IdleTerms& terms,
                          DaySums& sums) {
  bool parked_before = false;
  for (std::size_t s = 0; s < level_of.size(); ++s) {
    const double u = levels[level_of[s]].utilization;
    const bool parked = u == 0.0;
    if (parked) {
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        terms.park(sums, i, caps[s]);
      }
    } else if (parked_before) {
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        terms.wake(sums, i, u, caps[s - 1]);
      }
    }
    parked_before = parked;
  }
}

/// The idle accounting of a staged batch from range sums over its fill
/// order, reading the batch's staged state in place. A server is regular
/// when its keys' zero flags follow the position rule: under a level's plan
/// it is parked exactly when it sits at or past the first stage's fill
/// point (the partial server aside). A slot's regular parked servers are
/// then the positions from its rule start a_s (the first stage's fill
/// point, past any partial server; the fleet size for a later stage) on,
/// and the regular servers that wake into slot s are the positions in
/// [a_{s-1}, a_s), at their slot-s utilisation: the level's full value
/// before its fill point and its base value after. One pass over the
/// servers feeds each regular server's parked, residency and wake-loss
/// terms into exact sums by fill-position segment (FillRanges), and every
/// range adds the difference of two prefixes. Irregular servers and the
/// partial servers of a slot and of the slot before are charged one by
/// one.
void account_idle_staged(const Fleet& fleet, const BatchAccount& account,
                         std::span<const std::size_t> level_of,
                         std::span<const int> caps, const IdleTerms& terms,
                         DaySums& sums) {
  const FillPlans& plans = account.staged->columns();
  const std::span<const std::size_t> order = account.staged->order();
  const std::size_t servers = fleet.size();
  const std::size_t slots = level_of.size();
  const auto irregular_server = [&plans](std::size_t i) {
    for (std::size_t stage = 0; stage < plans.keys.size(); ++stage) {
      const std::uint64_t key = plans.keys[stage][i];
      if ((key & 2) != 0 || (key & 1) != (stage == 0 ? 1u : 0u)) return true;
    }
    return false;
  };
  std::vector<std::size_t> irregular;  // fill positions, ascending
  for (std::size_t i = 0; i < servers; ++i) {
    if (irregular_server(i)) irregular.push_back(plans.keys.front()[i] >> 2);
  }
  std::sort(irregular.begin(), irregular.end());
  const auto regular_in = [&irregular](std::size_t lo, std::size_t hi) {
    const auto first = std::lower_bound(irregular.begin(), irregular.end(), lo);
    const auto last = std::lower_bound(first, irregular.end(), hi);
    return (hi - lo) - static_cast<std::size_t>(last - first);
  };

  // A column is one per-server term, summed over the regular servers at
  // the positions [lo, hi) that the ranges read off it span.
  enum class Kind { kParked, kResidency, kLost };
  struct Column {
    Kind kind;
    int cap;            // the slot's cap; for kLost the state woken from
    std::size_t value;  // kLost: 0 for utilisation 0.0, k + 1 for full[k]
    std::size_t lo;
    std::size_t hi;
  };
  struct Range {
    std::size_t column;
    std::size_t lo;
    std::size_t hi;
  };
  std::vector<Column> columns;
  std::vector<Range> ranges;
  std::vector<std::size_t> cuts;
  const auto add_range = [&](Kind kind, int cap, std::size_t value,
                             std::size_t lo, std::size_t hi) {
    std::size_t c = 0;
    while (c < columns.size() &&
           !(columns[c].kind == kind && columns[c].cap == cap &&
             columns[c].value == value)) {
      ++c;
    }
    if (c == columns.size()) columns.push_back({kind, cap, value, lo, hi});
    columns[c].lo = std::min(columns[c].lo, lo);
    columns[c].hi = std::max(columns[c].hi, hi);
    ranges.push_back({c, lo, hi});
    cuts.push_back(lo);
    cuts.push_back(hi);
  };

  std::size_t start_before = servers;  // a_{s-1}; nothing parks before slot 0
  for (std::size_t s = 0; s < slots; ++s) {
    const FillPlan& plan = account.levels[level_of[s]];
    const std::size_t past = plan.filled + (plan.partial ? 1 : 0);
    const std::size_t start = plan.stage == 0 ? past : servers;
    if (start < servers) {
      add_range(Kind::kParked, caps[s], 0, start, servers);
      add_range(Kind::kResidency, caps[s], 0, start, servers);
    }
    if (start_before < start) {
      // [a_{s-1}, a_s) less the partial server: full values before it, base
      // values after it.
      const std::size_t full_end = std::min(start, plan.filled);
      const std::size_t base_begin = std::max(start_before, past);
      std::size_t woken = 0;
      if (start_before < full_end) {
        add_range(Kind::kLost, caps[s - 1], plan.stage + 1, start_before,
                  full_end);
        woken += regular_in(start_before, full_end);
      }
      if (base_begin < start) {
        add_range(Kind::kLost, caps[s - 1], plan.stage, base_begin, start);
        woken += regular_in(base_begin, start);
      }
      sums.wake_count += woken;
      sums.wake_energy_kwh.add(terms.wake_kwh(caps[s - 1]), woken);
      sums.energy_kwh.add(terms.wake_kwh(caps[s - 1]), woken);
    }
    start_before = start;
  }

  FillRanges by_position(servers, std::move(cuts), columns.size());
  for (std::size_t i = 0; i < servers && !columns.empty(); ++i) {
    const std::size_t pos = plans.keys.front()[i] >> 2;
    if (irregular_server(i)) continue;
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const Column& column = columns[c];
      if (pos < column.lo || pos >= column.hi) continue;
      double term = 0.0;
      switch (column.kind) {
        case Kind::kParked:
          term = terms.parked_kwh(i, column.cap);
          break;
        case Kind::kResidency:
          term = terms.residency_kwh(i, column.cap);
          break;
        case Kind::kLost:
          term = terms.lost_gops(
              i, column.value == 0 ? 0.0 : plans.full[column.value - 1][i],
              column.cap);
          break;
      }
      by_position.add(c, pos, term);
    }
  }
  by_position.finish();
  for (const Range& range : ranges) {
    switch (columns[range.column].kind) {
      case Kind::kParked:
        by_position.fold(range.column, range.lo, range.hi, +1, sums.energy_kwh);
        break;
      case Kind::kResidency:
        by_position.fold(range.column, range.lo, range.hi, +1,
                         sums.idle_energy_kwh);
        break;
      case Kind::kLost:
        by_position.fold(range.column, range.lo, range.hi, +1,
                         sums.wake_lost_gops);
        by_position.fold(range.column, range.lo, range.hi, -1,
                         sums.served_gops);
        break;
    }
  }

  // One by one: irregular servers, and each slot's partial server and the
  // slot before's, whose parked state the position rule does not give.
  std::vector<std::size_t> singles;
  for (std::size_t s = 0; s < slots; ++s) {
    const FillPlan& plan = account.levels[level_of[s]];
    const FillPlans::LevelView view = plans.view(plan);
    singles.assign(irregular.begin(), irregular.end());
    if (plan.partial) singles.push_back(plan.filled);
    std::optional<FillPlans::LevelView> before;
    if (s > 0) {
      const FillPlan& prev = account.levels[level_of[s - 1]];
      before = plans.view(prev);
      if (prev.partial) singles.push_back(prev.filled);
    }
    std::sort(singles.begin(), singles.end());
    singles.erase(std::unique(singles.begin(), singles.end()), singles.end());
    for (const std::size_t pos : singles) {
      const std::size_t i = order[pos];
      if (view.zero(i)) {
        // A regular server parked here other than the partial one is in
        // the slot's parked range already.
        if (irregular_server(i) || (plan.partial && pos == plan.filled)) {
          terms.park(sums, i, caps[s]);
        }
      } else if (before && before->zero(i)) {
        terms.wake(sums, i, view[i], caps[s - 1]);
      }
    }
  }
}

}  // namespace

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
  // The trivial model (IdleModel::none()) skips the idle accounting
  // entirely, so that path is the accounting without an idle model.
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
  // plan does not depend on the rest of the batch, so this is the same as
  // evaluating every slot.
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
  const std::vector<Assignment>& totals = account.value().totals;
  // Every day total is the correctly rounded exact sum of its terms: the
  // slots' level totals, then the idle model's per-server charges.
  DaySums sums;
  for (const std::size_t level : level_of) {
    sums.energy_kwh.add(totals[level].total_power_watts * trace.slot_hours /
                        1000.0);
    sums.served_gops.add(totals[level].total_ops * trace.slot_hours * 3600.0 /
                         1e9);
  }
  if (idle_aware) {
    const telemetry::Span idle_span("idle_accounting");
    std::vector<int> caps(level_of.size());
    for (std::size_t s = 0; s < caps.size(); ++s) {
      caps[s] = trace.idle_state_cap(s, idle.deepest());
    }
    const IdleTerms terms(fleet, trace, idle);
    if (account.value().staged == nullptr) {
      account_idle_uniform(fleet, account.value().levels, level_of, caps, terms,
                           sums);
    } else {
      account_idle_staged(fleet, account.value(), level_of, caps, terms, sums);
    }
    telemetry::count("cluster.day.wakes", sums.wake_count);
  }
  result.energy_kwh = sums.energy_kwh.value();
  result.served_gops = sums.served_gops.value();
  result.idle_energy_kwh = sums.idle_energy_kwh.value();
  result.wake_energy_kwh = sums.wake_energy_kwh.value();
  result.wake_lost_gops = sums.wake_lost_gops.value();
  result.wake_count = sums.wake_count;
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
