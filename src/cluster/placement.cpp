#include "cluster/placement.h"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "cluster/fill_ranges.h"
#include "cluster/lane_sums.h"
#include "cluster/working_region.h"
#include "util/contracts.h"
#include "util/exact_sum.h"
#include "util/telemetry.h"

namespace epserve::cluster {

namespace {

/// The one fill walk, behind pack-to-full and optimal-region. For each
/// demand it places demand * capacity ops by visiting servers in `order`,
/// stage by stage: stage k raises each server from its stage k-1 value
/// toward caps[k][i] (a server with no headroom is skipped), taking
/// min(headroom ops, remaining ops), and a stage after the first runs only
/// while ops remain. A stage therefore ends at a fill point: every server
/// before it full, at most one partial, the rest untouched; and a later
/// stage starts from every server at its previous full value. Each full
/// value and partial utilisation is `base + take / peak_ops` with the
/// greedy fill's operands, so the plans expand to its vectors bit for bit.
FillPlans fill_walk(const Fleet& fleet, std::span<const std::size_t> order,
                    std::span<const std::span<const double>> caps,
                    std::span<const double> demands) {
  const std::span<const double> peak_ops = fleet.peak_ops();
  const std::size_t servers = fleet.size();
  FillPlans plans;
  const auto base = [&plans](std::size_t stage, std::size_t i) {
    return stage == 0 ? 0.0 : plans.full[stage - 1][i];
  };
  for (std::size_t stage = 0; stage < caps.size(); ++stage) {
    std::vector<double> full(servers);
    for (std::size_t i = 0; i < servers; ++i) {
      const double headroom = caps[stage][i] - base(stage, i);
      full[i] = headroom <= 0.0
                    ? base(stage, i)
                    : base(stage, i) + headroom * peak_ops[i] / peak_ops[i];
    }
    std::vector<std::uint64_t> keys(servers);
    for (std::size_t pos = 0; pos < servers; ++pos) {
      const std::size_t i = order[pos];
      keys[i] = std::uint64_t{pos} << 2 |
                std::uint64_t{full[i] == 0.0} << 1 |
                std::uint64_t{base(stage, i) == 0.0};
    }
    plans.full.push_back(std::move(full));
    plans.keys.push_back(std::move(keys));
  }

  plans.levels.reserve(demands.size());
  for (const double demand : demands) {
    FillPlan plan;
    double remaining = demand * fleet.capacity_ops();
    for (std::size_t stage = 0;
         stage < caps.size() && (stage == 0 || remaining > 0.0); ++stage) {
      plan = FillPlan{};
      plan.stage = stage;
      std::size_t pos = 0;
      for (; pos < servers; ++pos) {
        if (remaining <= 0.0) break;
        const std::size_t i = order[pos];
        const double headroom = caps[stage][i] - base(stage, i);
        if (headroom <= 0.0) continue;
        const double headroom_ops = headroom * peak_ops[i];
        if (remaining < headroom_ops) {  // take = remaining: the last visit
          plan.partial = true;
          plan.utilization = base(stage, i) + remaining / peak_ops[i];
          remaining = 0.0;
          break;
        }
        remaining -= headroom_ops;
      }
      plan.filled = pos;
    }
    plans.levels.push_back(plan);
  }
  return plans;
}

/// Whether `plans` fits a batch of `demands` levels on `servers` servers:
/// one plan per level, and every column, stage index and fill point in
/// range, so a LevelView never reads past a column.
bool aligned(const FillPlans& plans, std::size_t servers,
             std::size_t demands) {
  if (plans.levels.size() != demands) return false;
  if (plans.full.empty()) return true;
  if (plans.keys.size() != plans.full.size()) return false;
  for (std::size_t stage = 0; stage < plans.full.size(); ++stage) {
    if (plans.full[stage].size() != servers ||
        plans.keys[stage].size() != servers) {
      return false;
    }
  }
  return std::all_of(
      plans.levels.begin(), plans.levels.end(), [&](const FillPlan& plan) {
        return plan.stage < plans.full.size() &&
               plan.filled + (plan.partial ? 1 : 0) <= servers;
      });
}

/// The fill order a staged batch's keys encode: order[pos] is the server
/// at fill position pos. Empty when the positions are not one permutation
/// of the servers shared by every stage, which a range sum needs.
std::vector<std::uint32_t> fill_order(const FillPlans& plans) {
  const std::vector<std::uint64_t>& first = plans.keys.front();
  const std::size_t servers = first.size();
  constexpr auto kUnset = ~std::uint32_t{0};
  std::vector<std::uint32_t> order(servers, kUnset);
  for (std::size_t i = 0; i < servers; ++i) {
    const std::uint64_t pos = first[i] >> 2;
    if (pos >= servers || order[pos] != kUnset) return {};
    order[pos] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t stage = 1; stage < plans.keys.size(); ++stage) {
    for (std::size_t i = 0; i < servers; ++i) {
      if (plans.keys[stage][i] >> 2 != first[i] >> 2) return {};
    }
  }
  return order;
}

bool out_of_range(double u) { return u < -1e-9 || u > 1.0 + 1e-9; }

std::vector<double> expand(const FillPlans& plans, const FillPlan& plan,
                           std::size_t servers) {
  if (plans.full.empty()) return std::vector<double>(servers, plan.utilization);
  const FillPlans::LevelView view = plans.view(plan);
  std::vector<double> util(servers);
  for (std::size_t i = 0; i < servers; ++i) util[i] = view[i];
  return util;
}

/// A uniform batch's totals: every server of level d sits at
/// levels[d].utilization, so each (server, level) pair is one kernel
/// point, and each level's power and ops totals are exact lane sums over
/// the servers.
std::optional<Error> account_uniform(const Fleet& fleet,
                                     std::span<const FillPlan> levels,
                                     std::span<Assignment> totals) {
  constexpr std::size_t kBlockServers = LaneSums::kMaxRows;
  const std::size_t slots = levels.size();
  std::vector<double> clamped(slots);
  for (std::size_t d = 0; d < slots; ++d) {
    if (out_of_range(levels[d].utilization)) {
      return Error::failed_precondition(
          "policy produced utilisation outside [0,1]");
    }
    clamped[d] = std::clamp(levels[d].utilization, 0.0, 1.0);
  }
  const std::span<const double> peak_watts = fleet.peak_watts();
  const std::span<const double> peak_ops = fleet.peak_ops();
  std::vector<double> utils(kBlockServers * slots);
  std::vector<double> norm(kBlockServers * slots);
  for (std::size_t k = 0; k < utils.size(); ++k) utils[k] = clamped[k % slots];
  LaneSums power(slots);
  LaneSums ops(slots);
  for (std::size_t i0 = 0; i0 < fleet.size(); i0 += kBlockServers) {
    const std::size_t count = std::min(kBlockServers, fleet.size() - i0);
    fleet.normalized_power_matrix(
        i0, count, std::span<const double>(utils.data(), count * slots),
        std::span<double>(norm.data(), count * slots), slots);
    power.add_block(norm.data(), slots, peak_watts.data() + i0, count);
    ops.add_block(clamped.data(), 0, peak_ops.data() + i0, count);
  }
  for (std::size_t d = 0; d < slots; ++d) {
    totals[d].total_power_watts = power.value(d);
    totals[d].total_ops = ops.value(d);
  }
  return std::nullopt;
}

/// A staged batch's totals from range sums over the fill order. Column 0
/// holds every server at 0.0 (the first stage's base) and column k + 1 at
/// full[k]; under a level's plan the positions before its fill point read
/// column stage + 1, the partial server its own utilisation, and the rest
/// column stage. One pass over the servers feeds each server's power and
/// ops terms at every column into exact sums by fill-position segment
/// (FillRanges), and each level's totals are two range sums plus its
/// partial server. The kernel runs in blocks of servers, one point per
/// column; a column no level reads at a server's position is evaluated at
/// 0.0 and dropped, so only values the levels hold are ever checked or
/// summed.
std::optional<Error> account_staged(const Fleet& fleet,
                                    const FillPlans& plans,
                                    std::span<const std::uint32_t> order,
                                    std::span<Assignment> totals) {
  const std::size_t servers = fleet.size();
  const std::size_t columns = plans.full.size() + 1;
  // Column j is read on [0, reach[j]) as a full value and on
  // [from[j], servers) as a base value.
  std::vector<std::size_t> reach(columns, 0);
  std::vector<std::size_t> from(columns, servers);
  std::vector<std::size_t> cuts;
  for (const FillPlan& plan : plans.levels) {
    const std::size_t rest = plan.filled + (plan.partial ? 1 : 0);
    reach[plan.stage + 1] = std::max(reach[plan.stage + 1], plan.filled);
    from[plan.stage] = std::min(from[plan.stage], rest);
    cuts.push_back(plan.filled);
    cuts.push_back(rest);
  }
  // Range column 2j sums power at value column j, 2j + 1 ops.
  FillRanges ranges(servers, std::move(cuts), 2 * columns);
  // The lowest and highest fill positions at which a column's value is out
  // of range; a level fails when it reads one.
  std::vector<std::size_t> first_bad(columns, servers);
  std::vector<std::size_t> last_bad(columns, 0);
  std::vector<bool> any_bad(columns, false);

  constexpr std::size_t kBlockServers = 256;
  const std::span<const double> peak_watts = fleet.peak_watts();
  const std::span<const double> peak_ops = fleet.peak_ops();
  const std::vector<std::uint64_t>& keys = plans.keys.front();
  std::vector<double> clamped(kBlockServers * columns);
  std::vector<double> norm(kBlockServers * columns);
  const auto read = [&](std::size_t j, std::size_t pos) {
    return pos < reach[j] || pos >= from[j];
  };
  for (std::size_t i0 = 0; i0 < servers; i0 += kBlockServers) {
    const std::size_t count = std::min(kBlockServers, servers - i0);
    for (std::size_t r = 0; r < count; ++r) {
      const std::size_t i = i0 + r;
      const std::size_t pos = keys[i] >> 2;
      for (std::size_t j = 0; j < columns; ++j) {
        double u = 0.0;  // a column no level reads here: a harmless point
        if (j > 0 && read(j, pos)) {
          u = plans.full[j - 1][i];
          if (out_of_range(u)) {
            first_bad[j] = std::min(first_bad[j], pos);
            last_bad[j] = std::max(last_bad[j], pos);
            any_bad[j] = true;
          }
        }
        clamped[r * columns + j] = std::clamp(u, 0.0, 1.0);
      }
    }
    fleet.normalized_power_matrix(
        i0, count, std::span<const double>(clamped.data(), count * columns),
        std::span<double>(norm.data(), count * columns), columns);
    for (std::size_t r = 0; r < count; ++r) {
      const std::size_t i = i0 + r;
      const std::size_t pos = keys[i] >> 2;
      for (std::size_t j = 0; j < columns; ++j) {
        if (!read(j, pos)) continue;
        ranges.add(2 * j, pos, norm[r * columns + j] * peak_watts[i]);
        ranges.add(2 * j + 1, pos, clamped[r * columns + j] * peak_ops[i]);
      }
    }
  }
  ranges.finish();

  for (std::size_t d = 0; d < plans.levels.size(); ++d) {
    const FillPlan& plan = plans.levels[d];
    const std::size_t rest = plan.filled + (plan.partial ? 1 : 0);
    const bool bad_full = first_bad[plan.stage + 1] < plan.filled;
    const bool bad_base = any_bad[plan.stage] && last_bad[plan.stage] >= rest;
    if (bad_full || bad_base ||
        (plan.partial && out_of_range(plan.utilization))) {
      return Error::failed_precondition(
          "policy produced utilisation outside [0,1]");
    }
    util::ExactSum power;
    util::ExactSum ops;
    ranges.fold(2 * (plan.stage + 1), 0, plan.filled, +1, power);
    ranges.fold(2 * (plan.stage + 1) + 1, 0, plan.filled, +1, ops);
    ranges.fold(2 * plan.stage, rest, servers, +1, power);
    ranges.fold(2 * plan.stage + 1, rest, servers, +1, ops);
    if (plan.partial) {
      const std::size_t i = order[plan.filled];
      const double clamped_u = std::clamp(plan.utilization, 0.0, 1.0);
      power.add(fleet.normalized_power(i, clamped_u) * peak_watts[i]);
      ops.add(clamped_u * peak_ops[i]);
    }
    totals[d].total_power_watts = power.value();
    totals[d].total_ops = ops.value();
  }
  return std::nullopt;
}

}  // namespace

std::vector<std::vector<double>> PlacementPolicy::place_batch(
    const Fleet& fleet, std::span<const double> demands) const {
  const FillPlans plans = plan_batch(fleet, demands);
  EPSERVE_ENSURES(aligned(plans, fleet.size(), demands.size()));
  std::vector<std::vector<double>> out;
  out.reserve(plans.levels.size());
  for (const FillPlan& plan : plans.levels) {
    out.push_back(expand(plans, plan, fleet.size()));
  }
  return out;
}

std::vector<double> PlacementPolicy::place(const Fleet& fleet,
                                           double demand) const {
  auto placed = place_batch(fleet, std::span<const double>(&demand, 1));
  EPSERVE_ENSURES(placed.size() == 1);
  return std::move(placed.front());
}

FillPlans PackToFullPolicy::plan_batch(const Fleet& fleet,
                                       std::span<const double> demands) const {
  const std::vector<double> full(fleet.size(), 1.0);
  const std::span<const double> caps[] = {full};
  return fill_walk(fleet, fleet.order_by_ee_at_full(), caps, demands);
}

FillPlans BalancedPolicy::plan_batch(const Fleet& /*fleet*/,
                                     std::span<const double> demands) const {
  FillPlans plans;
  plans.levels.reserve(demands.size());
  for (const double demand : demands) {
    FillPlan plan;
    plan.utilization = demand;
    plans.levels.push_back(plan);
  }
  return plans;
}

FillPlans OptimalRegionPolicy::plan_batch(
    const Fleet& fleet, std::span<const double> demands) const {
  // Stage 1 fills servers up to the top of their optimal region, best peak
  // EE first; demand exceeding the regions' capacity spills into stage 2,
  // full packing in the same order.
  std::vector<double> other_tops;
  std::span<const double> tops;
  if (ee_threshold_ == kDefaultEeThreshold) {
    tops = fleet.default_optimal_region_tops();
  } else {
    other_tops = fleet.optimal_region_tops(ee_threshold_);
    tops = other_tops;
  }
  const std::vector<double> full(fleet.size(), 1.0);
  const std::span<const double> caps[] = {tops, full};
  return fill_walk(fleet, fleet.order_by_peak_ee_value(), caps, demands);
}

Result<Assignment> evaluate(const PlacementPolicy& policy, const Fleet& fleet,
                            double demand) {
  if (fleet.empty()) return Error::invalid_argument("fleet is empty");
  if (!(demand >= 0.0 && demand <= 1.0)) {  // NaN fails too
    return Error::invalid_argument("demand must be in [0, 1]");
  }
  Assignment assignment;
  assignment.utilization = policy.place(fleet, demand);
  if (assignment.utilization.size() != fleet.size()) {
    return Error::failed_precondition("policy returned a misaligned vector");
  }
  const std::span<const double> peak_watts = fleet.peak_watts();
  const std::span<const double> peak_ops = fleet.peak_ops();
  util::ExactSum power;
  util::ExactSum ops;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const double u = assignment.utilization[i];
    if (out_of_range(u)) {
      return Error::failed_precondition("policy produced utilisation outside [0,1]");
    }
    const double clamped = std::clamp(u, 0.0, 1.0);
    power.add(fleet.normalized_power(i, clamped) * peak_watts[i]);
    ops.add(clamped * peak_ops[i]);
  }
  assignment.total_power_watts = power.value();
  assignment.total_ops = ops.value();
  return assignment;
}

Result<BatchAccount> account_batch(const PlacementPolicy& policy,
                                   const Fleet& fleet,
                                   std::span<const double> demands) {
  if (fleet.empty()) return Error::invalid_argument("fleet is empty");
  const telemetry::Span span("account_batch");
  telemetry::count("fleet.batch_evals");
  telemetry::count("cluster.evaluations", fleet.size() * demands.size());
  for (const double demand : demands) {
    if (!(demand >= 0.0 && demand <= 1.0)) {  // NaN fails too
      return Error::invalid_argument("demand must be in [0, 1]");
    }
  }
  BatchAccount out;
  out.plans = policy.plan_batch(fleet, demands);
  const FillPlans& plans = out.plans;
  if (!aligned(plans, fleet.size(), demands.size())) {
    return Error::failed_precondition("policy returned a misaligned batch");
  }
  if (!plans.full.empty()) {
    out.order = fill_order(plans);
    if (out.order.empty()) {
      return Error::failed_precondition("policy returned a misaligned batch");
    }
  }
  out.totals.resize(demands.size());
  const std::optional<Error> failed =
      plans.full.empty()
          ? account_uniform(fleet, plans.levels, out.totals)
          : account_staged(fleet, plans, out.order, out.totals);
  if (failed) return *failed;
  return out;
}

Result<std::vector<Assignment>> evaluate_batch(const PlacementPolicy& policy,
                                               const Fleet& fleet,
                                               std::span<const double> demands) {
  if (fleet.empty()) return Error::invalid_argument("fleet is empty");
  const telemetry::Span span("evaluate_batch");
  telemetry::count("cluster.evaluate_batch.calls");
  auto account = account_batch(policy, fleet, demands);
  if (!account.ok()) return account.error();
  BatchAccount& batch = account.value();
  for (std::size_t d = 0; d < batch.totals.size(); ++d) {
    batch.totals[d].utilization =
        expand(batch.plans, batch.plans.levels[d], fleet.size());
  }
  return std::move(batch.totals);
}

Result<metrics::PowerCurve> cluster_power_curve(const PlacementPolicy& policy,
                                                const Fleet& fleet) {
  if (fleet.empty()) return Error::invalid_argument("fleet is empty");
  std::array<double, metrics::kNumLoadLevels> watts{};
  std::array<double, metrics::kNumLoadLevels> ops{};
  auto assignments = evaluate_batch(policy, fleet, metrics::kLoadLevels);
  if (!assignments.ok()) return assignments.error();
  for (std::size_t i = 0; i < metrics::kNumLoadLevels; ++i) {
    watts[i] = assignments.value()[i].total_power_watts;
    ops[i] = assignments.value()[i].total_ops;
  }
  // Active idle: every machine idles.
  const double idle = fleet.total_idle_watts();
  // Policies can produce non-monotone aggregate power around the region
  // boundaries; clamp to the physical invariant before validating.
  for (std::size_t i = 1; i < metrics::kNumLoadLevels; ++i) {
    watts[i] = std::max(watts[i], watts[i - 1]);
    ops[i] = std::max(ops[i], ops[i - 1]);
  }
  metrics::PowerCurve curve(watts, ops, idle);
  if (auto valid = curve.validate(); !valid.ok()) return valid.error();
  return curve;
}

epserve::Result<std::unique_ptr<PlacementPolicy>> make_placement_policy(
    std::string_view name) {
  if (name == "pack-to-full") {
    return std::unique_ptr<PlacementPolicy>(new PackToFullPolicy());
  }
  if (name == "balanced") {
    return std::unique_ptr<PlacementPolicy>(new BalancedPolicy());
  }
  if (name == "optimal-region") {
    return std::unique_ptr<PlacementPolicy>(new OptimalRegionPolicy());
  }
  return Error::not_found(
      "unknown policy '" + std::string(name) +
      "' (expected pack-to-full, balanced, or optimal-region)");
}

}  // namespace epserve::cluster
