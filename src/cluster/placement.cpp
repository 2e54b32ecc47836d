#include "cluster/placement.h"

#include <algorithm>
#include <cstdint>

#include "metrics/simd/kernels.h"
#include "util/contracts.h"
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
                    std::span<const std::vector<double>> caps,
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

std::vector<double> expand(const FillPlans& plans, const FillPlan& plan,
                           std::size_t servers) {
  if (plans.full.empty()) return std::vector<double>(servers, plan.utilization);
  const FillPlans::LevelView view = plans.view(plan);
  std::vector<double> util(servers);
  for (std::size_t i = 0; i < servers; ++i) util[i] = view[i];
  return util;
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
  const std::vector<std::vector<double>> caps{
      std::vector<double>(fleet.size(), 1.0)};
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
  const std::vector<std::vector<double>> caps{
      fleet.optimal_region_tops(ee_threshold_),
      std::vector<double>(fleet.size(), 1.0)};
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
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const double u = assignment.utilization[i];
    if (u < -1e-9 || u > 1.0 + 1e-9) {
      return Error::failed_precondition("policy produced utilisation outside [0,1]");
    }
    const double clamped = std::clamp(u, 0.0, 1.0);
    assignment.total_power_watts +=
        fleet.normalized_power(i, clamped) * peak_watts[i];
    assignment.total_ops += clamped * peak_ops[i];
  }
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
  // Server-major accounting: each server's grid row covers every level.
  // Each level's sums still accumulate in server index order, so totals
  // match evaluate() bitwise — the axpy kernel is element-wise
  // (acc[d] += x[d] * s, no cross-lane reduction), so every variant
  // produces the scalar loop's bytes. Servers go through the power kernel
  // in blocks: each block's utilisations are read off the plans into a
  // kBlockServers x levels matrix, one normalized_power_matrix call
  // amortises kernel dispatch over its rows, and the block's clamped/norm
  // matrices stay cache-resident.
  constexpr std::size_t kBlockServers = 256;
  const metrics::kernels::Kernels& kernel = metrics::kernels::active();
  const std::span<const double> peak_watts_col = fleet.peak_watts();
  const std::span<const double> peak_ops_col = fleet.peak_ops();
  const std::size_t slots = demands.size();
  std::vector<double> clamped(kBlockServers * slots);
  std::vector<double> norm(kBlockServers * slots);
  std::vector<double> power_acc(slots, 0.0);
  std::vector<double> ops_acc(slots, 0.0);
  std::vector<FillPlans::LevelView> views;
  views.reserve(slots);
  for (const FillPlan& plan : plans.levels) views.push_back(plans.view(plan));
  for (std::size_t i0 = 0; i0 < fleet.size(); i0 += kBlockServers) {
    const std::size_t count = std::min(kBlockServers, fleet.size() - i0);
    for (std::size_t d = 0; d < slots; ++d) {
      const FillPlans::LevelView view = views[d];
      for (std::size_t r = 0; r < count; ++r) {
        const double u = view[i0 + r];
        if (u < -1e-9 || u > 1.0 + 1e-9) {
          return Error::failed_precondition(
              "policy produced utilisation outside [0,1]");
        }
        clamped[r * slots + d] = std::clamp(u, 0.0, 1.0);
      }
    }
    fleet.normalized_power_matrix(
        i0, count, std::span<const double>(clamped.data(), count * slots),
        std::span<double>(norm.data(), count * slots), slots);
    for (std::size_t r = 0; r < count; ++r) {
      kernel.axpy(power_acc.data(), norm.data() + r * slots,
                  peak_watts_col[i0 + r], slots);
      kernel.axpy(ops_acc.data(), clamped.data() + r * slots,
                  peak_ops_col[i0 + r], slots);
    }
  }
  out.totals.resize(slots);
  for (std::size_t d = 0; d < slots; ++d) {
    out.totals[d].total_power_watts = power_acc[d];
    out.totals[d].total_ops = ops_acc[d];
  }
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
