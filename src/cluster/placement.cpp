#include "cluster/placement.h"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "cluster/lane_sums.h"
#include "cluster/staged_state.h"
#include "util/contracts.h"
#include "util/exact_sum.h"
#include "util/telemetry.h"

namespace epserve::cluster {

namespace {

/// Level `d`'s utilisation vector: its plan over the batch's staged
/// columns, or its uniform utilisation on every server.
std::vector<double> expand(const BatchAccount& batch, std::size_t d,
                           std::size_t servers) {
  const FillPlan& plan = batch.levels[d];
  if (batch.staged == nullptr) {
    return std::vector<double>(servers, plan.utilization);
  }
  const FillPlans::LevelView view = batch.staged->columns().view(plan);
  std::vector<double> util(servers);
  for (std::size_t i = 0; i < servers; ++i) util[i] = view[i];
  return util;
}

/// A uniform batch's totals: every server of level d sits at demands[d],
/// which account_batch has checked to lie in [0, 1], so each (server,
/// level) pair is one kernel point, and each level's power and ops totals
/// are exact lane sums over the servers.
void account_uniform(const Fleet& fleet, std::span<const double> demands,
                     std::span<Assignment> totals) {
  constexpr std::size_t kBlockServers = LaneSums::kMaxRows;
  const std::size_t slots = demands.size();
  const std::span<const double> peak_watts = fleet.peak_watts();
  const std::span<const double> peak_ops = fleet.peak_ops();
  std::vector<double> utils(kBlockServers * slots);
  std::vector<double> norm(kBlockServers * slots);
  for (std::size_t k = 0; k < utils.size(); ++k) utils[k] = demands[k % slots];
  LaneSums power(slots);
  LaneSums ops(slots);
  for (std::size_t i0 = 0; i0 < fleet.size(); i0 += kBlockServers) {
    const std::size_t count = std::min(kBlockServers, fleet.size() - i0);
    fleet.normalized_power_matrix(
        i0, count, std::span<const double>(utils.data(), count * slots),
        std::span<double>(norm.data(), count * slots), slots);
    power.add_block(norm.data(), slots, peak_watts.data() + i0, count);
    ops.add_block(demands.data(), 0, peak_ops.data() + i0, count);
  }
  for (std::size_t d = 0; d < slots; ++d) {
    totals[d].total_power_watts = power.value(d);
    totals[d].total_ops = ops.value(d);
  }
}

}  // namespace

std::string PlacementPolicy::name() const {
  if (!staged_) return "balanced";
  return *staged_ == Fleet::StagedPolicy::kPackToFull ? "pack-to-full"
                                                      : "optimal-region";
}

BatchAccount PlacementPolicy::plan(const Fleet& fleet,
                                   std::span<const double> demands) const {
  BatchAccount out;
  if (staged_) {
    out.staged = fleet.staged_state(*staged_);
    out.levels = walk_levels(fleet, stages_of(fleet, *staged_),
                             out.staged->columns(), demands);
    return out;
  }
  out.levels.reserve(demands.size());
  for (const double demand : demands) {
    FillPlan plan;
    plan.utilization = demand;
    out.levels.push_back(plan);
  }
  return out;
}

std::vector<std::vector<double>> PlacementPolicy::place_batch(
    const Fleet& fleet, std::span<const double> demands) const {
  const BatchAccount batch = plan(fleet, demands);
  std::vector<std::vector<double>> out;
  out.reserve(batch.levels.size());
  for (std::size_t d = 0; d < batch.levels.size(); ++d) {
    out.push_back(expand(batch, d, fleet.size()));
  }
  return out;
}

Stages stages_of(const Fleet& fleet, Fleet::StagedPolicy policy) {
  if (policy == Fleet::StagedPolicy::kPackToFull) {
    return {fleet.order_by_ee_at_full(), {{}}};
  }
  // Stage 1 fills servers up to the top of their optimal region, best peak
  // EE first; demand exceeding the regions' capacity spills into stage 2,
  // full packing in the same order.
  return {fleet.order_by_peak_ee_value(),
          {fleet.default_optimal_region_tops(), {}}};
}

Result<Assignment> evaluate(const PlacementPolicy& policy, const Fleet& fleet,
                            double demand) {
  auto evaluated =
      evaluate_batch(policy, fleet, std::span<const double>(&demand, 1));
  if (!evaluated.ok()) return evaluated.error();
  return std::move(evaluated.value().front());
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
  BatchAccount out = policy.plan(fleet, demands);
  out.totals.resize(demands.size());
  if (out.staged == nullptr) {
    account_uniform(fleet, demands, out.totals);
    return out;
  }
  for (std::size_t d = 0; d < out.levels.size(); ++d) {
    if (auto failed = out.staged->account(fleet, out.levels[d], out.totals[d])) {
      return *failed;
    }
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
    batch.totals[d].utilization = expand(batch, d, fleet.size());
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
