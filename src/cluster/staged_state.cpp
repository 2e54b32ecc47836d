#include "cluster/staged_state.h"

#include <algorithm>

#include "util/telemetry.h"

namespace epserve::cluster {

namespace {

double cap_of(std::span<const double> caps, std::size_t i) {
  return caps.empty() ? 1.0 : caps[i];
}

/// The stage columns of a fill by `stages`.
FillPlans stage_columns(const Fleet& fleet, const Stages& stages) {
  const std::span<const double> peak_ops = fleet.peak_ops();
  const std::size_t servers = fleet.size();
  FillPlans plans;
  for (std::size_t stage = 0; stage < stages.caps.size(); ++stage) {
    const std::span<const double> caps = stages.caps[stage];
    const double* const base =
        stage == 0 ? nullptr : plans.full[stage - 1].data();
    std::vector<double> full(servers);
    for (std::size_t i = 0; i < servers; ++i) {
      const double from = base == nullptr ? 0.0 : base[i];
      const double headroom = cap_of(caps, i) - from;
      full[i] = headroom <= 0.0 ? from
                                : from + headroom * peak_ops[i] / peak_ops[i];
    }
    std::vector<std::uint64_t> keys(servers);
    for (std::size_t pos = 0; pos < servers; ++pos) {
      const std::size_t i = stages.order[pos];
      const double from = base == nullptr ? 0.0 : base[i];
      keys[i] = std::uint64_t{pos} << 2 | std::uint64_t{full[i] == 0.0} << 1 |
                std::uint64_t{from == 0.0};
    }
    plans.full.push_back(std::move(full));
    plans.keys.push_back(std::move(keys));
  }
  return plans;
}

}  // namespace

std::vector<FillPlan> walk_levels(const Fleet& fleet, const Stages& stages,
                                  const FillPlans& columns,
                                  std::span<const double> demands) {
  const std::span<const double> peak_ops = fleet.peak_ops();
  const std::size_t servers = fleet.size();
  std::vector<FillPlan> levels;
  levels.reserve(demands.size());
  for (const double demand : demands) {
    FillPlan plan;
    double remaining = demand * fleet.capacity_ops();
    for (std::size_t stage = 0;
         stage < stages.caps.size() && (stage == 0 || remaining > 0.0);
         ++stage) {
      const std::span<const double> caps = stages.caps[stage];
      const double* const base =
          stage == 0 ? nullptr : columns.full[stage - 1].data();
      plan = FillPlan{};
      plan.stage = stage;
      std::size_t pos = 0;
      for (; pos < servers; ++pos) {
        if (remaining <= 0.0) break;
        const std::size_t i = stages.order[pos];
        const double from = base == nullptr ? 0.0 : base[i];
        const double headroom = cap_of(caps, i) - from;
        if (headroom <= 0.0) continue;
        const double headroom_ops = headroom * peak_ops[i];
        if (remaining < headroom_ops) {  // take = remaining: the last visit
          plan.partial = true;
          plan.utilization = from + remaining / peak_ops[i];
          remaining = 0.0;
          break;
        }
        remaining -= headroom_ops;
      }
      plan.filled = pos;
    }
    levels.push_back(plan);
  }
  return levels;
}

std::shared_ptr<const StagedState> StagedState::build(const Fleet& fleet,
                                                      const Stages& stages) {
  const telemetry::Span span("staged_state.build");
  telemetry::count("staged_state.builds");
  std::shared_ptr<StagedState> state(new StagedState());
  state->columns_ = stage_columns(fleet, stages);
  state->order_ = stages.order;
  state->index(fleet);
  return state;
}

void StagedState::index(const Fleet& fleet) {
  const std::size_t servers = fleet.size();
  const std::vector<std::uint64_t>& first = columns_.keys.front();
  // Value column 0 holds every server at 0.0 (the first stage's base) and
  // column j > 0 at full[j - 1].
  const std::size_t width = columns_.full.size() + 1;
  first_bad_.assign(width, servers);
  bad_end_.assign(width, 0);
  for (std::size_t j = 1; j < width; ++j) {
    const std::vector<double>& full = columns_.full[j - 1];
    for (std::size_t i = 0; i < servers; ++i) {
      if (!outside_unit_range(full[i])) continue;
      const std::size_t pos = first[i] >> 2;
      first_bad_[j] = std::min(first_bad_[j], pos);
      bad_end_[j] = std::max(bad_end_[j], pos + 1);
    }
  }

  // One pass over the servers in index order, through the kernel in blocks
  // with one point per column, adds each term to the snapshot just past its
  // fill position's stride; chaining the snapshots then makes each the sum
  // of every stride before it.
  snapshot_count_ = (servers + kSnapshotStride - 1) / kSnapshotStride;
  snapshots_.resize(width * (snapshot_count_ + 1));
  constexpr std::size_t kBlockServers = 256;
  const std::span<const double> peak_watts = fleet.peak_watts();
  const std::span<const double> peak_ops = fleet.peak_ops();
  std::vector<double> utils(kBlockServers * width);
  std::vector<double> norm(kBlockServers * width);
  for (std::size_t i0 = 0; i0 < servers; i0 += kBlockServers) {
    const std::size_t count = std::min(kBlockServers, servers - i0);
    for (std::size_t r = 0; r < count; ++r) {
      for (std::size_t j = 0; j < width; ++j) {
        utils[r * width + j] = summed(j, i0 + r);
      }
    }
    fleet.normalized_power_matrix(
        i0, count, std::span<const double>(utils.data(), count * width),
        std::span<double>(norm.data(), count * width), width);
    for (std::size_t r = 0; r < count; ++r) {
      const std::size_t i = i0 + r;
      const std::size_t m = (first[i] >> 2) / kSnapshotStride + 1;
      for (std::size_t j = 0; j < width; ++j) {
        Sums& sums = snapshots_[j * (snapshot_count_ + 1) + m];
        sums.power.add(norm[r * width + j] * peak_watts[i]);
        sums.ops.add(utils[r * width + j] * peak_ops[i]);
      }
    }
  }
  for (std::size_t j = 0; j < width; ++j) {
    Sums* const column = snapshots_.data() + j * (snapshot_count_ + 1);
    for (std::size_t m = 1; m <= snapshot_count_; ++m) {
      column[m].merge(column[m - 1]);
    }
  }
}

double StagedState::summed(std::size_t j, std::size_t i) const {
  if (j == 0) return 0.0;
  const double u = columns_.full[j - 1][i];
  return outside_unit_range(u) ? 0.0 : std::clamp(u, 0.0, 1.0);
}

void StagedState::add_terms(const Fleet& fleet, std::size_t j, std::size_t lo,
                            std::size_t hi, Sums& sums) const {
  const std::span<const double> peak_watts = fleet.peak_watts();
  const std::span<const double> peak_ops = fleet.peak_ops();
  for (std::size_t pos = lo; pos < hi; ++pos) {
    const std::size_t i = order_[pos];
    const double u = summed(j, i);
    sums.power.add(fleet.normalized_power(i, u) * peak_watts[i]);
    sums.ops.add(u * peak_ops[i]);
  }
}

void StagedState::fold_prefix(const Fleet& fleet, std::size_t j,
                              std::size_t x, Sums& plus, Sums& minus) const {
  const std::size_t below = x / kSnapshotStride;
  const std::size_t below_at = below * kSnapshotStride;
  const std::size_t above = std::min(below + 1, snapshot_count_);
  const std::size_t above_at =
      std::min(above * kSnapshotStride, order_.size());
  if (x - below_at <= above_at - x) {
    plus.merge(snapshot(j, below));
    add_terms(fleet, j, below_at, x, plus);
  } else {
    plus.merge(snapshot(j, above));
    add_terms(fleet, j, x, above_at, minus);
  }
}

std::optional<Error> StagedState::account(const Fleet& fleet,
                                          const FillPlan& plan,
                                          Assignment& totals) const {
  const std::size_t rest = plan.filled + (plan.partial ? 1 : 0);
  if (first_bad_[plan.stage + 1] < plan.filled ||
      bad_end_[plan.stage] > rest ||
      (plan.partial && outside_unit_range(plan.utilization))) {
    return Error::failed_precondition(
        "policy produced utilisation outside [0,1]");
  }
  // Column stage + 1 over [0, filled), plus column stage over [rest,
  // servers) as its whole-fleet snapshot less its prefix to rest.
  Sums plus;
  Sums minus;
  fold_prefix(fleet, plan.stage + 1, plan.filled, plus, minus);
  plus.merge(snapshot(plan.stage, snapshot_count_));
  fold_prefix(fleet, plan.stage, rest, minus, plus);
  if (plan.partial) {
    const std::size_t i = order_[plan.filled];
    const double u = std::clamp(plan.utilization, 0.0, 1.0);
    plus.power.add(fleet.normalized_power(i, u) * fleet.peak_watts()[i]);
    plus.ops.add(u * fleet.peak_ops()[i]);
  }
  plus.power.subtract(minus.power);
  plus.ops.subtract(minus.ops);
  totals.total_power_watts = plus.power.value();
  totals.total_ops = plus.ops.value();
  return std::nullopt;
}

}  // namespace epserve::cluster
