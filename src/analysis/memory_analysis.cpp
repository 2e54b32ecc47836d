#include "analysis/memory_analysis.h"

#include "analysis/context.h"
#include "stats/descriptive.h"
#include "util/contracts.h"

namespace epserve::analysis {

std::vector<MpcRow> mpc_distribution(const AnalysisContext& ctx,
                                     std::size_t min_count) {
  const auto& snap = ctx.columnar();
  const auto& groups = ctx.groups_by_mpc();
  std::vector<MpcRow> out;
  out.reserve(groups.group_count());
  for (std::size_t g = 0; g < groups.group_count(); ++g) {
    const auto members = groups.members(g);
    if (members.size() < min_count) continue;
    MpcRow row;
    row.gb_per_core = static_cast<double>(groups.key(g)) / 100.0;
    row.count = members.size();
    row.mean_ep = stats::mean(AnalysisContext::gather(snap.ep(), members));
    row.mean_score =
        stats::mean(AnalysisContext::gather(snap.overall_score(), members));
    out.push_back(row);
  }
  return out;
}

namespace {
double best_mpc(const AnalysisContext& ctx, std::size_t min_count,
                bool by_ep) {
  const auto rows = mpc_distribution(ctx, min_count);
  EPSERVE_EXPECTS(!rows.empty());
  const MpcRow* best = &rows.front();
  for (const auto& row : rows) {
    const double value = by_ep ? row.mean_ep : row.mean_score;
    const double best_value = by_ep ? best->mean_ep : best->mean_score;
    if (value > best_value) best = &row;
  }
  return best->gb_per_core;
}
}  // namespace

double best_mpc_for_ep(const AnalysisContext& ctx, std::size_t min_count) {
  return best_mpc(ctx, min_count, /*by_ep=*/true);
}

double best_mpc_for_ee(const AnalysisContext& ctx, std::size_t min_count) {
  return best_mpc(ctx, min_count, /*by_ep=*/false);
}

}  // namespace epserve::analysis
