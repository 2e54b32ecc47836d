// Memory-per-core analysis (paper §V.A, Table I + Fig.17): the MPC histogram
// of the published population and the per-ratio mean EP/EE, identifying the
// sweet spots (EP at 1.5 GB/core, EE at 1.78 GB/core).
#pragma once

#include <cstddef>
#include <vector>

namespace epserve::analysis {

class AnalysisContext;

struct MpcRow {
  double gb_per_core = 0.0;
  std::size_t count = 0;
  double mean_ep = 0.0;
  double mean_score = 0.0;
};

/// All observed ratios, ascending. `min_count` filters the long tail the way
/// Table I keeps only ratios with more than 10 results.
std::vector<MpcRow> mpc_distribution(const AnalysisContext& ctx,
                                     std::size_t min_count = 0);

/// Ratio with the highest mean EP / highest mean EE among rows with at least
/// `min_count` servers.
double best_mpc_for_ep(const AnalysisContext& ctx, std::size_t min_count = 11);
double best_mpc_for_ee(const AnalysisContext& ctx, std::size_t min_count = 11);

}  // namespace epserve::analysis
