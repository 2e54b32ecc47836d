#include "analysis/uarch_analysis.h"

#include <algorithm>

#include "analysis/context.h"
#include "stats/descriptive.h"

namespace epserve::analysis {

std::vector<CodenameEp> codename_ep_ranking(const AnalysisContext& ctx) {
  // Codename-id group spans. Interned ids are lexicographic ranks, so rows
  // enter the (unstable) sort in codename order, as a codename map would
  // give them.
  const auto& snap = ctx.columnar();
  const auto& groups = ctx.groups_by_codename();
  std::vector<CodenameEp> out;
  out.reserve(groups.group_count());
  for (std::size_t g = 0; g < groups.group_count(); ++g) {
    const auto members = groups.members(g);
    CodenameEp row;
    row.codename = std::string(snap.codename_of(groups.key(g)));
    row.count = members.size();
    const auto eps = AnalysisContext::gather(snap.ep(), members);
    row.mean_ep = stats::mean(eps);
    row.median_ep = stats::median(eps);
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.mean_ep > b.mean_ep;
  });
  return out;
}

std::vector<FamilyCount> family_counts(const AnalysisContext& ctx) {
  const auto& groups = ctx.groups_by_family();
  std::vector<FamilyCount> out;
  out.reserve(groups.group_count());
  for (std::size_t g = 0; g < groups.group_count(); ++g) {
    out.push_back({static_cast<power::UarchFamily>(groups.key(g)),
                   groups.members(g).size()});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.count > b.count;
  });
  return out;
}

std::map<int, std::map<std::string, std::size_t>> yearly_codename_mix(
    const dataset::ResultRepository& repo, int from_year, int to_year) {
  std::map<int, std::map<std::string, std::size_t>> mix;
  for (const auto& r : repo.records()) {
    if (r.hw_year < from_year || r.hw_year > to_year) continue;
    mix[r.hw_year][r.cpu_codename] += 1;
  }
  return mix;
}

std::vector<MixShift> composition_decomposition(
    const dataset::ResultRepository& repo, int from_year, int to_year) {
  // Global per-codename mean EP.
  std::map<std::string, double> codename_mean;
  for (const auto& [name, view] : repo.by_codename()) {
    codename_mean[name] =
        stats::mean(dataset::ResultRepository::ep_values(view));
  }

  std::vector<MixShift> out;
  for (const auto& [year, view] : repo.by_year()) {
    if (year < from_year || year > to_year) continue;
    MixShift row;
    row.year = year;
    row.actual_mean_ep =
        stats::mean(dataset::ResultRepository::ep_values(view));
    double predicted = 0.0;
    for (const auto* r : view) predicted += codename_mean.at(r->cpu_codename);
    row.composition_predicted_ep = predicted / static_cast<double>(view.size());
    out.push_back(row);
  }
  return out;
}

}  // namespace epserve::analysis
