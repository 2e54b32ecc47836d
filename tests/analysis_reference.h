// Map-based reference implementations of the §III/§IV analyses, for tests
// and the map-vs-columnar benches only. Each function groups through the
// ResultRepository std::map builders and re-derives every metric from the
// record's curve, sharing no code with src/analysis: it is the independent
// baseline the AnalysisContext entry points (`f(const AnalysisContext&)`)
// must match field for field.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <vector>

#include "analysis/async_analysis.h"
#include "analysis/idle_analysis.h"
#include "analysis/memory_analysis.h"
#include "analysis/rekeying.h"
#include "analysis/scale_analysis.h"
#include "analysis/trends.h"
#include "analysis/uarch_analysis.h"
#include "dataset/repository.h"
#include "metrics/efficiency.h"
#include "metrics/proportionality.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/regression.h"
#include "util/contracts.h"

namespace epserve::analysis::reference {

using dataset::RecordView;
using dataset::ResultRepository;

inline std::vector<YearTrendRow> year_trends(
    const ResultRepository& repo,
    dataset::YearKey key = dataset::YearKey::kHardwareAvailability) {
  std::vector<YearTrendRow> rows;
  for (const auto& [year, view] : repo.by_year(key)) {
    YearTrendRow row;
    row.year = year;
    row.count = view.size();
    row.ep = stats::summarize(ResultRepository::ep_values(view));
    row.score = stats::summarize(ResultRepository::score_values(view));
    row.peak_ee = stats::summarize(ResultRepository::metric(
        view, [](const dataset::ServerRecord& r) {
          return metrics::peak_ee(r.curve).value;
        }));
    rows.push_back(row);
  }
  return rows;
}

inline std::vector<FamilyCount> family_counts(const ResultRepository& repo) {
  std::vector<FamilyCount> out;
  for (const auto& [family, view] : repo.by_family()) {
    out.push_back({family, view.size()});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.count > b.count;
  });
  return out;
}

inline std::vector<CodenameEp> codename_ep_ranking(
    const ResultRepository& repo) {
  std::vector<CodenameEp> out;
  for (const auto& [name, view] : repo.by_codename()) {
    CodenameEp row;
    row.codename = name;
    row.count = view.size();
    const auto eps = ResultRepository::ep_values(view);
    row.mean_ep = stats::mean(eps);
    row.median_ep = stats::median(eps);
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.mean_ep > b.mean_ep;
  });
  return out;
}

inline IdleAnalysis analyze_idle_power(const ResultRepository& repo) {
  const auto view = repo.all();
  const auto eps = ResultRepository::ep_values(view);
  const auto idles = ResultRepository::idle_fraction_values(view);
  const auto scores = ResultRepository::score_values(view);
  IdleAnalysis out;
  out.ep_idle_correlation = stats::pearson(eps, idles);
  out.ep_score_correlation = stats::pearson(eps, scores);
  out.eq2 = stats::fit_exponential(idles, eps);
  out.predicted_ep_at_5pct_idle = out.eq2.predict(0.05);
  out.theoretical_max_ep = out.eq2.alpha;
  return out;
}

inline std::vector<MpcRow> mpc_distribution(const ResultRepository& repo,
                                            std::size_t min_count = 0) {
  std::vector<MpcRow> out;
  for (const auto& [mpc_centi, view] : repo.by_memory_per_core()) {
    if (view.size() < min_count) continue;
    MpcRow row;
    row.gb_per_core = static_cast<double>(mpc_centi) / 100.0;
    row.count = view.size();
    row.mean_ep = stats::mean(ResultRepository::ep_values(view));
    row.mean_score = stats::mean(ResultRepository::score_values(view));
    out.push_back(row);
  }
  return out;
}

inline double share_peaking_at_full_load(const ResultRepository& repo,
                                         int from_year, int to_year) {
  std::size_t total = 0;
  std::size_t at_full = 0;
  for (const auto& r : repo.records()) {
    if (r.hw_year < from_year || r.hw_year > to_year) continue;
    ++total;
    if (metrics::peak_ee_utilization(r.curve) == 1.0) ++at_full;
  }
  EPSERVE_EXPECTS(total > 0);
  return static_cast<double>(at_full) / static_cast<double>(total);
}

inline RekeyingResult rekeying_analysis(const ResultRepository& repo) {
  const auto by_hw = repo.by_year(dataset::YearKey::kHardwareAvailability);
  const auto by_pub = repo.by_year(dataset::YearKey::kPublished);
  RekeyingResult out;
  for (const auto& r : repo.records()) {
    if (r.year_mismatch()) ++out.mismatched_results;
  }
  out.mismatched_share = static_cast<double>(out.mismatched_results) /
                         static_cast<double>(repo.size());

  bool first = true;
  for (const auto& [year, hw_view] : by_hw) {
    const auto pub_it = by_pub.find(year);
    if (pub_it == by_pub.end()) continue;
    const auto& pub_view = pub_it->second;

    RekeyingRow row;
    row.year = year;
    row.hw_count = hw_view.size();
    row.pub_count = pub_view.size();

    const auto hw_ep = ResultRepository::ep_values(hw_view);
    const auto pub_ep = ResultRepository::ep_values(pub_view);
    const auto hw_ee = ResultRepository::score_values(hw_view);
    const auto pub_ee = ResultRepository::score_values(pub_view);

    row.avg_ep_delta = stats::mean(hw_ep) / stats::mean(pub_ep) - 1.0;
    row.med_ep_delta = stats::median(hw_ep) / stats::median(pub_ep) - 1.0;
    row.avg_ee_delta = stats::mean(hw_ee) / stats::mean(pub_ee) - 1.0;
    row.med_ee_delta = stats::median(hw_ee) / stats::median(pub_ee) - 1.0;
    out.rows.push_back(row);

    if (first) {
      out.min_avg_ep_delta = out.max_avg_ep_delta = row.avg_ep_delta;
      out.min_med_ep_delta = out.max_med_ep_delta = row.med_ep_delta;
      out.min_avg_ee_delta = out.max_avg_ee_delta = row.avg_ee_delta;
      out.min_med_ee_delta = out.max_med_ee_delta = row.med_ee_delta;
      first = false;
    } else {
      out.min_avg_ep_delta = std::min(out.min_avg_ep_delta, row.avg_ep_delta);
      out.max_avg_ep_delta = std::max(out.max_avg_ep_delta, row.avg_ep_delta);
      out.min_med_ep_delta = std::min(out.min_med_ep_delta, row.med_ep_delta);
      out.max_med_ep_delta = std::max(out.max_med_ep_delta, row.med_ep_delta);
      out.min_avg_ee_delta = std::min(out.min_avg_ee_delta, row.avg_ee_delta);
      out.max_avg_ee_delta = std::max(out.max_avg_ee_delta, row.avg_ee_delta);
      out.min_med_ee_delta = std::min(out.min_med_ee_delta, row.med_ee_delta);
      out.max_med_ee_delta = std::max(out.max_med_ee_delta, row.med_ee_delta);
    }
  }
  return out;
}

inline std::vector<ScaleRow> scale_rows(
    const std::map<int, RecordView>& groups) {
  std::vector<ScaleRow> out;
  for (const auto& [key, view] : groups) {
    ScaleRow row;
    row.key = key;
    row.count = view.size();
    row.ep = stats::summarize(ResultRepository::ep_values(view));
    row.score = stats::summarize(ResultRepository::score_values(view));
    out.push_back(row);
  }
  return out;
}

inline std::vector<ScaleRow> ep_ee_by_nodes(const ResultRepository& repo) {
  return scale_rows(repo.by_nodes());
}

inline std::vector<ScaleRow> ep_ee_by_chips(const ResultRepository& repo) {
  return scale_rows(repo.single_node_by_chips());
}

inline TwoChipComparison two_chip_vs_all(const ResultRepository& repo) {
  TwoChipComparison out;
  double ep_gain_sum = 0.0, ee_gain_sum = 0.0;
  double med_ep_gain_sum = 0.0, med_ee_gain_sum = 0.0;
  std::size_t years_counted = 0;

  for (const auto& [year, view] : repo.by_year()) {
    RecordView two_chip;
    for (const auto* r : view) {
      if (r->nodes == 1 && r->chips == 2) two_chip.push_back(r);
    }
    if (two_chip.size() < 3) continue;  // too few for a stable comparison

    TwoChipComparison::YearRow row;
    row.year = year;
    row.two_chip_count = two_chip.size();
    row.all_count = view.size();

    const auto ep_two = ResultRepository::ep_values(two_chip);
    const auto ep_all = ResultRepository::ep_values(view);
    const auto ee_two = ResultRepository::score_values(two_chip);
    const auto ee_all = ResultRepository::score_values(view);
    row.two_chip_avg_ep = stats::mean(ep_two);
    row.all_avg_ep = stats::mean(ep_all);
    row.two_chip_avg_ee = stats::mean(ee_two);
    row.all_avg_ee = stats::mean(ee_all);
    row.two_chip_med_ep = stats::median(ep_two);
    row.all_med_ep = stats::median(ep_all);
    row.two_chip_med_ee = stats::median(ee_two);
    row.all_med_ee = stats::median(ee_all);
    out.years.push_back(row);

    ep_gain_sum += row.two_chip_avg_ep / row.all_avg_ep - 1.0;
    ee_gain_sum += row.two_chip_avg_ee / row.all_avg_ee - 1.0;
    med_ep_gain_sum += row.two_chip_med_ep / row.all_med_ep - 1.0;
    med_ee_gain_sum += row.two_chip_med_ee / row.all_med_ee - 1.0;
    ++years_counted;
  }
  if (years_counted > 0) {
    out.avg_ep_gain = ep_gain_sum / static_cast<double>(years_counted);
    out.avg_ee_gain = ee_gain_sum / static_cast<double>(years_counted);
    out.median_ep_gain = med_ep_gain_sum / static_cast<double>(years_counted);
    out.median_ee_gain = med_ee_gain_sum / static_cast<double>(years_counted);
  }
  return out;
}

inline AsyncResult async_top_decile(const ResultRepository& repo) {
  const auto top_ep = repo.top_decile([](const dataset::ServerRecord& r) {
    return metrics::energy_proportionality(r.curve);
  });
  const auto top_ee = repo.top_decile([](const dataset::ServerRecord& r) {
    return metrics::overall_score(r.curve);
  });
  const auto share_by_year = [](const RecordView& view) {
    std::map<int, double> shares;
    for (const auto* r : view) shares[r->hw_year] += 1.0;
    for (auto& [year, count] : shares) {
      count /= static_cast<double>(view.size());
    }
    return shares;
  };
  AsyncResult out;
  out.decile_size = top_ep.size();
  out.top_ep_year_shares = share_by_year(top_ep);
  out.top_ee_year_shares = share_by_year(top_ee);
  out.population_year_shares = share_by_year(repo.all());

  std::set<int> ee_ids;
  for (const auto* r : top_ee) ee_ids.insert(r->id);
  std::size_t both = 0;
  for (const auto* r : top_ep) {
    if (ee_ids.contains(r->id)) ++both;
  }
  out.overlap = top_ep.empty() ? 0.0
                               : static_cast<double>(both) /
                                     static_cast<double>(top_ep.size());
  return out;
}

}  // namespace epserve::analysis::reference
