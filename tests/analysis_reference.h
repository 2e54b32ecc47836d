// Map-based reference implementations of the §III/§IV analyses, for tests
// and the map-vs-columnar bench only. The std::map group-bys over a
// ResultRepository (by year, family, codename, topology, memory per core)
// and the per-view metric extractors live here, not in the library: every
// reference analysis groups through them and re-derives each metric from
// the record's curve, sharing no code with src/analysis. It is the
// independent baseline the AnalysisContext entry points
// (`f(const AnalysisContext&)`) must match field for field.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/async_analysis.h"
#include "analysis/counterfactual.h"
#include "analysis/efficiency_zones.h"
#include "analysis/envelope.h"
#include "analysis/forecast.h"
#include "analysis/gap_analysis.h"
#include "analysis/idle_analysis.h"
#include "analysis/memory_analysis.h"
#include "analysis/metric_comparison.h"
#include "analysis/peak_shift.h"
#include "analysis/rekeying.h"
#include "analysis/report.h"
#include "analysis/scale_analysis.h"
#include "analysis/trends.h"
#include "analysis/uarch_analysis.h"
#include "dataset/repository.h"
#include "metrics/efficiency.h"
#include "metrics/proportionality.h"
#include "power/uarch.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/rank.h"
#include "stats/regression.h"
#include "util/contracts.h"
#include "util/result.h"

namespace epserve::analysis::reference {

using dataset::RecordView;
using dataset::ResultRepository;
using dataset::ServerRecord;

// --- map group-bys and metric extraction -----------------------------------

/// Shared group-builder: one counting pass so every group vector is
/// allocated exactly once, then a fill pass in record order. `key_of`
/// returns nullopt for records excluded from the grouping.
template <typename Key, typename KeyFn>
std::map<Key, RecordView> grouped(const ResultRepository& repo,
                                  KeyFn&& key_of) {
  std::map<Key, std::size_t> counts;
  for (const auto& r : repo.records()) {
    if (const auto key = key_of(r)) ++counts[*key];
  }
  std::map<Key, RecordView> groups;
  for (const auto& [key, count] : counts) groups[key].reserve(count);
  for (const auto& r : repo.records()) {
    if (const auto key = key_of(r)) groups[*key].push_back(&r);
  }
  return groups;
}

/// Grouped by year under the chosen key (ascending year order).
inline std::map<int, RecordView> by_year(
    const ResultRepository& repo,
    dataset::YearKey key = dataset::YearKey::kHardwareAvailability) {
  return grouped<int>(repo, [key](const ServerRecord& r) {
    return std::optional<int>(
        key == dataset::YearKey::kHardwareAvailability ? r.hw_year
                                                       : r.pub_year);
  });
}

inline std::map<power::UarchFamily, RecordView> by_family(
    const ResultRepository& repo) {
  return grouped<power::UarchFamily>(repo, [](const ServerRecord& r) {
    const auto* info = power::find_uarch(r.cpu_codename);
    EPSERVE_ENSURES(info != nullptr);
    return std::optional<power::UarchFamily>(info->family);
  });
}

inline std::map<std::string, RecordView> by_codename(
    const ResultRepository& repo) {
  return grouped<std::string>(repo, [](const ServerRecord& r) {
    return std::optional<std::string>(r.cpu_codename);
  });
}

inline std::map<int, RecordView> by_nodes(const ResultRepository& repo) {
  return grouped<int>(repo, [](const ServerRecord& r) {
    return std::optional<int>(r.nodes);
  });
}

/// Single-node records only, grouped by chip count.
inline std::map<int, RecordView> single_node_by_chips(
    const ResultRepository& repo) {
  return grouped<int>(repo, [](const ServerRecord& r) {
    return r.nodes == 1 ? std::optional<int>(r.chips) : std::nullopt;
  });
}

/// Grouped by memory per core, keyed by integer centi-GB-per-core (150 ==
/// 1.50 GB/core), the key the columnar snapshot's mpc_centi column holds.
inline std::map<int, RecordView> by_memory_per_core(
    const ResultRepository& repo) {
  return grouped<int>(repo, [](const ServerRecord& r) {
    return std::optional<int>(
        static_cast<int>(std::lround(r.memory_per_core() * 100.0)));
  });
}

/// Metric vector over a view, in view order.
inline std::vector<double> metric(
    const RecordView& view, const std::function<double(const ServerRecord&)>& fn) {
  std::vector<double> out;
  out.reserve(view.size());
  for (const auto* r : view) out.push_back(fn(*r));
  return out;
}

inline std::vector<double> ep_values(const RecordView& view) {
  return metric(view, [](const ServerRecord& r) {
    return metrics::energy_proportionality(r.curve);
  });
}

inline std::vector<double> score_values(const RecordView& view) {
  return metric(view, [](const ServerRecord& r) {
    return metrics::overall_score(r.curve);
  });
}

inline std::vector<double> idle_fraction_values(const RecordView& view) {
  return metric(view,
                [](const ServerRecord& r) { return r.curve.idle_fraction(); });
}

/// The ceil(10%) records with the highest value of `fn` (ties broken by
/// record id).
inline RecordView top_decile(
    const ResultRepository& repo,
    const std::function<double(const ServerRecord&)>& fn) {
  RecordView view = repo.all();
  const auto cutoff =
      static_cast<std::size_t>(std::ceil(static_cast<double>(view.size()) * 0.1));
  std::sort(view.begin(), view.end(),
            [&](const ServerRecord* a, const ServerRecord* b) {
              const double fa = fn(*a);
              const double fb = fn(*b);
              if (fa != fb) return fa > fb;
              return a->id < b->id;
            });
  view.resize(std::min(cutoff, view.size()));
  return view;
}

// --- the report passes' analyses -------------------------------------------

inline std::vector<YearTrendRow> year_trends(
    const ResultRepository& repo,
    dataset::YearKey key = dataset::YearKey::kHardwareAvailability) {
  std::vector<YearTrendRow> rows;
  for (const auto& [year, view] : by_year(repo, key)) {
    YearTrendRow row;
    row.year = year;
    row.count = view.size();
    row.ep = stats::summarize(ep_values(view));
    row.score = stats::summarize(score_values(view));
    row.peak_ee = stats::summarize(metric(
        view, [](const ServerRecord& r) {
          return metrics::peak_ee(r.curve).value;
        }));
    rows.push_back(row);
  }
  return rows;
}

inline std::vector<FamilyCount> family_counts(const ResultRepository& repo) {
  std::vector<FamilyCount> out;
  for (const auto& [family, view] : by_family(repo)) {
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
  for (const auto& [name, view] : by_codename(repo)) {
    CodenameEp row;
    row.codename = name;
    row.count = view.size();
    const auto eps = ep_values(view);
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
  const auto eps = ep_values(view);
  const auto idles = idle_fraction_values(view);
  const auto scores = score_values(view);
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
  for (const auto& [mpc_centi, view] : by_memory_per_core(repo)) {
    if (view.size() < min_count) continue;
    MpcRow row;
    row.gb_per_core = static_cast<double>(mpc_centi) / 100.0;
    row.count = view.size();
    row.mean_ep = stats::mean(ep_values(view));
    row.mean_score = stats::mean(score_values(view));
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
  const auto by_hw = by_year(repo, dataset::YearKey::kHardwareAvailability);
  const auto by_pub = by_year(repo, dataset::YearKey::kPublished);
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

    const auto hw_ep = ep_values(hw_view);
    const auto pub_ep = ep_values(pub_view);
    const auto hw_ee = score_values(hw_view);
    const auto pub_ee = score_values(pub_view);

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
    row.ep = stats::summarize(ep_values(view));
    row.score = stats::summarize(score_values(view));
    out.push_back(row);
  }
  return out;
}

inline std::vector<ScaleRow> ep_ee_by_nodes(const ResultRepository& repo) {
  return scale_rows(by_nodes(repo));
}

inline std::vector<ScaleRow> ep_ee_by_chips(const ResultRepository& repo) {
  return scale_rows(single_node_by_chips(repo));
}

inline TwoChipComparison two_chip_vs_all(const ResultRepository& repo) {
  TwoChipComparison out;
  double ep_gain_sum = 0.0, ee_gain_sum = 0.0;
  double med_ep_gain_sum = 0.0, med_ee_gain_sum = 0.0;
  std::size_t years_counted = 0;

  for (const auto& [year, view] : by_year(repo)) {
    RecordView two_chip;
    for (const auto* r : view) {
      if (r->nodes == 1 && r->chips == 2) two_chip.push_back(r);
    }
    if (two_chip.size() < 3) continue;  // too few for a stable comparison

    TwoChipComparison::YearRow row;
    row.year = year;
    row.two_chip_count = two_chip.size();
    row.all_count = view.size();

    const auto ep_two = ep_values(two_chip);
    const auto ep_all = ep_values(view);
    const auto ee_two = score_values(two_chip);
    const auto ee_all = score_values(view);
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
  const auto top_ep = top_decile(repo, [](const ServerRecord& r) {
    return metrics::energy_proportionality(r.curve);
  });
  const auto top_ee = top_decile(repo, [](const ServerRecord& r) {
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

/// Every pass's FullReport fields straight off the maps, nothing shared and
/// nothing cached: the report run_passes must render byte for byte.
inline FullReport full_report(const ResultRepository& repo) {
  FullReport report;
  report.population = repo.size();
  report.trends_by_hw_year =
      year_trends(repo, dataset::YearKey::kHardwareAvailability);
  report.trends_by_pub_year = year_trends(repo, dataset::YearKey::kPublished);
  report.ep_jump_2008_2009 =
      ep_jump(report.trends_by_hw_year, 2008, 2009).value_or(0.0);
  report.ep_jump_2011_2012 =
      ep_jump(report.trends_by_hw_year, 2011, 2012).value_or(0.0);
  report.codename_ranking = codename_ep_ranking(repo);
  report.idle = analyze_idle_power(repo);
  report.share_full_load_2004_2012 =
      share_peaking_at_full_load(repo, 2004, 2012);
  report.share_full_load_2013_2016 =
      share_peaking_at_full_load(repo, 2013, 2016);
  report.async = async_top_decile(repo);
  report.two_chip = two_chip_vs_all(repo);
  report.rekeying = rekeying_analysis(repo);
  return report;
}

// --- the analyses outside the report passes --------------------------------

inline Result<CounterfactualResult> frozen_mix_counterfactual(
    const ResultRepository& repo,
    const std::string& reference_codename = "Sandy Bridge EP",
    int from_year = 2012, int to_year = 2016) {
  if (from_year > to_year) {
    return Error::invalid_argument("year range inverted");
  }
  // Global per-codename mean EP.
  std::map<std::string, double> codename_mean;
  for (const auto& [name, view] : by_codename(repo)) {
    codename_mean[name] = stats::mean(ep_values(view));
  }
  const auto reference = codename_mean.find(reference_codename);
  if (reference == codename_mean.end()) {
    return Error::not_found("reference codename not in population: " +
                            reference_codename);
  }

  CounterfactualResult result;
  result.reference_codename = reference_codename;
  for (const auto& [year, view] : by_year(repo)) {
    if (year < from_year || year > to_year) continue;
    CounterfactualRow row;
    row.year = year;
    row.count = view.size();
    double actual = 0.0;
    double counterfactual = 0.0;
    for (const auto* r : view) {
      const double ep = metrics::energy_proportionality(r->curve);
      actual += ep;
      const double residual = ep - codename_mean.at(r->cpu_codename);
      counterfactual += reference->second + residual;
    }
    row.actual_mean_ep = actual / static_cast<double>(view.size());
    row.counterfactual_mean_ep =
        counterfactual / static_cast<double>(view.size());
    result.rows.push_back(row);
  }
  if (result.rows.empty()) {
    return Error::not_found("no servers in the requested year range");
  }

  result.dip_removed = true;
  const double baseline = result.rows.front().counterfactual_mean_ep;
  for (const auto& row : result.rows) {
    if (row.count < 10) continue;  // thin years carry outlier residue
    if (row.counterfactual_mean_ep < baseline - 0.01) {
      result.dip_removed = false;
    }
  }
  return result;
}

inline std::vector<ZoneRow> efficiency_zones(const ResultRepository& repo) {
  std::vector<ZoneRow> rows;
  rows.reserve(repo.size());
  for (const auto& r : repo.records()) {
    rows.push_back(efficiency_zone(r));
  }
  std::sort(rows.begin(), rows.end(),
            [](const ZoneRow& a, const ZoneRow& b) { return a.ep < b.ep; });
  return rows;
}

inline double zone_width_ep_correlation(const ResultRepository& repo) {
  std::vector<double> eps, widths;
  for (const auto& r : repo.records()) {
    const ZoneRow row = efficiency_zone(r);
    eps.push_back(row.ep);
    widths.push_back(row.zone_width);
  }
  return stats::pearson(eps, widths);
}

inline PowerEnvelope power_envelope(const ResultRepository& repo) {
  EPSERVE_EXPECTS(repo.size() > 0);
  PowerEnvelope env;
  env.lower.fill(2.0);
  env.upper.fill(0.0);
  env.min_ep = 2.0;
  env.max_ep = 0.0;
  for (const auto& r : repo.records()) {
    const auto points = normalized_power_points(r);
    for (std::size_t i = 0; i < kEnvelopePoints; ++i) {
      env.lower[i] = std::min(env.lower[i], points[i]);
      env.upper[i] = std::max(env.upper[i], points[i]);
    }
    const double ep = metrics::energy_proportionality(r.curve);
    if (ep < env.min_ep) {
      env.min_ep = ep;
      env.min_ep_server = &r;
    }
    if (ep > env.max_ep) {
      env.max_ep = ep;
      env.max_ep_server = &r;
    }
  }
  return env;
}

inline EeEnvelope ee_envelope(const ResultRepository& repo) {
  EPSERVE_EXPECTS(repo.size() > 0);
  EeEnvelope env;
  env.lower.fill(1e30);
  env.upper.fill(0.0);
  double min_ep = 2.0, max_ep = 0.0;
  for (const auto& r : repo.records()) {
    const auto points = normalized_ee_points(r);
    for (std::size_t i = 0; i < metrics::kNumLoadLevels; ++i) {
      env.lower[i] = std::min(env.lower[i], points[i]);
      env.upper[i] = std::max(env.upper[i], points[i]);
    }
    const double ep = metrics::energy_proportionality(r.curve);
    if (ep < min_ep) {
      min_ep = ep;
      env.min_ep_server = &r;
    }
    if (ep > max_ep) {
      max_ep = ep;
      env.max_ep_server = &r;
    }
  }
  return env;
}

inline PeakShiftForecast forecast_peak_shift(const ResultRepository& repo,
                                             int fit_from_year = 2010,
                                             int project_until = 2026) {
  PeakShiftForecast out;
  for (const auto& [year, view] : by_year(repo)) {
    if (year < fit_from_year) continue;
    const auto utils = metric(view, [](const ServerRecord& r) {
      return metrics::peak_ee_utilization(r.curve);
    });
    out.observed.push_back({year, stats::mean(utils)});
  }
  EPSERVE_EXPECTS(out.observed.size() >= 2);

  std::vector<double> xs, ys;
  for (const auto& p : out.observed) {
    xs.push_back(static_cast<double>(p.year));
    ys.push_back(p.value);
  }
  out.trend = stats::fit_linear(xs, ys);

  const int last_year = out.observed.back().year;
  for (int year = last_year + 1; year <= project_until; ++year) {
    const double projected = std::max(
        metrics::kLoadLevels.front(),
        out.trend.predict(static_cast<double>(year)));
    out.projected.push_back({year, projected});
    if (out.year_reaching_50 == 0 && projected <= 0.5) {
      out.year_reaching_50 = year;
    }
    if (out.year_reaching_40 == 0 && projected <= 0.4) {
      out.year_reaching_40 = year;
    }
  }
  return out;
}

inline IdleForecast forecast_idle_fraction(const ResultRepository& repo,
                                           int fit_from_year = 2008) {
  IdleForecast out;
  for (const auto& [year, view] : by_year(repo)) {
    if (year < fit_from_year) continue;
    const auto idles = idle_fraction_values(view);
    out.observed.push_back({year, stats::mean(idles)});
  }
  EPSERVE_EXPECTS(out.observed.size() >= 2);
  std::vector<double> xs, ys;
  for (const auto& p : out.observed) {
    xs.push_back(static_cast<double>(p.year));
    ys.push_back(p.value);
  }
  out.trend = stats::fit_linear(xs, ys);
  return out;
}

inline GapProfile gap_profile(const ResultRepository& repo, int from_year,
                              int to_year) {
  EPSERVE_EXPECTS(from_year <= to_year);
  GapProfile profile;
  profile.from_year = from_year;
  profile.to_year = to_year;
  for (const auto& r : repo.records()) {
    if (r.hw_year < from_year || r.hw_year > to_year) continue;
    profile.servers += 1;
    profile.mean_gap[0] += r.curve.idle_fraction();
    for (std::size_t i = 0; i < metrics::kNumLoadLevels; ++i) {
      profile.mean_gap[i + 1] += metrics::proportionality_gap(r.curve, i);
    }
  }
  EPSERVE_EXPECTS(profile.servers > 0);
  for (auto& g : profile.mean_gap) {
    g /= static_cast<double>(profile.servers);
  }
  return profile;
}

inline double mean_idle_fraction(const ResultRepository& repo, int from_year,
                                 int to_year) {
  std::vector<double> values;
  for (const auto& r : repo.records()) {
    if (r.hw_year >= from_year && r.hw_year <= to_year) {
      values.push_back(r.curve.idle_fraction());
    }
  }
  EPSERVE_EXPECTS(!values.empty());
  return stats::mean(values);
}

inline MetricAgreement metric_agreement(const ResultRepository& repo) {
  const auto view = repo.all();
  const auto eps = ep_values(view);
  const auto metric_of = [&](double (*fn)(const metrics::PowerCurve&)) {
    return metric(view,
                  [fn](const ServerRecord& r) { return fn(r.curve); });
  };

  MetricAgreement out;
  out.ld_vs_ep = -stats::kendall_tau(metric_of(metrics::linear_deviation), eps);
  out.ipr_vs_ep = -stats::kendall_tau(metric_of(metrics::idle_power_ratio), eps);
  out.dr_vs_ep = stats::kendall_tau(metric_of(metrics::dynamic_range), eps);
  out.gap_vs_ep =
      -stats::kendall_tau(metric_of(metrics::max_proportionality_gap), eps);
  return out;
}

inline std::vector<EpTierPeakRow> peak_location_by_ep_tier(
    const ResultRepository& repo) {
  auto view = repo.all();
  std::sort(view.begin(), view.end(),
            [](const ServerRecord* a, const ServerRecord* b) {
              return metrics::energy_proportionality(a->curve) <
                     metrics::energy_proportionality(b->curve);
            });
  std::vector<EpTierPeakRow> rows(4);
  const std::size_t n = view.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t q = std::min<std::size_t>(3, i * 4 / n);
    auto& row = rows[q];
    row.quartile = static_cast<int>(q) + 1;
    row.count += 1;
    row.mean_ep += metrics::energy_proportionality(view[i]->curve);
    const double peak_util = metrics::peak_ee_utilization(view[i]->curve);
    row.mean_peak_utilization += peak_util;
    if (peak_util == 1.0) row.share_at_full_load += 1.0;
    if (peak_util == 0.6) row.share_at_60 += 1.0;
  }
  for (auto& row : rows) {
    if (row.count == 0) continue;
    const auto count = static_cast<double>(row.count);
    row.mean_ep /= count;
    row.mean_peak_utilization /= count;
    row.share_at_full_load /= count;
    row.share_at_60 /= count;
  }
  return rows;
}

inline double share_peaking_at_60(const ResultRepository& repo) {
  std::size_t at_60 = 0;
  for (const auto& r : repo.records()) {
    if (metrics::peak_ee_utilization(r.curve) == 0.6) ++at_60;
  }
  return static_cast<double>(at_60) / static_cast<double>(repo.size());
}

inline std::vector<YearSpots> peak_spot_by_year(const ResultRepository& repo) {
  std::map<int, YearSpots> years;
  for (const auto& r : repo.records()) {
    auto& row = years[r.hw_year];
    row.year = r.hw_year;
    row.servers += 1;
    for (const auto level : metrics::peak_ee(r.curve).levels) {
      row.spots[metrics::kLoadLevels[level]] += 1;
    }
  }
  std::vector<YearSpots> out;
  out.reserve(years.size());
  for (auto& [year, row] : years) out.push_back(std::move(row));
  return out;
}

inline std::map<double, double> global_spot_shares(
    const ResultRepository& repo) {
  EPSERVE_EXPECTS(repo.size() > 0);
  std::map<double, double> shares;
  for (const auto& r : repo.records()) {
    for (const auto level : metrics::peak_ee(r.curve).levels) {
      shares[metrics::kLoadLevels[level]] += 1.0;
    }
  }
  for (auto& [spot, count] : shares) {
    count /= static_cast<double>(repo.size());
  }
  return shares;
}

inline std::size_t total_spots(const ResultRepository& repo) {
  std::size_t spots = 0;
  for (const auto& r : repo.records()) {
    spots += metrics::peak_ee(r.curve).levels.size();
  }
  return spots;
}

inline std::map<int, std::map<std::string, std::size_t>> yearly_codename_mix(
    const ResultRepository& repo, int from_year = 2012, int to_year = 2016) {
  std::map<int, std::map<std::string, std::size_t>> mix;
  for (const auto& r : repo.records()) {
    if (r.hw_year < from_year || r.hw_year > to_year) continue;
    mix[r.hw_year][r.cpu_codename] += 1;
  }
  return mix;
}

inline std::vector<MixShift> composition_decomposition(
    const ResultRepository& repo, int from_year, int to_year) {
  // Global per-codename mean EP.
  std::map<std::string, double> codename_mean;
  for (const auto& [name, view] : by_codename(repo)) {
    codename_mean[name] = stats::mean(ep_values(view));
  }

  std::vector<MixShift> out;
  for (const auto& [year, view] : by_year(repo)) {
    if (year < from_year || year > to_year) continue;
    MixShift row;
    row.year = year;
    row.actual_mean_ep = stats::mean(ep_values(view));
    double predicted = 0.0;
    for (const auto* r : view) predicted += codename_mean.at(r->cpu_codename);
    row.composition_predicted_ep = predicted / static_cast<double>(view.size());
    out.push_back(row);
  }
  return out;
}

}  // namespace epserve::analysis::reference
