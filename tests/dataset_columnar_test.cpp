// Equivalence contract of the columnar engine (docs/COLUMNAR.md): every
// GroupIndex built over a ColumnarSnapshot key column must expose exactly the
// groups the map group-bys of tests/analysis_reference.h produce — same keys
// in the same order, same members in the same order — across population
// sizes, every context analysis must equal its map-based reference field for
// field, and a batched placement must equal its per-slot evaluations. Runs under the `columnar` ctest label, i.e. also under
// -DEPSERVE_SANITIZE=thread.
#include "dataset/columnar.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "analysis_reference.h"
#include "analysis/context.h"
#include "analysis/peak_shift.h"
#include "cluster/day_simulation.h"
#include "cluster/placement.h"
#include "dataset/generator.h"
#include "dataset/group_index.h"
#include "dataset/repository.h"
#include "metrics/derived.h"

namespace epserve::dataset {
namespace {

const std::vector<ServerRecord>& base_population() {
  static const std::vector<ServerRecord> population = [] {
    auto result = generate_population();
    EXPECT_TRUE(result.ok());
    return std::move(result).take();
  }();
  return population;
}

/// Seeded populations of three sizes: a 100-record prefix, the full 477, and
/// a 5000-record tiling (same key distribution, much larger groups).
ResultRepository repo_of_size(std::size_t n) {
  const auto& base = base_population();
  std::vector<ServerRecord> records;
  records.reserve(n);
  while (records.size() < n) {
    const std::size_t take = std::min(base.size(), n - records.size());
    records.insert(records.end(), base.begin(),
                   base.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return ResultRepository(std::move(records));
}

/// Legacy map groups flattened to (int32 key, view) pairs in map order.
using LegacyGroups = std::vector<std::pair<std::int32_t, const RecordView*>>;

void expect_equivalent(const ResultRepository& repo, const GroupIndex& groups,
                       const LegacyGroups& legacy) {
  ASSERT_EQ(groups.group_count(), legacy.size());
  const auto& records = repo.records();
  std::size_t total = 0;
  for (std::size_t g = 0; g < groups.group_count(); ++g) {
    SCOPED_TRACE(::testing::Message() << "group " << g);
    EXPECT_EQ(groups.key(g), legacy[g].first);
    const auto members = groups.members(g);
    const auto& view = *legacy[g].second;
    ASSERT_EQ(members.size(), view.size());
    for (std::size_t j = 0; j < members.size(); ++j) {
      EXPECT_EQ(&records[members[j]], view[j]);
      if (j > 0) EXPECT_LT(members[j - 1], members[j]);
    }
    const auto found = groups.find(legacy[g].first);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, g);
    total += members.size();
  }
  EXPECT_EQ(groups.total_members(), total);
  EXPECT_FALSE(groups.find(-12345).has_value());
}

class GroupingEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GroupingEquivalence, MatchesLegacyMapBuildersOnEveryKey) {
  namespace reference = analysis::reference;
  const ResultRepository repo = repo_of_size(GetParam());
  const ColumnarSnapshot snap = ColumnarSnapshot::build(repo.records());
  ASSERT_EQ(snap.size(), repo.size());

  {
    const auto legacy =
        reference::by_year(repo, YearKey::kHardwareAvailability);
    LegacyGroups flat;
    for (const auto& [year, view] : legacy) flat.emplace_back(year, &view);
    expect_equivalent(repo, GroupIndex::over(snap.hw_year()), flat);
  }
  {
    const auto legacy = reference::by_year(repo, YearKey::kPublished);
    LegacyGroups flat;
    for (const auto& [year, view] : legacy) flat.emplace_back(year, &view);
    expect_equivalent(repo, GroupIndex::over(snap.pub_year()), flat);
  }
  {
    const auto legacy = reference::by_family(repo);
    LegacyGroups flat;
    for (const auto& [family, view] : legacy) {
      flat.emplace_back(static_cast<std::int32_t>(family), &view);
    }
    expect_equivalent(repo, GroupIndex::over(snap.family_id()), flat);
  }
  {
    // Codename ids are interned sorted-ascending, so ascending-id group
    // order must equal the std::map<std::string> key order.
    const auto legacy = reference::by_codename(repo);
    const GroupIndex groups = GroupIndex::over(snap.codename_id());
    LegacyGroups flat;
    std::size_t g = 0;
    for (const auto& [codename, view] : legacy) {
      ASSERT_LT(g, groups.group_count());
      EXPECT_EQ(snap.codename_of(groups.key(g)), codename);
      flat.emplace_back(groups.key(g), &view);
      ++g;
    }
    expect_equivalent(repo, groups, flat);
  }
  {
    const auto legacy = reference::by_nodes(repo);
    LegacyGroups flat;
    for (const auto& [nodes, view] : legacy) flat.emplace_back(nodes, &view);
    expect_equivalent(repo, GroupIndex::over(snap.nodes()), flat);
  }
  {
    const auto legacy = reference::by_memory_per_core(repo);
    LegacyGroups flat;
    for (const auto& [centi, view] : legacy) flat.emplace_back(centi, &view);
    expect_equivalent(repo, GroupIndex::over(snap.mpc_centi()), flat);
  }
  {
    const auto legacy = reference::single_node_by_chips(repo);
    std::vector<std::uint8_t> mask(snap.size());
    for (std::size_t i = 0; i < snap.size(); ++i) {
      mask[i] = snap.nodes()[i] == 1 ? 1 : 0;
    }
    LegacyGroups flat;
    for (const auto& [chips, view] : legacy) flat.emplace_back(chips, &view);
    expect_equivalent(repo, GroupIndex::over_masked(snap.chips(), mask), flat);
  }
}

INSTANTIATE_TEST_SUITE_P(Populations, GroupingEquivalence,
                         ::testing::Values(std::size_t{100}, std::size_t{477},
                                           std::size_t{5000}));

// --- context analyses vs the map-based reference ----------------------------

void expect_same(const stats::Summary& a, const stats::Summary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.stddev, b.stddev);
}

void expect_same(const std::vector<analysis::YearTrendRow>& a,
                 const std::vector<analysis::YearTrendRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "trend row " << i);
    EXPECT_EQ(a[i].year, b[i].year);
    EXPECT_EQ(a[i].count, b[i].count);
    expect_same(a[i].ep, b[i].ep);
    expect_same(a[i].score, b[i].score);
    expect_same(a[i].peak_ee, b[i].peak_ee);
  }
}

void expect_same(const std::vector<analysis::ScaleRow>& a,
                 const std::vector<analysis::ScaleRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "scale row " << i);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].count, b[i].count);
    expect_same(a[i].ep, b[i].ep);
    expect_same(a[i].score, b[i].score);
  }
}

void expect_same(const std::vector<analysis::MpcRow>& a,
                 const std::vector<analysis::MpcRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "mpc row " << i);
    EXPECT_EQ(a[i].gb_per_core, b[i].gb_per_core);
    EXPECT_EQ(a[i].count, b[i].count);
    EXPECT_EQ(a[i].mean_ep, b[i].mean_ep);
    EXPECT_EQ(a[i].mean_score, b[i].mean_score);
  }
}

class ContextAnalyses : public ::testing::TestWithParam<std::size_t> {};

// The 100-record prefix is left out: it holds no 2013-2016 server, so
// share_peaking_at_full_load's non-empty-window precondition fails there.
TEST_P(ContextAnalyses, MatchMapReferenceFieldForField) {
  namespace reference = analysis::reference;
  const ResultRepository repo = repo_of_size(GetParam());
  const analysis::AnalysisContext ctx(repo);

  for (const auto key : {YearKey::kHardwareAvailability, YearKey::kPublished}) {
    expect_same(analysis::year_trends(ctx, key),
                reference::year_trends(repo, key));
  }

  const auto families = analysis::family_counts(ctx);
  const auto ref_families = reference::family_counts(repo);
  ASSERT_EQ(families.size(), ref_families.size());
  for (std::size_t i = 0; i < families.size(); ++i) {
    EXPECT_EQ(families[i].family, ref_families[i].family);
    EXPECT_EQ(families[i].count, ref_families[i].count);
  }

  const auto ranking = analysis::codename_ep_ranking(ctx);
  const auto ref_ranking = reference::codename_ep_ranking(repo);
  ASSERT_EQ(ranking.size(), ref_ranking.size());
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    EXPECT_EQ(ranking[i].codename, ref_ranking[i].codename);
    EXPECT_EQ(ranking[i].count, ref_ranking[i].count);
    EXPECT_EQ(ranking[i].mean_ep, ref_ranking[i].mean_ep);
    EXPECT_EQ(ranking[i].median_ep, ref_ranking[i].median_ep);
  }

  const auto idle = analysis::analyze_idle_power(ctx);
  const auto ref_idle = reference::analyze_idle_power(repo);
  EXPECT_EQ(idle.ep_idle_correlation, ref_idle.ep_idle_correlation);
  EXPECT_EQ(idle.ep_score_correlation, ref_idle.ep_score_correlation);
  EXPECT_EQ(idle.eq2.alpha, ref_idle.eq2.alpha);
  EXPECT_EQ(idle.eq2.beta, ref_idle.eq2.beta);
  EXPECT_EQ(idle.eq2.r_squared, ref_idle.eq2.r_squared);
  EXPECT_EQ(idle.predicted_ep_at_5pct_idle,
            ref_idle.predicted_ep_at_5pct_idle);
  EXPECT_EQ(idle.theoretical_max_ep, ref_idle.theoretical_max_ep);

  for (const std::size_t min_count : {std::size_t{0}, std::size_t{11}}) {
    expect_same(analysis::mpc_distribution(ctx, min_count),
                reference::mpc_distribution(repo, min_count));
  }

  for (const auto& [from, to] :
       {std::pair{2004, 2012}, std::pair{2013, 2016}}) {
    EXPECT_EQ(analysis::share_peaking_at_full_load(ctx, from, to),
              reference::share_peaking_at_full_load(repo, from, to));
  }

  const auto rekeying = analysis::rekeying_analysis(ctx);
  const auto ref_rekeying = reference::rekeying_analysis(repo);
  EXPECT_EQ(rekeying.mismatched_results, ref_rekeying.mismatched_results);
  EXPECT_EQ(rekeying.mismatched_share, ref_rekeying.mismatched_share);
  EXPECT_EQ(rekeying.min_avg_ep_delta, ref_rekeying.min_avg_ep_delta);
  EXPECT_EQ(rekeying.max_avg_ep_delta, ref_rekeying.max_avg_ep_delta);
  EXPECT_EQ(rekeying.min_med_ep_delta, ref_rekeying.min_med_ep_delta);
  EXPECT_EQ(rekeying.max_med_ep_delta, ref_rekeying.max_med_ep_delta);
  EXPECT_EQ(rekeying.min_avg_ee_delta, ref_rekeying.min_avg_ee_delta);
  EXPECT_EQ(rekeying.max_avg_ee_delta, ref_rekeying.max_avg_ee_delta);
  EXPECT_EQ(rekeying.min_med_ee_delta, ref_rekeying.min_med_ee_delta);
  EXPECT_EQ(rekeying.max_med_ee_delta, ref_rekeying.max_med_ee_delta);
  ASSERT_EQ(rekeying.rows.size(), ref_rekeying.rows.size());
  for (std::size_t i = 0; i < rekeying.rows.size(); ++i) {
    const auto& row = rekeying.rows[i];
    const auto& ref_row = ref_rekeying.rows[i];
    EXPECT_EQ(row.year, ref_row.year);
    EXPECT_EQ(row.hw_count, ref_row.hw_count);
    EXPECT_EQ(row.pub_count, ref_row.pub_count);
    EXPECT_EQ(row.avg_ep_delta, ref_row.avg_ep_delta);
    EXPECT_EQ(row.med_ep_delta, ref_row.med_ep_delta);
    EXPECT_EQ(row.avg_ee_delta, ref_row.avg_ee_delta);
    EXPECT_EQ(row.med_ee_delta, ref_row.med_ee_delta);
  }

  expect_same(analysis::ep_ee_by_nodes(ctx), reference::ep_ee_by_nodes(repo));
  expect_same(analysis::ep_ee_by_chips(ctx), reference::ep_ee_by_chips(repo));

  const auto two_chip = analysis::two_chip_vs_all(ctx);
  const auto ref_two_chip = reference::two_chip_vs_all(repo);
  EXPECT_EQ(two_chip.avg_ep_gain, ref_two_chip.avg_ep_gain);
  EXPECT_EQ(two_chip.avg_ee_gain, ref_two_chip.avg_ee_gain);
  EXPECT_EQ(two_chip.median_ep_gain, ref_two_chip.median_ep_gain);
  EXPECT_EQ(two_chip.median_ee_gain, ref_two_chip.median_ee_gain);
  ASSERT_EQ(two_chip.years.size(), ref_two_chip.years.size());
  for (std::size_t i = 0; i < two_chip.years.size(); ++i) {
    const auto& row = two_chip.years[i];
    const auto& ref_row = ref_two_chip.years[i];
    EXPECT_EQ(row.year, ref_row.year);
    EXPECT_EQ(row.two_chip_count, ref_row.two_chip_count);
    EXPECT_EQ(row.all_count, ref_row.all_count);
    EXPECT_EQ(row.two_chip_avg_ep, ref_row.two_chip_avg_ep);
    EXPECT_EQ(row.all_avg_ep, ref_row.all_avg_ep);
    EXPECT_EQ(row.two_chip_avg_ee, ref_row.two_chip_avg_ee);
    EXPECT_EQ(row.all_avg_ee, ref_row.all_avg_ee);
    EXPECT_EQ(row.two_chip_med_ep, ref_row.two_chip_med_ep);
    EXPECT_EQ(row.all_med_ep, ref_row.all_med_ep);
    EXPECT_EQ(row.two_chip_med_ee, ref_row.two_chip_med_ee);
    EXPECT_EQ(row.all_med_ee, ref_row.all_med_ee);
  }

  const auto async = analysis::async_top_decile(ctx);
  const auto ref_async = reference::async_top_decile(repo);
  EXPECT_EQ(async.decile_size, ref_async.decile_size);
  EXPECT_EQ(async.overlap, ref_async.overlap);
  EXPECT_EQ(async.top_ep_year_shares, ref_async.top_ep_year_shares);
  EXPECT_EQ(async.top_ee_year_shares, ref_async.top_ee_year_shares);
  EXPECT_EQ(async.population_year_shares, ref_async.population_year_shares);
}

INSTANTIATE_TEST_SUITE_P(Populations, ContextAnalyses,
                         ::testing::Values(std::size_t{477},
                                           std::size_t{5000}));

// --- the analyses outside the report passes vs the map reference ------------

void expect_same(const std::vector<analysis::ForecastPoint>& a,
                 const std::vector<analysis::ForecastPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].year, b[i].year);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

void expect_same(const stats::LinearFit& a, const stats::LinearFit& b) {
  EXPECT_EQ(a.slope, b.slope);
  EXPECT_EQ(a.intercept, b.intercept);
  EXPECT_EQ(a.r_squared, b.r_squared);
}

void expect_same(const Result<analysis::CounterfactualResult>& a,
                 const Result<analysis::CounterfactualResult>& b) {
  ASSERT_EQ(a.ok(), b.ok());
  if (!a.ok()) {
    EXPECT_EQ(a.error().code, b.error().code);
    EXPECT_EQ(a.error().message, b.error().message);
    return;
  }
  EXPECT_EQ(a.value().reference_codename, b.value().reference_codename);
  EXPECT_EQ(a.value().dip_removed, b.value().dip_removed);
  ASSERT_EQ(a.value().rows.size(), b.value().rows.size());
  for (std::size_t i = 0; i < a.value().rows.size(); ++i) {
    const auto& row = a.value().rows[i];
    const auto& ref_row = b.value().rows[i];
    EXPECT_EQ(row.year, ref_row.year);
    EXPECT_EQ(row.count, ref_row.count);
    EXPECT_EQ(row.actual_mean_ep, ref_row.actual_mean_ep);
    EXPECT_EQ(row.counterfactual_mean_ep, ref_row.counterfactual_mean_ep);
  }
}

class ContextEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ContextEquivalence, ConvertedAnalysesMatchMapReferenceFieldForField) {
  namespace reference = analysis::reference;
  const ResultRepository repo = repo_of_size(GetParam());
  const analysis::AnalysisContext ctx(repo);

  {
    SCOPED_TRACE("frozen_mix_counterfactual");
    expect_same(analysis::frozen_mix_counterfactual(ctx),
                reference::frozen_mix_counterfactual(repo));
    expect_same(analysis::frozen_mix_counterfactual(ctx, "Sandy Bridge EN",
                                                    2008, 2016),
                reference::frozen_mix_counterfactual(repo, "Sandy Bridge EN",
                                                     2008, 2016));
    expect_same(analysis::frozen_mix_counterfactual(ctx, "Zen 7"),
                reference::frozen_mix_counterfactual(repo, "Zen 7"));
    expect_same(
        analysis::frozen_mix_counterfactual(ctx, "Sandy Bridge EP", 2030, 2031),
        reference::frozen_mix_counterfactual(repo, "Sandy Bridge EP", 2030,
                                             2031));
  }

  {
    SCOPED_TRACE("efficiency_zones");
    const auto zones = analysis::efficiency_zones(ctx);
    const auto ref_zones = reference::efficiency_zones(repo);
    ASSERT_EQ(zones.size(), ref_zones.size());
    for (std::size_t i = 0; i < zones.size(); ++i) {
      EXPECT_EQ(zones[i].server_id, ref_zones[i].server_id);
      EXPECT_EQ(zones[i].ep, ref_zones[i].ep);
      EXPECT_EQ(zones[i].zone_start, ref_zones[i].zone_start);
      EXPECT_EQ(zones[i].zone_width, ref_zones[i].zone_width);
    }
    EXPECT_EQ(analysis::zone_width_ep_correlation(ctx),
              reference::zone_width_ep_correlation(repo));
  }

  {
    SCOPED_TRACE("envelopes");
    const auto power = analysis::power_envelope(ctx);
    const auto ref_power = reference::power_envelope(repo);
    EXPECT_EQ(power.lower, ref_power.lower);
    EXPECT_EQ(power.upper, ref_power.upper);
    EXPECT_EQ(power.min_ep_server, ref_power.min_ep_server);
    EXPECT_EQ(power.max_ep_server, ref_power.max_ep_server);
    EXPECT_EQ(power.min_ep, ref_power.min_ep);
    EXPECT_EQ(power.max_ep, ref_power.max_ep);
    const auto ee = analysis::ee_envelope(ctx);
    const auto ref_ee = reference::ee_envelope(repo);
    EXPECT_EQ(ee.lower, ref_ee.lower);
    EXPECT_EQ(ee.upper, ref_ee.upper);
    EXPECT_EQ(ee.min_ep_server, ref_ee.min_ep_server);
    EXPECT_EQ(ee.max_ep_server, ref_ee.max_ep_server);
  }

  {
    SCOPED_TRACE("forecasts");
    for (const auto& [from, until] : {std::pair{2010, 2026}, std::pair{2004, 2060}}) {
      const auto shift = analysis::forecast_peak_shift(ctx, from, until);
      const auto ref_shift = reference::forecast_peak_shift(repo, from, until);
      expect_same(shift.observed, ref_shift.observed);
      expect_same(shift.trend, ref_shift.trend);
      expect_same(shift.projected, ref_shift.projected);
      EXPECT_EQ(shift.year_reaching_50, ref_shift.year_reaching_50);
      EXPECT_EQ(shift.year_reaching_40, ref_shift.year_reaching_40);
    }
    for (const int from : {2004, 2008}) {
      const auto idle = analysis::forecast_idle_fraction(ctx, from);
      const auto ref_idle = reference::forecast_idle_fraction(repo, from);
      expect_same(idle.observed, ref_idle.observed);
      expect_same(idle.trend, ref_idle.trend);
    }
  }

  {
    SCOPED_TRACE("gap_profile and mean_idle_fraction");
    for (const auto& [from, to] :
         {std::pair{2004, 2008}, std::pair{2009, 2011}, std::pair{2012, 2013},
          std::pair{2014, 2016}, std::pair{2004, 2016}}) {
      const auto gap = analysis::gap_profile(ctx, from, to);
      const auto ref_gap = reference::gap_profile(repo, from, to);
      EXPECT_EQ(gap.from_year, ref_gap.from_year);
      EXPECT_EQ(gap.to_year, ref_gap.to_year);
      EXPECT_EQ(gap.servers, ref_gap.servers);
      EXPECT_EQ(gap.mean_gap, ref_gap.mean_gap);
      EXPECT_EQ(analysis::mean_idle_fraction(ctx, from, to),
                reference::mean_idle_fraction(repo, from, to));
    }
  }

  {
    SCOPED_TRACE("metric comparison");
    const auto agreement = analysis::metric_agreement(ctx);
    const auto ref_agreement = reference::metric_agreement(repo);
    EXPECT_EQ(agreement.ld_vs_ep, ref_agreement.ld_vs_ep);
    EXPECT_EQ(agreement.ipr_vs_ep, ref_agreement.ipr_vs_ep);
    EXPECT_EQ(agreement.dr_vs_ep, ref_agreement.dr_vs_ep);
    EXPECT_EQ(agreement.gap_vs_ep, ref_agreement.gap_vs_ep);
    const auto tiers = analysis::peak_location_by_ep_tier(ctx);
    const auto ref_tiers = reference::peak_location_by_ep_tier(repo);
    ASSERT_EQ(tiers.size(), ref_tiers.size());
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      EXPECT_EQ(tiers[i].quartile, ref_tiers[i].quartile);
      EXPECT_EQ(tiers[i].count, ref_tiers[i].count);
      EXPECT_EQ(tiers[i].mean_ep, ref_tiers[i].mean_ep);
      EXPECT_EQ(tiers[i].mean_peak_utilization,
                ref_tiers[i].mean_peak_utilization);
      EXPECT_EQ(tiers[i].share_at_full_load, ref_tiers[i].share_at_full_load);
      EXPECT_EQ(tiers[i].share_at_60, ref_tiers[i].share_at_60);
    }
    EXPECT_EQ(analysis::share_peaking_at_60(ctx),
              reference::share_peaking_at_60(repo));
  }

  {
    SCOPED_TRACE("peak spots");
    const auto spots = analysis::peak_spot_by_year(ctx);
    const auto ref_spots = reference::peak_spot_by_year(repo);
    ASSERT_EQ(spots.size(), ref_spots.size());
    for (std::size_t i = 0; i < spots.size(); ++i) {
      EXPECT_EQ(spots[i].year, ref_spots[i].year);
      EXPECT_EQ(spots[i].servers, ref_spots[i].servers);
      EXPECT_EQ(spots[i].spots, ref_spots[i].spots);
    }
    EXPECT_EQ(analysis::global_spot_shares(ctx),
              reference::global_spot_shares(repo));
    EXPECT_EQ(analysis::total_spots(ctx), reference::total_spots(repo));
  }

  {
    SCOPED_TRACE("codename mix");
    for (const auto& [from, to] :
         {std::pair{2012, 2016}, std::pair{2004, 2016}}) {
      EXPECT_EQ(analysis::yearly_codename_mix(ctx, from, to),
                reference::yearly_codename_mix(repo, from, to));
      const auto mix = analysis::composition_decomposition(ctx, from, to);
      const auto ref_mix = reference::composition_decomposition(repo, from, to);
      ASSERT_EQ(mix.size(), ref_mix.size());
      for (std::size_t i = 0; i < mix.size(); ++i) {
        EXPECT_EQ(mix[i].year, ref_mix[i].year);
        EXPECT_EQ(mix[i].actual_mean_ep, ref_mix[i].actual_mean_ep);
        EXPECT_EQ(mix[i].composition_predicted_ep,
                  ref_mix[i].composition_predicted_ep);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Populations, ContextEquivalence,
                         ::testing::Values(std::size_t{477},
                                           std::size_t{5000}));

TEST(ColumnarSnapshot, DerivedColumnsAreBitwiseCopiesOfTheBundle) {
  const ResultRepository repo = repo_of_size(477);
  std::vector<metrics::DerivedCurveMetrics> derived;
  derived.reserve(repo.size());
  for (const auto& r : repo.records()) {
    derived.push_back(metrics::derive_curve_metrics(r.curve));
  }
  const ColumnarSnapshot snap = ColumnarSnapshot::build(repo.records(), derived);
  ASSERT_EQ(snap.size(), derived.size());
  for (std::size_t i = 0; i < derived.size(); ++i) {
    EXPECT_EQ(snap.ep()[i], derived[i].ep);
    EXPECT_EQ(snap.overall_score()[i], derived[i].overall_score);
    EXPECT_EQ(snap.idle_fraction()[i], derived[i].idle_fraction);
    EXPECT_EQ(snap.peak_ee_value()[i], derived[i].peak_ee.value);
    EXPECT_EQ(snap.peak_ee_utilization()[i], derived[i].peak_ee_utilization);
  }
}

TEST(EvaluateBatch, BitIdenticalToPerSlotEvaluate) {
  const auto& base = base_population();
  const std::vector<ServerRecord> fleet(base.begin(), base.begin() + 32);
  const cluster::OptimalRegionPolicy policy;
  const auto trace = cluster::make_trace("diurnal").value();
  auto batched = cluster::evaluate_batch(policy, cluster::Fleet::from_records(fleet), trace.demand);
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(batched.value().size(), trace.demand.size());
  for (std::size_t d = 0; d < trace.demand.size(); ++d) {
    auto single = cluster::evaluate(policy, cluster::Fleet::from_records(fleet), trace.demand[d]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batched.value()[d].total_power_watts,
              single.value().total_power_watts);
    EXPECT_EQ(batched.value()[d].total_ops, single.value().total_ops);
    EXPECT_EQ(batched.value()[d].utilization, single.value().utilization);
  }
}

TEST(EvaluateBatch, RejectsWithTheSameErrorsAsEvaluate) {
  const auto& base = base_population();
  const std::vector<ServerRecord> fleet(base.begin(), base.begin() + 4);
  const cluster::BalancedPolicy policy;
  const std::vector<double> bad{0.5, 1.5};
  auto result = cluster::evaluate_batch(policy, cluster::Fleet::from_records(fleet), bad);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().message, "demand must be in [0, 1]");
  const std::vector<double> nan{0.5, std::numeric_limits<double>::quiet_NaN()};
  auto nan_result = cluster::evaluate_batch(
      policy, cluster::Fleet::from_records(fleet), nan);
  ASSERT_FALSE(nan_result.ok());
  EXPECT_EQ(nan_result.error().message, "demand must be in [0, 1]");
  auto empty = cluster::evaluate_batch(policy, cluster::Fleet::from_records(std::vector<dataset::ServerRecord>{}), bad);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.error().message, "fleet is empty");
}

TEST(ColumnarConcurrency, SnapshotAndIndexesBuildOnceUnderContention) {
  const ResultRepository repo = repo_of_size(477);
  const analysis::AnalysisContext ctx(repo);
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      (void)ctx.columnar();
      (void)ctx.groups_by_year(YearKey::kHardwareAvailability);
      (void)ctx.groups_by_year(YearKey::kPublished);
      (void)ctx.groups_by_family();
      (void)ctx.groups_by_codename();
      (void)ctx.groups_by_nodes();
      (void)ctx.groups_single_node_by_chips();
      (void)ctx.groups_by_mpc();
    });
  }
  for (auto& worker : workers) worker.join();
  const auto stats = ctx.cache_stats();
  EXPECT_EQ(stats.columnar_builds, 1);
  EXPECT_EQ(stats.group_index_builds, 7);
}

TEST(ColumnarContext, MpcDistributionMatchesRepoOverload) {
  const ResultRepository repo = repo_of_size(477);
  const analysis::AnalysisContext ctx(repo);
  for (const std::size_t min_count : {std::size_t{0}, std::size_t{11}}) {
    expect_same(analysis::mpc_distribution(ctx, min_count),
                analysis::reference::mpc_distribution(repo, min_count));
  }
}

}  // namespace
}  // namespace epserve::dataset
