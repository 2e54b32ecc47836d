#include "dataset/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "analysis_reference.h"
#include "dataset/calibration.h"
#include "dataset/repository.h"
#include "metrics/efficiency.h"
#include "metrics/proportionality.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "stats/regression.h"

namespace epserve::dataset {
namespace {

namespace reference = analysis::reference;

/// Generates once and shares across all tests in this file.
const ResultRepository& repo() {
  static const ResultRepository instance = [] {
    auto result = generate_population();
    EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().message);
    return ResultRepository(std::move(result).take());
  }();
  return instance;
}

double ep_of(const ServerRecord& r) {
  return metrics::energy_proportionality(r.curve);
}

TEST(CalibrationPlan, IsConsistent) { EXPECT_TRUE(plan_is_consistent()); }

TEST(Population, HasExactly477Servers) {
  EXPECT_EQ(repo().size(), static_cast<std::size_t>(kTotalServers));
}

TEST(Population, AllCurvesValidAndMonotone) {
  for (const auto& r : repo().records()) {
    EXPECT_TRUE(r.curve.validate().ok()) << "server " << r.id;
    EXPECT_TRUE(r.curve.power_monotone()) << "server " << r.id;
  }
}

TEST(Population, AllCodenamesResolve) {
  for (const auto& r : repo().records()) {
    EXPECT_NE(power::find_uarch(r.cpu_codename), nullptr) << r.cpu_codename;
  }
}

TEST(Population, DeterministicForSameSeed) {
  auto again = generate_population();
  ASSERT_TRUE(again.ok());
  const auto& a = repo().records();
  const auto& b = again.value();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].model, b[i].model);
    EXPECT_DOUBLE_EQ(a[i].curve.peak_watts(), b[i].curve.peak_watts());
    EXPECT_DOUBLE_EQ(ep_of(a[i]), ep_of(b[i]));
  }
}

TEST(Population, DifferentSeedDiffers) {
  GeneratorConfig config;
  config.seed = 99;
  auto other = generate_population(config);
  ASSERT_TRUE(other.ok());
  bool any_diff = false;
  for (std::size_t i = 0; i < other.value().size(); ++i) {
    if (other.value()[i].curve.peak_watts() !=
        repo().records()[i].curve.peak_watts()) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

// --- Per-year structure (paper §I / Fig.2) -----------------------------------

TEST(Population, YearCountsMatchPlan) {
  const auto groups = reference::by_year(repo());
  int total = 0;
  for (const auto& plan : year_plans()) {
    ASSERT_TRUE(groups.contains(plan.year)) << plan.year;
    EXPECT_EQ(groups.at(plan.year).size(),
              static_cast<std::size_t>(plan.count))
        << plan.year;
    total += plan.count;
  }
  EXPECT_EQ(total, kTotalServers);
}

TEST(Population, Year2012Share27Percent) {
  const auto groups = reference::by_year(repo());
  const double share =
      static_cast<double>(groups.at(2012).size()) / kTotalServers;
  EXPECT_NEAR(share, 0.274, 0.01);  // paper §IV.B: 27.4%
}

// --- EP trend (Fig.3) ---------------------------------------------------------

struct YearEpTarget {
  int year;
  double avg;
  double tolerance;
};

class EpTrendByYear : public ::testing::TestWithParam<YearEpTarget> {};

TEST_P(EpTrendByYear, AverageEpNearPaperValue) {
  const auto [year, avg, tolerance] = GetParam();
  const auto groups = reference::by_year(repo());
  const auto eps = reference::ep_values(groups.at(year));
  EXPECT_NEAR(stats::mean(eps), avg, tolerance) << "year " << year;
}

INSTANTIATE_TEST_SUITE_P(
    PaperFig3, EpTrendByYear,
    ::testing::Values(YearEpTarget{2005, 0.30, 0.05},
                      YearEpTarget{2008, 0.37, 0.03},
                      YearEpTarget{2009, 0.55, 0.03},
                      YearEpTarget{2011, 0.66, 0.03},
                      YearEpTarget{2012, 0.82, 0.03},
                      YearEpTarget{2016, 0.84, 0.03}),
    [](const ::testing::TestParamInfo<YearEpTarget>& info) {
      return "year" + std::to_string(info.param.year);
    });

TEST(EpTrend, TwoStepJumps20082009And20112012) {
  // Paper §III.A: the two microarchitecture "tock" jumps.
  const auto groups = reference::by_year(repo());
  const double avg2008 =
      stats::mean(reference::ep_values(groups.at(2008)));
  const double avg2009 =
      stats::mean(reference::ep_values(groups.at(2009)));
  const double avg2011 =
      stats::mean(reference::ep_values(groups.at(2011)));
  const double avg2012 =
      stats::mean(reference::ep_values(groups.at(2012)));
  EXPECT_GT((avg2009 - avg2008) / avg2008, 0.35);  // paper: +48.65%
  EXPECT_GT((avg2012 - avg2011) / avg2011, 0.18);  // paper: +24.24%
}

TEST(EpTrend, DipIn2013And2014ThenRecovery) {
  const auto groups = reference::by_year(repo());
  const double avg2012 =
      stats::mean(reference::ep_values(groups.at(2012)));
  const double avg2013 =
      stats::mean(reference::ep_values(groups.at(2013)));
  const double avg2014 =
      stats::mean(reference::ep_values(groups.at(2014)));
  const double avg2016 =
      stats::mean(reference::ep_values(groups.at(2016)));
  EXPECT_LT(avg2013, avg2012);
  EXPECT_LT(avg2014, avg2012);
  EXPECT_GT(avg2016, avg2013);
}

TEST(EpTrend, Median2014AboveMedian2013) {
  // Paper §III.A: despite the outlier, the 2014 median still rises.
  const auto groups = reference::by_year(repo());
  const double med2013 =
      stats::median(reference::ep_values(groups.at(2013)));
  const double med2014 =
      stats::median(reference::ep_values(groups.at(2014)));
  EXPECT_GT(med2014, med2013);
}

TEST(EpTrend, GlobalExtremaMatchPaper) {
  double lo = 2.0, hi = 0.0;
  int lo_year = 0, hi_year = 0;
  for (const auto& r : repo().records()) {
    const double ep = ep_of(r);
    if (ep < lo) {
      lo = ep;
      lo_year = r.hw_year;
    }
    if (ep > hi) {
      hi = ep;
      hi_year = r.hw_year;
    }
  }
  EXPECT_NEAR(lo, 0.18, 0.01);
  EXPECT_EQ(lo_year, 2008);
  EXPECT_NEAR(hi, 1.05, 0.01);
  EXPECT_EQ(hi_year, 2012);
}

TEST(EpTrend, Minimum2016EpIs073) {
  const auto groups = reference::by_year(repo());
  const auto eps = reference::ep_values(groups.at(2016));
  EXPECT_NEAR(*std::min_element(eps.begin(), eps.end()), 0.73, 0.01);
}

// --- EE trend (Fig.4) ---------------------------------------------------------

TEST(EeTrend, OverallScoreRisesMonotonicallyInYearAverages) {
  const auto groups = reference::by_year(repo());
  double prev = 0.0;
  for (const auto& [year, view] : groups) {
    if (year == 2014) continue;  // the paper's outlier year dents the average
    const double avg = stats::mean(reference::score_values(view));
    EXPECT_GT(avg, prev) << "year " << year;
    prev = avg;
  }
}

TEST(EeTrend, Fig1ExemplarScore12212In2016) {
  bool found = false;
  for (const auto& r : repo().records()) {
    if (r.hw_year == 2016 &&
        std::abs(metrics::overall_score(r.curve) - 12212.0) < 1.0) {
      found = true;
      EXPECT_NEAR(ep_of(r), 1.02, 0.01);
    }
  }
  EXPECT_TRUE(found);
}

TEST(EeTrend, OutlierOf2014Present) {
  bool found = false;
  for (const auto& r : repo().records()) {
    if (r.hw_year == 2014 &&
        std::abs(metrics::overall_score(r.curve) - 1469.0) < 1.0) {
      found = true;
      EXPECT_NEAR(ep_of(r), 0.32, 0.02);
      EXPECT_EQ(r.form_factor, FormFactor::kTower);
      EXPECT_EQ(r.chips, 1);
    }
  }
  EXPECT_TRUE(found);
}

// --- EP CDF (Fig.5) -----------------------------------------------------------

TEST(EpCdf, BucketSharesNearPaper) {
  const auto eps = reference::ep_values(repo().all());
  // Paper: 25.21% in [0.6, 0.7), 17.44% in [0.8, 0.9), 99.58% < 1.0.
  EXPECT_NEAR(stats::share_in(eps, 0.6, 0.7), 0.2521, 0.07);
  EXPECT_NEAR(stats::share_in(eps, 0.8, 0.9), 0.1744, 0.07);
  const double below_one =
      static_cast<double>(std::count_if(eps.begin(), eps.end(),
                                        [](double e) { return e < 1.0; })) /
      static_cast<double>(eps.size());
  EXPECT_NEAR(below_one, 0.9958, 0.003);
}

TEST(EpCdf, ExactlyTwoServersReachEpOne) {
  const auto eps = reference::ep_values(repo().all());
  const auto count =
      std::count_if(eps.begin(), eps.end(), [](double e) { return e >= 1.0; });
  EXPECT_EQ(count, 2);
}

// --- Correlations (paper §III.D, §I) -------------------------------------------

TEST(Correlations, EpVsIdleStronglyNegative) {
  const auto view = repo().all();
  const auto eps = reference::ep_values(view);
  const auto idles = reference::idle_fraction_values(view);
  const double r = stats::pearson(eps, idles);
  // Paper: -0.92.
  EXPECT_LT(r, -0.85);
  EXPECT_GT(r, -0.98);
}

TEST(Correlations, EpVsOverallScoreModeratelyPositive) {
  const auto view = repo().all();
  const auto eps = reference::ep_values(view);
  const auto scores = reference::score_values(view);
  const double r = stats::pearson(eps, scores);
  // Paper: 0.741 over the 477 valid results.
  EXPECT_GT(r, 0.55);
  EXPECT_LT(r, 0.88);
}

TEST(Correlations, Eq2ExponentialFitRecovered) {
  const auto view = repo().all();
  const auto eps = reference::ep_values(view);
  const auto idles = reference::idle_fraction_values(view);
  const auto fit = stats::fit_exponential(idles, eps);
  // Paper Eq.2: EP = 1.2969 * exp(beta * idle), R^2 = 0.892.
  EXPECT_NEAR(fit.alpha, 1.2969, 0.25);
  EXPECT_LT(fit.beta, -1.2);
  EXPECT_GT(fit.beta, -2.8);
  EXPECT_GT(fit.r_squared, 0.75);
}

// --- Peak-EE utilisation shift (Fig.16) -----------------------------------------

TEST(PeakShift, Before2010AllServersPeakAtFullLoad) {
  for (const auto& r : repo().records()) {
    if (r.hw_year < 2010) {
      EXPECT_DOUBLE_EQ(metrics::peak_ee_utilization(r.curve), 1.0)
          << "server " << r.id << " year " << r.hw_year;
    }
  }
}

TEST(PeakShift, GlobalSpotSharesNearPaper) {
  std::map<double, int> spot_counts;
  int total_spots = 0;
  for (const auto& r : repo().records()) {
    const auto peak = metrics::peak_ee(r.curve);
    for (const auto level : peak.levels) {
      spot_counts[metrics::kLoadLevels[level]] += 1;
      ++total_spots;
    }
  }
  EXPECT_EQ(total_spots, 478);  // 477 servers, one with two spots
  const auto share = [&](double u) {
    return static_cast<double>(spot_counts[u]) / 477.0;
  };
  EXPECT_NEAR(share(1.0), 0.6925, 0.02);
  EXPECT_NEAR(share(0.7), 0.1381, 0.02);
  EXPECT_NEAR(share(0.8), 0.1172, 0.02);
  EXPECT_NEAR(share(0.9), 0.0335, 0.015);
  EXPECT_NEAR(share(0.6), 0.0188, 0.01);
}

TEST(PeakShift, Exact2016Split3At100_10At80_5At70) {
  std::map<double, int> counts;
  for (const auto& r : repo().records()) {
    if (r.hw_year == 2016) counts[metrics::peak_ee_utilization(r.curve)] += 1;
  }
  EXPECT_EQ(counts[1.0], 3);
  EXPECT_EQ(counts[0.8], 10);
  EXPECT_EQ(counts[0.7], 5);
}

TEST(PeakShift, IntervalSharesMatchPaper) {
  int old_total = 0, old_at_100 = 0, new_total = 0, new_at_100 = 0;
  for (const auto& r : repo().records()) {
    const bool at_100 = metrics::peak_ee_utilization(r.curve) == 1.0;
    if (r.hw_year <= 2012) {
      ++old_total;
      old_at_100 += at_100 ? 1 : 0;
    } else {
      ++new_total;
      new_at_100 += at_100 ? 1 : 0;
    }
  }
  // Paper: 75.71% at 100% in 2004-2012; 23.21% in 2013-2016.
  EXPECT_NEAR(static_cast<double>(old_at_100) / old_total, 0.7571, 0.03);
  EXPECT_NEAR(static_cast<double>(new_at_100) / new_total, 0.2321, 0.04);
}

TEST(PeakShift, DualPeakServerExistsIn2011) {
  int dual_count = 0;
  for (const auto& r : repo().records()) {
    const auto peak = metrics::peak_ee(r.curve);
    if (peak.levels.size() == 2) {
      ++dual_count;
      EXPECT_EQ(r.hw_year, 2011);
      EXPECT_DOUBLE_EQ(metrics::kLoadLevels[peak.levels[0]], 0.8);
      EXPECT_DOUBLE_EQ(metrics::kLoadLevels[peak.levels[1]], 0.9);
    }
  }
  EXPECT_EQ(dual_count, 1);
}

// --- Topology (Fig.13/14) -------------------------------------------------------

TEST(Topology, NodeCountsMatchPlan) {
  const auto groups = reference::by_nodes(repo());
  EXPECT_EQ(groups.at(1).size(), 403u);
  EXPECT_EQ(groups.at(2).size(), 40u);
  EXPECT_EQ(groups.at(4).size(), 24u);
  EXPECT_EQ(groups.at(8).size(), 4u);
  EXPECT_EQ(groups.at(16).size(), 6u);
}

TEST(Topology, SingleNodeChipCountsMatchFig14) {
  const auto groups = reference::single_node_by_chips(repo());
  EXPECT_EQ(groups.at(1).size(), 77u);
  EXPECT_EQ(groups.at(2).size(), 284u);
  EXPECT_EQ(groups.at(4).size(), 36u);
  EXPECT_EQ(groups.at(8).size(), 6u);
}

TEST(Topology, MedianEpRisesWithNodeCount) {
  const auto groups = reference::by_nodes(repo());
  const double med2 =
      stats::median(reference::ep_values(groups.at(2)));
  const double med4 =
      stats::median(reference::ep_values(groups.at(4)));
  const double med16 =
      stats::median(reference::ep_values(groups.at(16)));
  EXPECT_LT(med2, med4);
  EXPECT_LT(med4, med16);
}

TEST(Topology, TwoChipSingleNodeServersLeadOnAverageEp) {
  const auto groups = reference::single_node_by_chips(repo());
  const double avg1 = stats::mean(reference::ep_values(groups.at(1)));
  const double avg2 = stats::mean(reference::ep_values(groups.at(2)));
  const double avg4 = stats::mean(reference::ep_values(groups.at(4)));
  const double avg8 = stats::mean(reference::ep_values(groups.at(8)));
  EXPECT_GT(avg2, avg1);
  EXPECT_GT(avg2, avg4);
  EXPECT_GT(avg4, avg8);  // monotone decline beyond 2 chips (paper §III.E)
}

// --- Memory per core (Table I) ---------------------------------------------------

TEST(MemoryPerCore, TableIQuotasReproduced) {
  // Keys are integer centi-GB-per-core: 67 == 0.67 GB/core.
  const auto groups = reference::by_memory_per_core(repo());
  EXPECT_EQ(groups.at(67).size(), 15u);
  EXPECT_EQ(groups.at(100).size(), 153u);
  EXPECT_EQ(groups.at(133).size(), 32u);
  EXPECT_EQ(groups.at(150).size(), 68u);
  EXPECT_EQ(groups.at(178).size(), 13u);
  EXPECT_EQ(groups.at(200).size(), 123u);
  EXPECT_EQ(groups.at(400).size(), 26u);
}

TEST(MemoryPerCore, TableICoversAtLeast430Servers) {
  const auto groups = reference::by_memory_per_core(repo());
  std::size_t covered = 0;
  for (const int mpc_centi : {67, 100, 133, 150, 178, 200, 400}) {
    covered += groups.at(mpc_centi).size();
  }
  EXPECT_EQ(covered, 430u);
}

// --- Published-year mismatches (§I) ----------------------------------------------

TEST(YearMismatch, Exactly74MismatchedResults) {
  int mismatched = 0;
  for (const auto& r : repo().records()) {
    if (r.year_mismatch()) ++mismatched;
  }
  EXPECT_EQ(mismatched, kYearMismatchCount);  // 15.5% of 477
}

TEST(YearMismatch, OffsetsWithinPaperRange) {
  int early_pub = 0;
  for (const auto& r : repo().records()) {
    const int offset = r.pub_year - r.hw_year;
    EXPECT_GE(offset, -1);
    EXPECT_LE(offset, 6);
    if (offset == -1) ++early_pub;
    EXPECT_GE(r.pub_year, 2007);  // benchmark launched late 2007
    EXPECT_LE(r.pub_year, 2016);
  }
  EXPECT_EQ(early_pub, 1);  // the paper's 2015-published 2016 machine
}

TEST(YearMismatch, AllPre2007HardwarePublishesLate) {
  for (const auto& r : repo().records()) {
    if (r.hw_year < 2007) EXPECT_GE(r.pub_year, 2007);
  }
}

}  // namespace
}  // namespace epserve::dataset
