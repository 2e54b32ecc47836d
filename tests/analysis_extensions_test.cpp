#include <gtest/gtest.h>

#include "analysis/context.h"
#include "analysis/forecast.h"
#include "analysis/metric_comparison.h"
#include "dataset/generator.h"
#include "stats/rank.h"
#include "util/contracts.h"

namespace epserve::analysis {
namespace {

const dataset::ResultRepository& repo() {
  static const dataset::ResultRepository instance = [] {
    auto result = dataset::generate_population();
    EXPECT_TRUE(result.ok());
    return dataset::ResultRepository(std::move(result).take());
  }();
  return instance;
}

const AnalysisContext& ctx() {
  static const AnalysisContext instance(repo());
  return instance;
}

// --- Kendall tau -----------------------------------------------------------

TEST(KendallTau, PerfectAgreementAndReversal) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {10.0, 20.0, 30.0, 40.0};
  const std::vector<double> y_rev = {40.0, 30.0, 20.0, 10.0};
  EXPECT_DOUBLE_EQ(stats::kendall_tau(x, y), 1.0);
  EXPECT_DOUBLE_EQ(stats::kendall_tau(x, y_rev), -1.0);
}

TEST(KendallTau, KnownMixedCase) {
  // Pairs: (1,3),(2,1),(3,2): concordant (2,1)-(3,2); discordant
  // (1,3)-(2,1), (1,3)-(3,2). tau = (1 - 2) / 3.
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = {3.0, 1.0, 2.0};
  EXPECT_NEAR(stats::kendall_tau(x, y), -1.0 / 3.0, 1e-12);
}

TEST(KendallTau, TiesReduceMagnitude) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = {5.0, 5.0, 6.0};
  // One tied pair contributes 0; two concordant of three pairs.
  EXPECT_NEAR(stats::kendall_tau(x, y), 2.0 / 3.0, 1e-12);
}

TEST(KendallTau, RejectsDegenerateInput) {
  const std::vector<double> one = {1.0};
  EXPECT_THROW(static_cast<void>(stats::kendall_tau(one, one)),
               ContractViolation);
  const std::vector<double> x = {1.0, 2.0};
  const std::vector<double> y3 = {1.0, 2.0, 3.0};
  EXPECT_THROW(static_cast<void>(stats::kendall_tau(x, y3)),
               ContractViolation);
}

// --- Metric agreement (related work §VI) ------------------------------------

TEST(MetricComparison, CompanionMetricsAgreeWithEp) {
  const auto agreement = metric_agreement(ctx());
  // IPR and DR are near-monotone transforms of EP on real curves; LD and the
  // max gap agree strongly but not perfectly (they see curve shape).
  EXPECT_GT(agreement.ipr_vs_ep, 0.7);
  EXPECT_GT(agreement.dr_vs_ep, 0.7);
  EXPECT_GT(agreement.ld_vs_ep, 0.4);
  EXPECT_GT(agreement.gap_vs_ep, 0.6);
  // None is a perfect substitute — the paper's reason to report EP itself.
  EXPECT_LT(agreement.ld_vs_ep, 0.999);
}

TEST(MetricComparison, IprAndDrAreMirrorImages) {
  const auto agreement = metric_agreement(ctx());
  // DR = 1 - IPR, so their (sign-adjusted) agreements with EP coincide.
  EXPECT_NEAR(agreement.ipr_vs_ep, agreement.dr_vs_ep, 1e-12);
}

TEST(MetricComparison, PeakLocationTiersRebutWongClaim) {
  const auto rows = peak_location_by_ep_tier(ctx());
  ASSERT_EQ(rows.size(), 4u);
  // Quartiles ascend in EP.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i].mean_ep, rows[i - 1].mean_ep);
  }
  // The lowest-EP quartile peaks at full load essentially always.
  EXPECT_GT(rows[0].share_at_full_load, 0.95);
  // The highest-EP quartile peaks interior more often...
  EXPECT_LT(rows[3].share_at_full_load, rows[0].share_at_full_load);
  // ...but NOT typically at 60% (paper: ~2% of all servers; Wong claimed
  // ~60% is typical for highly proportional machines).
  EXPECT_LT(rows[3].share_at_60, 0.2);
}

TEST(MetricComparison, GlobalShareAt60MatchesPaper) {
  EXPECT_NEAR(share_peaking_at_60(ctx()), 0.021, 0.012);  // paper: 1.88-2.10%
}

// --- Forecast (§IV.A closing claim) -------------------------------------------

TEST(Forecast, PeakShiftTrendIsDownward) {
  const auto forecast = forecast_peak_shift(ctx());
  EXPECT_LT(forecast.trend.slope, 0.0);
  ASSERT_GE(forecast.observed.size(), 5u);
  EXPECT_EQ(forecast.observed.front().year, 2010);
  EXPECT_EQ(forecast.observed.back().year, 2016);
}

TEST(Forecast, ProjectionReaches50PercentWithinADecade) {
  const auto forecast = forecast_peak_shift(ctx(), 2010, 2030);
  // Paper: "we can expect the peak EE at 50% or even 40% utilization in the
  // near future". The fitted shift should cross 0.5 within ~a decade of the
  // dataset cut.
  EXPECT_GT(forecast.year_reaching_50, 2016);
  EXPECT_LE(forecast.year_reaching_50, 2030);
  if (forecast.year_reaching_40 != 0) {
    EXPECT_GT(forecast.year_reaching_40, forecast.year_reaching_50);
  }
}

TEST(Forecast, ProjectedValuesClampAtLowestLevel) {
  const auto forecast = forecast_peak_shift(ctx(), 2010, 2060);
  for (const auto& p : forecast.projected) {
    EXPECT_GE(p.value, metrics::kLoadLevels.front());
  }
}

TEST(Forecast, IdleFractionTrendIsDownward) {
  const auto forecast = forecast_idle_fraction(ctx());
  EXPECT_LT(forecast.trend.slope, 0.0);
  // Projection never goes negative.
  EXPECT_GE(forecast.projected_idle(2040), 0.02);
}

TEST(Forecast, RequiresEnoughYears) {
  EXPECT_THROW(static_cast<void>(forecast_peak_shift(ctx(), 2016)),
               ContractViolation);
}

}  // namespace
}  // namespace epserve::analysis
