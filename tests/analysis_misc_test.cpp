#include <gtest/gtest.h>

#include "analysis/context.h"
#include "analysis/gap_analysis.h"
#include "analysis/national_energy.h"
#include "dataset/generator.h"
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

// --- Gap-by-level (Wong & Annavaram, §VI) --------------------------------------

TEST(GapAnalysis, GapShrinksAcrossGenerations) {
  const auto early = gap_profile(ctx(), 2004, 2008);
  const auto late = gap_profile(ctx(), 2014, 2016);
  // At every sampled point the modern era's mean gap is smaller.
  for (std::size_t i = 0; i < early.mean_gap.size(); ++i) {
    EXPECT_LE(late.mean_gap[i], early.mean_gap[i] + 1e-9) << "point " << i;
  }
}

TEST(GapAnalysis, GapConcentratesAtLowUtilization) {
  const auto profile = gap_profile(ctx(), 2009, 2011);
  // Mean gap at idle/10% far exceeds the gap at 80%+.
  EXPECT_GT(profile.mean_gap[0], profile.mean_gap[9] + 0.1);
  EXPECT_GT(profile.mean_gap[1], profile.mean_gap[8]);
  // The gap at 100% load is identically zero (normalisation).
  EXPECT_NEAR(profile.mean_gap[metrics::kNumLoadLevels], 0.0, 1e-12);
}

TEST(GapAnalysis, PoorlyProportionalRegionShrinksOverTime) {
  const auto early = gap_profile(ctx(), 2004, 2008);
  const auto late = gap_profile(ctx(), 2014, 2016);
  EXPECT_GE(poorly_proportional_below(early, 0.15),
            poorly_proportional_below(late, 0.15));
}

TEST(GapAnalysis, CountsAndValidation) {
  const auto profile = gap_profile(ctx(), 2004, 2016);
  EXPECT_EQ(profile.servers, repo().size());
  EXPECT_THROW(static_cast<void>(gap_profile(ctx(), 2013, 2012)),
               ContractViolation);
  EXPECT_THROW(static_cast<void>(gap_profile(ctx(), 1990, 1995)),
               ContractViolation);  // no servers in range
  EXPECT_THROW(
      static_cast<void>(poorly_proportional_below(profile, 0.0)),
      ContractViolation);
}

// --- National energy scenarios (§I) ----------------------------------------------

TEST(NationalEnergy, ThreePaperScenariosExist) {
  EXPECT_NE(find_scenario("epa-2006-trend"), nullptr);
  EXPECT_NE(find_scenario("nrdc-current"), nullptr);
  EXPECT_NE(find_scenario("lbnl-current"), nullptr);
  EXPECT_EQ(find_scenario("hyperscale-only"), nullptr);
}

TEST(NationalEnergy, EpaTrendReproduces107TwhBy2011) {
  const auto* epa = find_scenario("epa-2006-trend");
  ASSERT_NE(epa, nullptr);
  EXPECT_NEAR(projected_energy_twh(*epa, 2011), 107.4, 4.0);
  // Base year anchors exactly.
  EXPECT_DOUBLE_EQ(projected_energy_twh(*epa, 2006), 61.0);
}

TEST(NationalEnergy, NrdcReproduces138TwhBy2020) {
  const auto* nrdc = find_scenario("nrdc-current");
  ASSERT_NE(nrdc, nullptr);
  EXPECT_DOUBLE_EQ(projected_energy_twh(*nrdc, 2011), 76.4);
  EXPECT_NEAR(projected_energy_twh(*nrdc, 2020), 138.0, 6.0);
}

TEST(NationalEnergy, LbnlStaysNearFlatThrough2020) {
  const auto* lbnl = find_scenario("lbnl-current");
  ASSERT_NE(lbnl, nullptr);
  EXPECT_DOUBLE_EQ(projected_energy_twh(*lbnl, 2014), 70.0);
  EXPECT_NEAR(projected_energy_twh(*lbnl, 2020), 73.0, 4.0);
}

TEST(NationalEnergy, ScenariosDivergeDramatically) {
  // The whole §I point: with vs without efficiency progress is a ~2x gap.
  const auto* nrdc = find_scenario("nrdc-current");
  const auto* lbnl = find_scenario("lbnl-current");
  EXPECT_GT(projected_energy_twh(*nrdc, 2020),
            1.8 * projected_energy_twh(*lbnl, 2020));
}

TEST(NationalEnergy, RejectsYearsBeforeBase) {
  const auto* epa = find_scenario("epa-2006-trend");
  EXPECT_THROW(static_cast<void>(projected_energy_twh(*epa, 2000)),
               ContractViolation);
}

}  // namespace
}  // namespace epserve::analysis
