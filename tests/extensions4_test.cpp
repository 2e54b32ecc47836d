#include <gtest/gtest.h>

#include "analysis/context.h"
#include "analysis/counterfactual.h"
#include "dataset/generator.h"
#include "power/thermal.h"
#include "util/contracts.h"

namespace epserve {
namespace {

// --- ThermalCpuModel -----------------------------------------------------------

power::CpuModel make_cpu() {
  power::CpuModel::Params p;
  p.tdp_watts = 95.0;
  p.cores = 8;
  p.min_freq_ghz = 1.2;
  p.max_freq_ghz = 2.6;
  auto result = power::CpuModel::create(p);
  EXPECT_TRUE(result.ok());
  return std::move(result).take();
}

TEST(Thermal, CreateValidatesParams) {
  power::ThermalCpuModel::Params params;
  params.thermal_resistance = 0.0;
  EXPECT_FALSE(power::ThermalCpuModel::create(make_cpu(), params).ok());
  params = {};
  params.ambient_celsius = 100.0;
  EXPECT_FALSE(power::ThermalCpuModel::create(make_cpu(), params).ok());
  params = {};
  params.leakage_doubling_k = 0.5;
  EXPECT_FALSE(power::ThermalCpuModel::create(make_cpu(), params).ok());
  EXPECT_TRUE(power::ThermalCpuModel::create(make_cpu(), {}).ok());
}

TEST(Thermal, RunawayParametersRejected) {
  power::ThermalCpuModel::Params params;
  params.thermal_resistance = 5.0;   // absurd heatsink
  params.leakage_doubling_k = 3.0;   // hyper-sensitive leakage
  EXPECT_FALSE(power::ThermalCpuModel::create(make_cpu(), params).ok());
}

TEST(Thermal, TemperatureRisesWithLoad) {
  auto model = power::ThermalCpuModel::create(make_cpu(), {});
  ASSERT_TRUE(model.ok());
  const double idle_t = model.value().temperature(0.0, 1.2);
  const double busy_t = model.value().temperature(1.0, 2.6);
  EXPECT_GT(busy_t, idle_t + 10.0);
  EXPECT_GT(idle_t, 25.0);  // above ambient
  EXPECT_LT(busy_t, 105.0); // below junction limits
}

TEST(Thermal, HotOperationLeaksMoreThanBaseModel) {
  auto model = power::ThermalCpuModel::create(make_cpu(), {});
  ASSERT_TRUE(model.ok());
  // At full load the die runs above the 55C reference -> more leakage than
  // the temperature-blind base model.
  EXPECT_GT(model.value().power(1.0, 2.6),
            model.value().base().power(1.0, 2.6));
  // At idle the die runs below the reference -> less leakage.
  EXPECT_LT(model.value().power(0.0, 1.2),
            model.value().base().power(0.0, 1.2));
}

TEST(Thermal, FixedPointIsStable) {
  auto model = power::ThermalCpuModel::create(make_cpu(), {});
  ASSERT_TRUE(model.ok());
  // More iterations must not change the answer (converged).
  power::ThermalCpuModel::Params many;
  many.iterations = 60;
  auto precise = power::ThermalCpuModel::create(make_cpu(), many);
  ASSERT_TRUE(precise.ok());
  EXPECT_NEAR(model.value().power(0.8, 2.2), precise.value().power(0.8, 2.2),
              0.01);
}

TEST(Thermal, PowerMonotoneInLoadAndFrequency) {
  auto model = power::ThermalCpuModel::create(make_cpu(), {});
  ASSERT_TRUE(model.ok());
  double prev = 0.0;
  for (double u = 0.0; u <= 1.0001; u += 0.1) {
    const double p = model.value().power(std::min(u, 1.0), 2.6);
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_GT(model.value().power(0.8, 2.6), model.value().power(0.8, 1.4));
}

TEST(Thermal, RejectsOutOfRangeUtilization) {
  auto model = power::ThermalCpuModel::create(make_cpu(), {});
  ASSERT_TRUE(model.ok());
  EXPECT_THROW(static_cast<void>(model.value().power(1.5, 2.0)),
               ContractViolation);
}

// --- Counterfactual (§III.B) -----------------------------------------------------

const dataset::ResultRepository& repo() {
  static const dataset::ResultRepository instance = [] {
    auto result = dataset::generate_population();
    EXPECT_TRUE(result.ok());
    return dataset::ResultRepository(std::move(result).take());
  }();
  return instance;
}

const analysis::AnalysisContext& ctx() {
  static const analysis::AnalysisContext instance(repo());
  return instance;
}

TEST(Counterfactual, FrozenMixRemovesTheDip) {
  const auto result = analysis::frozen_mix_counterfactual(ctx());
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_TRUE(result.value().dip_removed);
  // The actual trend DOES dip (sanity that the test is meaningful).
  double y2012 = 0.0, y2013 = 0.0;
  for (const auto& row : result.value().rows) {
    if (row.year == 2012) y2012 = row.actual_mean_ep;
    if (row.year == 2013) y2013 = row.actual_mean_ep;
  }
  EXPECT_LT(y2013, y2012 - 0.02);
}

TEST(Counterfactual, RowsCoverRequestedYears) {
  const auto result =
      analysis::frozen_mix_counterfactual(ctx(), "Sandy Bridge EP", 2012,
                                          2016);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 5u);
  EXPECT_EQ(result.value().rows.front().year, 2012);
  EXPECT_EQ(result.value().rows.back().year, 2016);
}

TEST(Counterfactual, UnknownReferenceFails) {
  EXPECT_FALSE(
      analysis::frozen_mix_counterfactual(ctx(), "Zen 7").ok());
}

TEST(Counterfactual, InvertedRangeFails) {
  EXPECT_FALSE(analysis::frozen_mix_counterfactual(ctx(), "Sandy Bridge EP",
                                                   2016, 2012)
                   .ok());
}

TEST(Counterfactual, EmptyRangeFails) {
  EXPECT_FALSE(analysis::frozen_mix_counterfactual(ctx(), "Sandy Bridge EP",
                                                   1990, 1999)
                   .ok());
}

}  // namespace
}  // namespace epserve
