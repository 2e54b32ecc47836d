#include <gtest/gtest.h>

#include "analysis/context.h"
#include "analysis/efficiency_zones.h"
#include "dataset/generator.h"
#include "metrics/curve_models.h"
#include "specpower/sheet.h"
#include "specpower/simulator.h"

namespace epserve {
namespace {

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

// --- Efficiency zones (Fig.12 discussion) -----------------------------------

TEST(EfficiencyZones, LinearServerHasPointZone) {
  auto model = metrics::TwoSegmentPowerModel::solve(0.6, 0.4, 0.5);
  ASSERT_TRUE(model.ok());
  dataset::ServerRecord r;
  r.id = 1;
  r.curve = metrics::to_power_curve(model.value(), 300.0, 1e6);
  const auto zone = analysis::efficiency_zone(r);
  // Peak-at-100% machines only touch 1.0x EE at the very top.
  EXPECT_DOUBLE_EQ(zone.zone_width, 0.0);
}

TEST(EfficiencyZones, HighEpServerHasWideZone) {
  auto model = metrics::TwoSegmentPowerModel::solve(1.05, 0.05, 0.6);
  ASSERT_TRUE(model.ok());
  dataset::ServerRecord r;
  r.id = 2;
  r.curve = metrics::to_power_curve(model.value(), 300.0, 1e6);
  const auto zone = analysis::efficiency_zone(r);
  EXPECT_LT(zone.zone_start, 0.4);   // paper: reaches 1.0x before 40%
  EXPECT_GT(zone.zone_width, 0.6);   // most of the load range
}

TEST(EfficiencyZones, PopulationZonesSortedByEp) {
  const auto rows = analysis::efficiency_zones(ctx());
  ASSERT_EQ(rows.size(), repo().size());
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i].ep, rows[i - 1].ep);
  }
}

TEST(EfficiencyZones, WidthCorrelatesWithEp) {
  // The paper's Fig.12 claim, quantified: wider 1.0x zones at higher EP.
  EXPECT_GT(analysis::zone_width_ep_correlation(ctx()), 0.5);
}

// --- Sheet renderer ------------------------------------------------------------

specpower::SpecPowerResult small_run() {
  power::ServerPowerModel::Config config;
  config.cpu.tdp_watts = 85.0;
  config.cpu.cores = 6;
  config.sockets = 2;
  config.dram.dimm_count = 8;
  config.storage = {power::StorageDevice{power::StorageKind::kSsd}};
  auto server = power::ServerPowerModel::create(config);
  EXPECT_TRUE(server.ok());
  specpower::ThroughputModel::Params tparams;
  tparams.total_cores = 12;
  auto throughput = specpower::ThroughputModel::create(tparams);
  EXPECT_TRUE(throughput.ok());
  const power::OndemandGovernor governor(0.8);
  specpower::SimConfig sim_config;
  sim_config.interval_seconds = 5.0;
  sim_config.calibration_seconds = 5.0;
  const specpower::SpecPowerSimulator sim(server.value(), throughput.value(),
                                          governor, sim_config);
  auto run = sim.run(4.0);
  EXPECT_TRUE(run.ok());
  return std::move(run).take();
}

TEST(Sheet, RendersDescendingLoadsWithMetrics) {
  const auto run = small_run();
  const std::string sheet = specpower::render_sheet(run, "TITLE LINE");
  EXPECT_EQ(sheet.rfind("TITLE LINE", 0), 0u);  // title first
  // Descending order: 100% appears before 10%.
  EXPECT_LT(sheet.find("100%"), sheet.find("10%"));
  EXPECT_NE(sheet.find("active idle"), std::string::npos);
  EXPECT_NE(sheet.find("overall ssj_ops/watt"), std::string::npos);
  EXPECT_NE(sheet.find("energy proportionality"), std::string::npos);
  EXPECT_NE(sheet.find("sojourn"), std::string::npos);
}

TEST(Sheet, IncompleteRunOmitsDerivedMetrics) {
  specpower::SpecPowerResult incomplete;
  incomplete.levels.resize(3);
  for (auto& level : incomplete.levels) {
    level.achieved_ops_per_sec = 100.0;
    level.avg_watts = 50.0;
  }
  incomplete.active_idle_watts = 20.0;
  const std::string sheet = specpower::render_sheet(incomplete, "T");
  EXPECT_EQ(sheet.find("overall ssj_ops/watt"), std::string::npos);
  EXPECT_NE(sheet.find("active idle"), std::string::npos);
}

}  // namespace
}  // namespace epserve
