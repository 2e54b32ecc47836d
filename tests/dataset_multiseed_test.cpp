// Multi-seed generator tests: the calibration plan's HARD quotas (counts,
// spots, topology, Table I, mismatches, EP extrema) must hold for every
// seed, not just the default one — they are plan-enforced, not sampled.
#include <gtest/gtest.h>

#include <map>

#include "analysis_reference.h"
#include "dataset/calibration.h"
#include "dataset/generator.h"
#include "dataset/repository.h"
#include "metrics/efficiency.h"
#include "metrics/proportionality.h"

namespace epserve::dataset {
namespace {

namespace reference = analysis::reference;

class MultiSeedQuotas : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static const ResultRepository& repo_for(std::uint64_t seed) {
    static std::map<std::uint64_t, ResultRepository> cache;
    auto it = cache.find(seed);
    if (it == cache.end()) {
      GeneratorConfig config;
      config.seed = seed;
      auto result = generate_population(config);
      EXPECT_TRUE(result.ok());
      it = cache.emplace(seed, ResultRepository(std::move(result).take()))
               .first;
    }
    return it->second;
  }
};

TEST_P(MultiSeedQuotas, TotalAndYearCounts) {
  const auto& repo = repo_for(GetParam());
  EXPECT_EQ(repo.size(), static_cast<std::size_t>(kTotalServers));
  const auto by_year = reference::by_year(repo);
  for (const auto& plan : year_plans()) {
    EXPECT_EQ(by_year.at(plan.year).size(),
              static_cast<std::size_t>(plan.count));
  }
}

TEST_P(MultiSeedQuotas, TopologyQuotas) {
  const auto& repo = repo_for(GetParam());
  const auto nodes = reference::by_nodes(repo);
  EXPECT_EQ(nodes.at(1).size(), 403u);
  EXPECT_EQ(nodes.at(2).size(), 40u);
  EXPECT_EQ(nodes.at(4).size(), 24u);
  EXPECT_EQ(nodes.at(8).size(), 4u);
  EXPECT_EQ(nodes.at(16).size(), 6u);
  const auto chips = reference::single_node_by_chips(repo);
  EXPECT_EQ(chips.at(1).size(), 77u);
  EXPECT_EQ(chips.at(2).size(), 284u);
  EXPECT_EQ(chips.at(4).size(), 36u);
  EXPECT_EQ(chips.at(8).size(), 6u);
}

TEST_P(MultiSeedQuotas, TableIQuotas) {
  const auto& repo = repo_for(GetParam());
  const auto mpc = reference::by_memory_per_core(repo);
  EXPECT_EQ(mpc.at(100).size(), 153u);
  EXPECT_EQ(mpc.at(150).size(), 68u);
  EXPECT_EQ(mpc.at(200).size(), 123u);
  EXPECT_EQ(mpc.at(400).size(), 26u);
}

TEST_P(MultiSeedQuotas, PeakSpotQuotasAndDualPeak) {
  const auto& repo = repo_for(GetParam());
  std::size_t spots = 0;
  std::size_t duals = 0;
  for (const auto& r : repo.records()) {
    const auto peak = metrics::peak_ee(r.curve);
    spots += peak.levels.size();
    if (peak.levels.size() > 1) ++duals;
    if (r.hw_year < 2010) {
      EXPECT_DOUBLE_EQ(metrics::peak_ee_utilization(r.curve), 1.0);
    }
  }
  EXPECT_EQ(spots, 478u);
  EXPECT_EQ(duals, 1u);
}

TEST_P(MultiSeedQuotas, EpExtremaAndMismatches) {
  const auto& repo = repo_for(GetParam());
  double lo = 2.0, hi = 0.0;
  int mismatched = 0;
  int above_one = 0;
  for (const auto& r : repo.records()) {
    const double ep = metrics::energy_proportionality(r.curve);
    lo = std::min(lo, ep);
    hi = std::max(hi, ep);
    if (ep >= 1.0) ++above_one;
    if (r.year_mismatch()) ++mismatched;
  }
  EXPECT_NEAR(lo, 0.18, 0.011);
  EXPECT_NEAR(hi, 1.05, 0.011);
  EXPECT_EQ(above_one, 2);
  EXPECT_EQ(mismatched, kYearMismatchCount);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiSeedQuotas,
                         ::testing::Values(1u, 424242u, 20160930u,
                                           987654321u));

}  // namespace
}  // namespace epserve::dataset
