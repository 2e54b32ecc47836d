// Streamed Fleet contracts (docs/CLUSTER.md, docs/COLUMNAR.md "Streaming"):
// Fleet::generate — generator chunks streamed through a Fleet::Builder —
// must be indistinguishable (digest, columns, aggregates, and whole-day
// policy results) from a monolithic Fleet::build() over the same records,
// at every chunk size. Runs under the `scale` and `cluster` ctest labels.
#include "cluster/fleet.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/autoscaler.h"
#include "cluster/day_simulation.h"
#include "dataset/generator.h"

namespace epserve::cluster {
namespace {

using dataset::ScaledConfig;
using dataset::ServerRecord;

ScaledConfig small_config(std::uint64_t servers) {
  ScaledConfig config;
  config.servers = servers;
  config.threads = 1;
  return config;
}

std::vector<ServerRecord> scaled_records(std::uint64_t servers) {
  auto result = dataset::generate_scaled_population(small_config(servers));
  EXPECT_TRUE(result.ok());
  return std::move(result).take();
}

TEST(FleetStream, DigestMatchesMonolithicAtEveryChunkSize) {
  const auto records = scaled_records(600);
  const auto monolithic = Fleet::build(records);
  ASSERT_TRUE(monolithic.ok());
  for (const std::size_t chunk_size : {std::size_t{1}, std::size_t{97},
                                       std::size_t{4096}, std::size_t{600}}) {
    const auto streamed = Fleet::generate(small_config(600), chunk_size);
    ASSERT_TRUE(streamed.ok()) << "chunk=" << chunk_size;
    EXPECT_EQ(streamed.value().digest(), monolithic.value().digest())
        << "chunk=" << chunk_size;
  }
}

TEST(FleetStream, ColumnsAndAggregatesMatchMonolithic) {
  const auto records = scaled_records(300);
  const auto monolithic = Fleet::build(records);
  ASSERT_TRUE(monolithic.ok());
  const auto streamed = Fleet::generate(small_config(300), 97);
  ASSERT_TRUE(streamed.ok());
  const Fleet& a = streamed.value();
  const Fleet& b = monolithic.value();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(a.streamed());
  EXPECT_FALSE(b.streamed());
  EXPECT_TRUE(a.records().empty());  // streamed fleets own columns instead
  EXPECT_EQ(a.capacity_ops(), b.capacity_ops());
  EXPECT_EQ(a.total_idle_watts(), b.total_idle_watts());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.server_id(i), b.server_id(i));
    EXPECT_EQ(a.peak_ops()[i], b.peak_ops()[i]);
    EXPECT_EQ(a.peak_watts()[i], b.peak_watts()[i]);
    EXPECT_EQ(a.idle_watts()[i], b.idle_watts()[i]);
    EXPECT_EQ(a.ep()[i], b.ep()[i]);
    EXPECT_EQ(a.ee_at_full()[i], b.ee_at_full()[i]);
    EXPECT_EQ(a.curve(i).idle_watts(), b.curve(i).idle_watts());
    // The batched power kernel must read the same cached tables.
    EXPECT_EQ(a.normalized_power(i, 0.37), b.normalized_power(i, 0.37));
  }
}

TEST(FleetStream, DayStudyMatchesMonolithic) {
  const auto records = scaled_records(200);
  const auto monolithic = Fleet::build(records);
  ASSERT_TRUE(monolithic.ok());
  const auto streamed = Fleet::generate(small_config(200), 64);
  ASSERT_TRUE(streamed.ok());
  const auto trace = DemandTrace::diurnal();

  auto days_streamed = compare_policies_over_day(streamed.value(), trace);
  auto days_monolithic = compare_policies_over_day(monolithic.value(), trace);
  ASSERT_TRUE(days_streamed.ok());
  ASSERT_TRUE(days_monolithic.ok());
  ASSERT_EQ(days_streamed.value().size(), days_monolithic.value().size());
  for (std::size_t p = 0; p < days_streamed.value().size(); ++p) {
    const auto& s = days_streamed.value()[p];
    const auto& m = days_monolithic.value()[p];
    EXPECT_EQ(s.policy, m.policy);
    EXPECT_EQ(s.energy_kwh, m.energy_kwh);
    EXPECT_EQ(s.served_gops, m.served_gops);
    EXPECT_EQ(s.avg_efficiency, m.avg_efficiency);
  }

  auto scaled_streamed = autoscale_over_day(streamed.value(), trace);
  auto scaled_monolithic = autoscale_over_day(monolithic.value(), trace);
  ASSERT_TRUE(scaled_streamed.ok());
  ASSERT_TRUE(scaled_monolithic.ok());
  EXPECT_EQ(scaled_streamed.value().energy_kwh,
            scaled_monolithic.value().energy_kwh);
  EXPECT_EQ(scaled_streamed.value().served_gops,
            scaled_monolithic.value().served_gops);
  EXPECT_EQ(scaled_streamed.value().avg_efficiency,
            scaled_monolithic.value().avg_efficiency);
}

TEST(FleetStream, EmptyBuilderFailsLikeEmptyBuild) {
  Fleet::Builder builder;
  auto finished = builder.finish();
  ASSERT_FALSE(finished.ok());
  EXPECT_EQ(finished.error().message, "fleet is empty");
}

TEST(FleetStream, BadCurveChunkIsRejectedAtomically) {
  const auto good = scaled_records(10);
  std::vector<ServerRecord> chunk = good;
  chunk[7].curve = metrics::PowerCurve();  // fails validate()
  Fleet::Builder builder;
  auto appended = builder.append(chunk);
  ASSERT_FALSE(appended.ok());
  // Same per-server error surface as Fleet::build, nothing half-appended.
  EXPECT_NE(appended.error().message.find("server 8"), std::string::npos);
  EXPECT_EQ(builder.rows(), 0u);
  // The builder stays usable: the good chunk still streams in.
  ASSERT_TRUE(builder.append(good).ok());
  auto finished = builder.finish();
  ASSERT_TRUE(finished.ok());
  EXPECT_EQ(finished.value().size(), 10u);
}

}  // namespace
}  // namespace epserve::cluster
