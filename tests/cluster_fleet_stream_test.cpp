// Generated and streamed Fleet contracts (docs/CLUSTER.md): Fleet::generate
// — the scaled population drawn straight into the columns — and record
// chunks streamed through a Fleet::Builder must be indistinguishable
// (every column, the aggregates, whole-day policy results, logical
// clusters and the operating guide) from a monolithic Fleet::build() over
// the same records, at every size, lane count and chunk size, and every
// day must keep its bits whatever number of threads runs the days. Runs
// under the `scale` and `cluster` ctest labels.
#include "cluster/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/autoscaler.h"
#include "cluster/day_simulation.h"
#include "cluster/operating_guide.h"
#include "cluster/working_region.h"
#include "dataset/generator.h"
#include "metrics/load_level.h"
#include "fleet_image.h"
#include "util/parallel.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

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

TEST(FleetStream, EveryColumnMatchesMonolithicAtEverySizeAndLaneCount) {
  // Sizes around Fleet::generate's 2048-row fill block: one row, a block
  // less one, one block, one more, and many blocks with a short last one.
  for (const std::uint64_t servers :
       {std::uint64_t{1}, std::uint64_t{2047}, std::uint64_t{2048},
        std::uint64_t{2049}, std::uint64_t{10'007}}) {
    const auto monolithic = Fleet::build(scaled_records(servers));
    ASSERT_TRUE(monolithic.ok());
    const auto want = fleet_check::fleet_image(monolithic.value());
    for (const int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(::testing::Message()
                   << "servers=" << servers << " threads=" << threads);
      ScaledConfig config = small_config(servers);
      config.threads = threads;
      const auto generated = Fleet::generate(config);
      ASSERT_TRUE(generated.ok()) << generated.error().message;
      fleet_check::expect_same_fleet(
          want, fleet_check::fleet_image(generated.value()));
    }
  }
}

TEST(FleetStream, GenerateRejectsPopulationsPastTheRecordIdSpace) {
  ScaledConfig config = small_config(std::numeric_limits<std::int32_t>::max());
  telemetry::reset();
  telemetry::set_enabled(true);
  const auto generated = Fleet::generate(config);
  const telemetry::Snapshot snap = telemetry::snapshot();
  telemetry::set_enabled(false);
  telemetry::reset();
  ASSERT_FALSE(generated.ok());
  EXPECT_EQ(generated.error().code, Error::Code::kOutOfRange);
  // Refused before the pass that sizes the columns opens its span.
  EXPECT_EQ(snap.find_span("fleet.generate"), nullptr);
}

TEST(FleetStream, GenerateOfNoServersFailsLikeEmptyBuild) {
  const auto generated = Fleet::generate(small_config(0));
  ASSERT_FALSE(generated.ok());
  EXPECT_EQ(generated.error().message, "fleet is empty");
}

TEST(FleetStream, ColumnsAndAggregatesMatchMonolithic) {
  const auto records = scaled_records(300);
  const auto monolithic = Fleet::build(records);
  ASSERT_TRUE(monolithic.ok());
  const auto streamed = Fleet::generate(small_config(300));
  ASSERT_TRUE(streamed.ok());
  const Fleet& a = streamed.value();
  const Fleet& b = monolithic.value();
  ASSERT_EQ(a.size(), b.size());
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
    for (std::size_t level = 0; level < metrics::kNumLoadLevels; ++level) {
      EXPECT_EQ(a.curve(i).watts_at_level(level),
                b.curve(i).watts_at_level(level));
      EXPECT_EQ(a.curve(i).ops_at_level(level), b.curve(i).ops_at_level(level));
    }
    // The power kernel must read the same grid rows.
    EXPECT_EQ(a.normalized_power(i, 0.37), b.normalized_power(i, 0.37));
  }
}

TEST(FleetStream, DayStudyMatchesMonolithic) {
  const auto records = scaled_records(200);
  const auto monolithic = Fleet::build(records);
  ASSERT_TRUE(monolithic.ok());
  const auto streamed = Fleet::generate(small_config(200));
  ASSERT_TRUE(streamed.ok());
  const auto trace = make_trace("diurnal").value();

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

/// Every (policy, trace, idle model) day of `fleet` — the exp runner's
/// cells — run on `threads` lanes, as the bits of each result field in
/// cell order (an ineligible autoscaler cell contributes nothing).
std::vector<std::uint64_t> day_bits(const Fleet& fleet, std::size_t threads) {
  struct Cell {
    std::string_view policy;
    DemandTrace trace;
    IdleModel idle;
  };
  std::vector<Cell> cells;
  for (const std::string_view policy : kDayPolicies) {
    for (const std::string_view name : trace_names()) {
      for (const IdleModel& idle : {IdleModel::none(), IdleModel::acpi()}) {
        auto trace = make_trace(name);
        EXPECT_TRUE(trace.ok());
        cells.push_back({policy, std::move(trace).take(), idle});
      }
    }
  }
  std::vector<std::optional<DayResult>> days(cells.size());
  const auto pool = make_worker_pool(threads);
  parallel_for(pool.get(), cells.size(), [&](std::size_t c) {
    auto day = simulate_policy_day(cells[c].policy, fleet, cells[c].trace,
                                   cells[c].idle);
    EXPECT_TRUE(day.ok());
    if (day.ok()) days[c] = std::move(day).take();
  });
  std::vector<std::uint64_t> bits;
  for (const auto& day : days) {
    if (!day) continue;
    for (const double field :
         {day->energy_kwh, day->served_gops, day->avg_efficiency,
          day->idle_energy_kwh, day->wake_energy_kwh, day->wake_lost_gops}) {
      bits.push_back(std::bit_cast<std::uint64_t>(field));
    }
    bits.push_back(day->wake_count);
  }
  return bits;
}

TEST(FleetStream, ChunkingAndThreadCountsLeaveEveryDayBitIdentical) {
  // Past Builder::kParallelRows, so the larger chunks fill on lanes; the
  // generated fleets fill on one lane and on four.
  const auto records = scaled_records(20000);
  const auto one_shot = Fleet::build(records);
  ASSERT_TRUE(one_shot.ok());
  const std::vector<std::uint64_t> want = day_bits(one_shot.value(), 1);
  ASSERT_FALSE(want.empty());
  for (const std::size_t chunk :
       {std::size_t{1000}, std::size_t{8192}, std::size_t{20000}}) {
    Fleet::Builder builder;
    for (std::size_t lo = 0; lo < records.size(); lo += chunk) {
      const std::size_t count = std::min(chunk, records.size() - lo);
      ASSERT_TRUE(builder
                      .append(std::span<const ServerRecord>(
                          records.data() + lo, count))
                      .ok());
    }
    auto chunked = builder.finish();
    ASSERT_TRUE(chunked.ok());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(chunked.value().capacity_ops()),
              std::bit_cast<std::uint64_t>(one_shot.value().capacity_ops()))
        << "chunk=" << chunk;
    EXPECT_EQ(day_bits(chunked.value(), 1), want) << "chunk=" << chunk;
  }
  for (const int lanes : {1, 4}) {
    ScaledConfig config = small_config(records.size());
    config.threads = lanes;
    const auto generated = Fleet::generate(config);
    ASSERT_TRUE(generated.ok());
    EXPECT_EQ(day_bits(generated.value(), 1), want) << "lanes=" << lanes;
  }
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    EXPECT_EQ(day_bits(one_shot.value(), threads), want)
        << "threads=" << threads;
  }
}

TEST(FleetStream, OperatingGuideMatchesMonolithic) {
  const auto records = scaled_records(300);
  const auto monolithic = Fleet::build(records);
  ASSERT_TRUE(monolithic.ok());
  const auto guide_monolithic = build_operating_guide(monolithic.value());
  ASSERT_TRUE(guide_monolithic.ok());
  const auto clusters_monolithic = build_logical_clusters(monolithic.value());
  for (const int lanes : {1, 2, 4, 8}) {
    ScaledConfig config = small_config(300);
    config.threads = lanes;
    const auto streamed = Fleet::generate(config);
    ASSERT_TRUE(streamed.ok()) << "lanes=" << lanes;
    ASSERT_EQ(streamed.value().digest(), monolithic.value().digest());

    const auto guide = build_operating_guide(streamed.value());
    ASSERT_TRUE(guide.ok()) << "lanes=" << lanes;
    const auto& s = guide.value();
    const auto& m = guide_monolithic.value();
    EXPECT_EQ(s.efficient_capacity_fraction, m.efficient_capacity_fraction);
    ASSERT_EQ(s.entries.size(), m.entries.size()) << "lanes=" << lanes;
    for (std::size_t e = 0; e < s.entries.size(); ++e) {
      EXPECT_EQ(s.entries[e].ep_bucket_lo, m.entries[e].ep_bucket_lo);
      EXPECT_EQ(s.entries[e].servers, m.entries[e].servers);
      EXPECT_EQ(s.entries[e].shared_region.lo, m.entries[e].shared_region.lo);
      EXPECT_EQ(s.entries[e].shared_region.hi, m.entries[e].shared_region.hi);
      EXPECT_EQ(s.entries[e].target_utilization,
                m.entries[e].target_utilization);
      EXPECT_EQ(s.entries[e].efficiency_at_target,
                m.entries[e].efficiency_at_target);
    }

    const auto clusters = build_logical_clusters(streamed.value());
    ASSERT_EQ(clusters.size(), clusters_monolithic.size());
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      EXPECT_EQ(clusters[c].members, clusters_monolithic[c].members)
          << "lanes=" << lanes << " cluster " << c;
    }
  }
}

TEST(FleetStream, EmptyBuilderFailsLikeEmptyBuild) {
  Fleet::Builder builder;
  auto finished = builder.finish();
  ASSERT_FALSE(finished.ok());
  EXPECT_EQ(finished.error().message, "fleet is empty");
}

TEST(FleetStream, BadCurveChunkIsRejectedAtomically) {
  // 10 rows validate on the calling thread; 10007 rows are above the
  // Builder's 8192-row parallel threshold, so their 2048-row blocks validate
  // on the pool, with bad curves in blocks 1 and 4.
  struct Case {
    std::uint64_t servers;
    std::vector<std::size_t> bad;
    std::string named;
  };
  for (const Case& c : {Case{10, {7}, "server 8:"},
                        Case{10'007, {9000, 3000}, "server 3001:"}}) {
    SCOPED_TRACE(::testing::Message() << "servers=" << c.servers);
    const auto good = scaled_records(c.servers);
    std::vector<ServerRecord> chunk = good;
    for (const std::size_t i : c.bad) {
      chunk[i].curve = metrics::PowerCurve();  // fails validate()
    }
    Fleet::Builder builder;
    auto appended = builder.append(chunk);
    ASSERT_FALSE(appended.ok());
    // Same per-server error surface as Fleet::build, naming the lowest bad
    // server whichever lane found its block first; nothing half-appended.
    EXPECT_EQ(appended.error().message.rfind(c.named, 0), 0u)
        << appended.error().message;
    EXPECT_EQ(builder.rows(), 0u);
    // The builder stays usable: the good chunk still streams in.
    ASSERT_TRUE(builder.append(good).ok());
    auto finished = builder.finish();
    ASSERT_TRUE(finished.ok());
    EXPECT_EQ(finished.value().size(), c.servers);
    const auto reference = Fleet::build(good);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(finished.value().digest(), reference.value().digest());
  }
}

}  // namespace
}  // namespace epserve::cluster
