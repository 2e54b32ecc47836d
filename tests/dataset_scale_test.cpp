// Streaming-pipeline contracts (docs/COLUMNAR.md "Streaming"):
//   - the scaled generator emits byte-identical records for every chunk size
//     and thread count (each record is a pure function of seed and index),
//   - ColumnarSnapshot::build interns codenames onto their sorted positions
//     (family_id -1 for a codename the uarch catalog does not know),
//   - the radix GroupIndex build equals the comparison reference on every
//     key-shape that matters (duplicates, single group, empty, all-distinct,
//     masked),
//   - the snapshot's telemetry (columnar.builds / columnar.rows) is exact.
// Runs under the `scale` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/calibration.h"
#include "dataset/columnar.h"
#include "dataset/generator.h"
#include "dataset/group_index.h"
#include "dataset/io.h"
#include "metrics/derived.h"
#include "metrics/power_curve.h"
#include "power/uarch.h"
#include "util/csv.h"
#include "util/telemetry.h"

namespace epserve::dataset {
namespace {

/// Bitwise column equality (stricter than operator== on doubles: -0.0 vs
/// 0.0 or differing NaN payloads would fail, as the determinism contract
/// requires).
template <typename T>
void expect_bitwise_equal(std::span<const T> actual, std::span<const T> expected,
                          const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  if (!actual.empty()) {
    EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                          actual.size() * sizeof(T)),
              0)
        << what;
  }
}

/// Every row column bitwise, and the interned codenames.
void expect_same_snapshot(const ColumnarSnapshot& snapshot,
                          const ColumnarSnapshot& reference) {
  expect_bitwise_equal(snapshot.hw_year(), reference.hw_year(), "hw_year");
  expect_bitwise_equal(snapshot.pub_year(), reference.pub_year(), "pub_year");
  expect_bitwise_equal(snapshot.nodes(), reference.nodes(), "nodes");
  expect_bitwise_equal(snapshot.chips(), reference.chips(), "chips");
  expect_bitwise_equal(snapshot.codename_id(), reference.codename_id(),
                       "codename_id");
  expect_bitwise_equal(snapshot.family_id(), reference.family_id(),
                       "family_id");
  expect_bitwise_equal(snapshot.mpc_centi(), reference.mpc_centi(),
                       "mpc_centi");
  expect_bitwise_equal(snapshot.ep(), reference.ep(), "ep");
  expect_bitwise_equal(snapshot.overall_score(), reference.overall_score(),
                       "overall_score");
  expect_bitwise_equal(snapshot.idle_fraction(), reference.idle_fraction(),
                       "idle_fraction");
  expect_bitwise_equal(snapshot.peak_ee_value(), reference.peak_ee_value(),
                       "peak_ee_value");
  expect_bitwise_equal(snapshot.peak_ee_utilization(),
                       reference.peak_ee_utilization(), "peak_ee_utilization");
  EXPECT_EQ(snapshot.codenames(), reference.codenames());
}

void expect_records_identical(const ServerRecord& a, const ServerRecord& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.vendor, b.vendor);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.form_factor, b.form_factor);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.chips, b.chips);
  EXPECT_EQ(a.cores_per_chip, b.cores_per_chip);
  EXPECT_EQ(a.cpu_codename, b.cpu_codename);
  EXPECT_EQ(a.memory_gb, b.memory_gb);
  EXPECT_EQ(a.hw_year, b.hw_year);
  EXPECT_EQ(a.pub_year, b.pub_year);
  EXPECT_EQ(a.curve.idle_watts(), b.curve.idle_watts());
  for (std::size_t i = 0; i < metrics::kNumLoadLevels; ++i) {
    EXPECT_EQ(a.curve.watts_at_level(i), b.curve.watts_at_level(i));
    EXPECT_EQ(a.curve.ops_at_level(i), b.curve.ops_at_level(i));
  }
}

std::vector<ServerRecord> collect_chunked(const ScaledConfig& config,
                                          std::size_t chunk_size) {
  std::vector<ServerRecord> out;
  auto emitted = generate_population_chunked(
      config, chunk_size,
      [&](std::span<const ServerRecord> chunk, std::uint64_t first_index) {
        EXPECT_EQ(first_index, out.size());
        out.insert(out.end(), chunk.begin(), chunk.end());
      });
  EXPECT_TRUE(emitted.ok());
  if (emitted.ok()) EXPECT_EQ(emitted.value(), config.servers);
  return out;
}

ScaledConfig small_config(std::uint64_t servers) {
  ScaledConfig config;
  config.servers = servers;
  config.threads = 1;
  return config;
}

// --- scaled calibration plan ------------------------------------------------

TEST(ScaledPlan, IsConsistentAndSpans2007To2023) {
  EXPECT_TRUE(scaled_plan_is_consistent());
  const auto plans = scaled_year_plans();
  ASSERT_FALSE(plans.empty());
  EXPECT_EQ(plans.front().year, 2007);
  EXPECT_EQ(plans.back().year, 2023);
  for (std::size_t i = 1; i < plans.size(); ++i) {
    EXPECT_LT(plans[i - 1].year, plans[i].year);
  }
}

TEST(ScaledPlan, PopulationCoversEveryCohortYear) {
  const auto population = collect_chunked(small_config(3000), 512);
  ASSERT_EQ(population.size(), 3000u);
  std::vector<int> year_counts(2024, 0);
  for (const auto& r : population) {
    ASSERT_GE(r.hw_year, 2007);
    ASSERT_LE(r.hw_year, 2023);
    ASSERT_GE(r.pub_year, 2007);
    ASSERT_LE(r.pub_year, 2023);
    ++year_counts[static_cast<std::size_t>(r.hw_year)];
  }
  for (int year = 2007; year <= 2023; ++year) {
    EXPECT_GT(year_counts[static_cast<std::size_t>(year)], 0)
        << "no servers drawn for " << year;
  }
  // Record ids are 1..servers in index order (the chunked id contract).
  for (std::size_t i = 0; i < population.size(); ++i) {
    EXPECT_EQ(population[i].id, static_cast<int>(i) + 1);
  }
}

// --- chunk-size and thread-count independence --------------------------------

TEST(ScaledGenerator, ChunkSizeSweepIsByteIdentical) {
  const auto config = small_config(1000);
  auto reference = generate_scaled_population(config);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference.value().size(), 1000u);
  for (const std::size_t chunk_size : {std::size_t{1}, std::size_t{97},
                                       std::size_t{4096}, std::size_t{1000}}) {
    const auto streamed = collect_chunked(config, chunk_size);
    ASSERT_EQ(streamed.size(), reference.value().size())
        << "chunk=" << chunk_size;
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      expect_records_identical(streamed[i], reference.value()[i]);
    }
  }
}

TEST(ScaledGenerator, ThreadCountDoesNotChangeOutput) {
  auto serial = small_config(2000);
  auto threaded = small_config(2000);
  threaded.threads = 8;
  const auto a = collect_chunked(serial, 512);
  const auto b = collect_chunked(threaded, 512);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_records_identical(a[i], b[i]);
  }
}

TEST(ScaledGenerator, RejectsPopulationsPastTheRecordIdSpace) {
  ScaledConfig config;
  config.servers = std::numeric_limits<std::int32_t>::max();
  auto result = generate_population_chunked(
      config, 1024, [](std::span<const ServerRecord>, std::uint64_t) {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Error::Code::kOutOfRange);
}

// --- snapshot build ----------------------------------------------------------

TEST(ColumnarSnapshot, InternsCodenamesInSortedOrder) {
  // Rows 0-99 name one codename; rows 100-199 add one power::find_uarch
  // does not know; rows 200-298 add two more, so first-seen order is the
  // reverse of sorted order.
  constexpr std::string_view kUnknown = "Mystery Lake";
  ASSERT_EQ(power::find_uarch(kUnknown), nullptr);
  auto records = collect_chunked(small_config(300), 300);
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::string_view name = "Skylake";
    if (i >= 200 && i < 299) {
      name = std::array<std::string_view, 3>{"Haswell", "Abu Dhabi",
                                             kUnknown}[i % 3];
    } else if (i >= 100 && i % 2 == 1) {
      name = kUnknown;
    }
    records[i].cpu_codename = std::string(name);
  }
  const auto snapshot = ColumnarSnapshot::build(records);

  const std::vector<std::string> sorted = {"Abu Dhabi", "Haswell",
                                           std::string(kUnknown), "Skylake"};
  EXPECT_EQ(snapshot.codenames(), sorted);
  ASSERT_EQ(snapshot.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::string& name = records[i].cpu_codename;
    const auto position =
        std::find(sorted.begin(), sorted.end(), name) - sorted.begin();
    ASSERT_EQ(snapshot.codename_id()[i], position) << i;
    const auto* info = power::find_uarch(name);
    EXPECT_EQ(snapshot.family_id()[i],
              info == nullptr ? -1 : static_cast<std::int32_t>(info->family))
        << i;
  }
  EXPECT_EQ(snapshot.family_id()[101], -1);
  // Deriving each row in place and copying a caller's bundle give the same
  // snapshot, bit for bit.
  std::vector<metrics::DerivedCurveMetrics> derived;
  for (const auto& r : records) {
    derived.push_back(metrics::derive_curve_metrics(r.curve));
  }
  expect_same_snapshot(snapshot, ColumnarSnapshot::build(records, derived));
}

// --- radix vs comparison grouping --------------------------------------------

void expect_same_groups(const GroupIndex& a, const GroupIndex& b) {
  ASSERT_EQ(a.group_count(), b.group_count());
  ASSERT_EQ(a.total_members(), b.total_members());
  for (std::size_t g = 0; g < a.group_count(); ++g) {
    EXPECT_EQ(a.key(g), b.key(g));
    const auto ma = a.members(g);
    const auto mb = b.members(g);
    ASSERT_EQ(ma.size(), mb.size());
    for (std::size_t i = 0; i < ma.size(); ++i) EXPECT_EQ(ma[i], mb[i]);
  }
}

TEST(GroupIndexRadix, EqualsComparisonOnKeyShapes) {
  const std::vector<std::vector<std::int32_t>> shapes = {
      {5, 3, 5, 3, 5, 3, 3, 5},          // duplicate keys, two groups
      {7, 7, 7, 7},                      // single group
      {},                                // empty
      {9, 8, 7, 6, 5, 4, 3, 2, 1, 0},    // all-distinct, reversed
      {-3, 4, -3, 0, 4, -3},             // negative keys
  };
  for (const auto& keys : shapes) {
    const auto radix = GroupIndex::over(keys, GroupIndex::Strategy::kRadix);
    const auto comparison =
        GroupIndex::over(keys, GroupIndex::Strategy::kComparison);
    const auto automatic = GroupIndex::over(keys);
    expect_same_groups(radix, comparison);
    expect_same_groups(automatic, comparison);
  }
}

TEST(GroupIndexRadix, EqualsComparisonMasked) {
  const std::vector<std::int32_t> keys = {2, 1, 2, 3, 1, 2, 3, 1};
  const std::vector<std::uint8_t> mask = {1, 0, 1, 1, 1, 0, 0, 1};
  const auto radix =
      GroupIndex::over_masked(keys, mask, GroupIndex::Strategy::kRadix);
  const auto comparison =
      GroupIndex::over_masked(keys, mask, GroupIndex::Strategy::kComparison);
  expect_same_groups(radix, comparison);
  EXPECT_EQ(radix.total_members(), 5u);
}

TEST(GroupIndexRadix, AutoFallsBackToComparisonOnWideRanges) {
  // Range far beyond max(1024, 2*rows): kAuto must still group correctly
  // (via the comparison path), without allocating a range-sized histogram.
  const std::vector<std::int32_t> keys = {2'000'000'000, -2'000'000'000, 0,
                                          2'000'000'000};
  const auto automatic = GroupIndex::over(keys);
  const auto comparison =
      GroupIndex::over(keys, GroupIndex::Strategy::kComparison);
  expect_same_groups(automatic, comparison);
  ASSERT_EQ(automatic.group_count(), 3u);
  EXPECT_EQ(automatic.key(0), -2'000'000'000);
  EXPECT_EQ(automatic.key(2), 2'000'000'000);
}

TEST(GroupIndexRadix, EqualsComparisonOnAScaledYearColumn) {
  const auto records = collect_chunked(small_config(3000), 512);
  const auto snapshot = ColumnarSnapshot::build(records);
  const auto radix =
      GroupIndex::over(snapshot.hw_year(), GroupIndex::Strategy::kRadix);
  const auto comparison =
      GroupIndex::over(snapshot.hw_year(), GroupIndex::Strategy::kComparison);
  expect_same_groups(radix, comparison);
  EXPECT_EQ(radix.total_members(), records.size());
}

// --- streaming CSV ------------------------------------------------------------

TEST(StreamingCsv, RowStreamMatchesDocumentBytes) {
  const auto records = collect_chunked(small_config(250), 97);
  std::ostringstream streamed;
  write_population_csv_header(streamed);
  for (const auto& r : records) write_population_csv_row(streamed, r);
  EXPECT_EQ(streamed.str(), to_csv(to_csv_document(records)));
}

// --- telemetry ----------------------------------------------------------------

TEST(ColumnarTelemetry, BuildEmitsExactCounts) {
  const auto chunk = collect_chunked(small_config(100), 100);
  std::vector<ServerRecord> records;
  for (int i = 0; i < 60; ++i) {
    records.insert(records.end(), chunk.begin(), chunk.end());
  }
  telemetry::set_enabled(false);
  telemetry::reset();
  telemetry::set_enabled(true);
  const auto snapshot = ColumnarSnapshot::build(records);
  EXPECT_EQ(snapshot.size(), 6000u);
  const auto snap = telemetry::snapshot();
  telemetry::set_enabled(false);
  telemetry::reset();
  ASSERT_NE(snap.find_counter("columnar.builds"), nullptr);
  EXPECT_EQ(snap.find_counter("columnar.builds")->value, 1u);
  ASSERT_NE(snap.find_counter("columnar.rows"), nullptr);
  EXPECT_EQ(snap.find_counter("columnar.rows")->value, 6000u);
}

}  // namespace
}  // namespace epserve::dataset
