// The headline guarantee of the parallel runtime (docs/PARALLELISM.md):
// generation, analysis and the Fleet build produce BYTE-IDENTICAL output at
// every thread count. Each test runs at 1, 2, 4, and 8 threads and compares
// every field — all 477 records with their full 11-point measurement
// sheets, every FullReport headline number, every column of a scaled Fleet
// — against the serial baseline with exact (not approximate) equality.
// Substream draws depend only on (seed, server index) and each Fleet row is
// written by exactly one lane, never on scheduling, so oversubscription on
// few cores is as valid a stress as real parallel hardware.
#include "analysis/report.h"
#include "cluster/fleet.h"
#include "dataset/generator.h"
#include "dataset/repository.h"
#include "metrics/load_level.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fleet_image.h"

namespace epserve {
namespace {

using dataset::GeneratorConfig;
using dataset::ServerRecord;

constexpr std::array<int, 4> kThreadCounts = {1, 2, 4, 8};

std::vector<ServerRecord> generate_at(int threads,
                                      std::uint64_t seed = GeneratorConfig{}.seed) {
  GeneratorConfig config;
  config.seed = seed;
  config.threads = threads;
  auto result = dataset::generate_population(config);
  EXPECT_TRUE(result.ok()) << "threads=" << threads;
  return std::move(result).take();
}

void expect_identical_records(const std::vector<ServerRecord>& expected,
                              const std::vector<ServerRecord>& actual,
                              int threads) {
  ASSERT_EQ(expected.size(), actual.size()) << "threads=" << threads;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const ServerRecord& e = expected[i];
    const ServerRecord& a = actual[i];
    SCOPED_TRACE(::testing::Message() << "threads=" << threads << " record " << i);
    EXPECT_EQ(e.id, a.id);
    EXPECT_EQ(e.vendor, a.vendor);
    EXPECT_EQ(e.model, a.model);
    EXPECT_EQ(e.form_factor, a.form_factor);
    EXPECT_EQ(e.nodes, a.nodes);
    EXPECT_EQ(e.chips, a.chips);
    EXPECT_EQ(e.cores_per_chip, a.cores_per_chip);
    EXPECT_EQ(e.cpu_codename, a.cpu_codename);
    // Byte-identical, so exact double equality — not EXPECT_DOUBLE_EQ.
    EXPECT_EQ(e.memory_gb, a.memory_gb);
    EXPECT_EQ(e.hw_year, a.hw_year);
    EXPECT_EQ(e.pub_year, a.pub_year);
    EXPECT_EQ(e.curve.idle_watts(), a.curve.idle_watts());
    for (std::size_t level = 0; level < metrics::kNumLoadLevels; ++level) {
      EXPECT_EQ(e.curve.watts_at_level(level), a.curve.watts_at_level(level))
          << "watts level " << level;
      EXPECT_EQ(e.curve.ops_at_level(level), a.curve.ops_at_level(level))
          << "ops level " << level;
    }
  }
}

TEST(ParallelDeterminism, PopulationIsByteIdenticalAcrossThreadCounts) {
  const std::vector<ServerRecord> baseline = generate_at(1);
  ASSERT_EQ(baseline.size(), 477u);
  for (const int threads : kThreadCounts) {
    expect_identical_records(baseline, generate_at(threads), threads);
  }
}

TEST(ParallelDeterminism, AutoThreadCountMatchesSerialToo) {
  // threads=0 resolves via EPSERVE_THREADS / hardware concurrency; whatever
  // it resolves to must not change a single byte.
  const std::vector<ServerRecord> baseline = generate_at(1);
  expect_identical_records(baseline, generate_at(0), 0);
}

TEST(ParallelDeterminism, NonDefaultSeedsAreEquallyDeterministic) {
  for (const std::uint64_t seed : {7919ull, 104729ull}) {
    const std::vector<ServerRecord> baseline = generate_at(1, seed);
    expect_identical_records(baseline, generate_at(8, seed), 8);
  }
}

TEST(ParallelDeterminism, FullReportIsIdenticalAcrossThreadCounts) {
  const dataset::ResultRepository repo(generate_at(1));
  const analysis::FullReport baseline = analysis::build_full_report(repo, 1);
  const std::string baseline_text = analysis::render_report(baseline);
  EXPECT_EQ(baseline.population, 477u);

  for (const int threads : kThreadCounts) {
    const analysis::FullReport report = analysis::build_full_report(repo, threads);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    // Headline scalars, exact.
    EXPECT_EQ(report.population, baseline.population);
    EXPECT_EQ(report.ep_jump_2008_2009, baseline.ep_jump_2008_2009);
    EXPECT_EQ(report.ep_jump_2011_2012, baseline.ep_jump_2011_2012);
    EXPECT_EQ(report.share_full_load_2004_2012, baseline.share_full_load_2004_2012);
    EXPECT_EQ(report.share_full_load_2013_2016, baseline.share_full_load_2013_2016);
    EXPECT_EQ(report.idle.ep_idle_correlation, baseline.idle.ep_idle_correlation);
    EXPECT_EQ(report.two_chip.avg_ep_gain, baseline.two_chip.avg_ep_gain);
    EXPECT_EQ(report.rekeying.mismatched_results, baseline.rekeying.mismatched_results);
    EXPECT_EQ(report.async.overlap, baseline.async.overlap);
    ASSERT_EQ(report.trends_by_hw_year.size(), baseline.trends_by_hw_year.size());
    ASSERT_EQ(report.codename_ranking.size(), baseline.codename_ranking.size());
    // The rendered report prints every number of every section; identical
    // text means identical report, down to the last digit.
    EXPECT_EQ(analysis::render_report(report), baseline_text);
  }
}

TEST(ParallelDeterminism, EndToEndPipelineMatchesAtEightThreads) {
  // Generation AND analysis both parallel vs. both serial.
  const dataset::ResultRepository serial_repo(generate_at(1));
  const std::string serial_text =
      analysis::render_report(analysis::build_full_report(serial_repo, 1));

  const dataset::ResultRepository parallel_repo(generate_at(8));
  const std::string parallel_text =
      analysis::render_report(analysis::build_full_report(parallel_repo, 8));

  EXPECT_EQ(parallel_text, serial_text);
}

TEST(ParallelDeterminism, EnsembleMembersMatchStandaloneRuns) {
  const std::vector<std::uint64_t> seeds = {1 * 7919, 2 * 7919, 3 * 7919,
                                            4 * 7919, 5 * 7919};
  ThreadPool pool(4);
  auto pooled = dataset::generate_ensemble(seeds, GeneratorConfig{}, &pool);
  ASSERT_TRUE(pooled.ok());
  auto serial = dataset::generate_ensemble(seeds, GeneratorConfig{}, nullptr);
  ASSERT_TRUE(serial.ok());

  ASSERT_EQ(pooled.value().size(), seeds.size());
  ASSERT_EQ(serial.value().size(), seeds.size());
  for (std::size_t m = 0; m < seeds.size(); ++m) {
    SCOPED_TRACE(::testing::Message() << "member " << m);
    // Pooled == serial ensemble == standalone single-population call.
    expect_identical_records(serial.value()[m], pooled.value()[m], 4);
    expect_identical_records(generate_at(1, seeds[m]), pooled.value()[m], 4);
  }
}

// --- Fleet build ------------------------------------------------------------

/// Above Fleet::Builder's 8192-row parallel threshold, and not a multiple of
/// its 2048-row fill block, so the last block is short.
constexpr std::uint64_t kFleetServers = 10'007;

/// Sets EPSERVE_THREADS for the scope (the Builder resolves it for each
/// large chunk, and Fleet::generate at config.threads = 0) and restores the
/// caller's value afterwards.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(int threads) {
    if (const char* prior = std::getenv("EPSERVE_THREADS")) saved_ = prior;
    ::setenv("EPSERVE_THREADS", std::to_string(threads).c_str(), 1);
  }
  ~ScopedThreadsEnv() {
    if (saved_) {
      ::setenv("EPSERVE_THREADS", saved_->c_str(), 1);
    } else {
      ::unsetenv("EPSERVE_THREADS");
    }
  }
  ScopedThreadsEnv(const ScopedThreadsEnv&) = delete;
  ScopedThreadsEnv& operator=(const ScopedThreadsEnv&) = delete;

 private:
  std::optional<std::string> saved_;
};

/// Everything a built Fleet holds, as bit patterns, plus its build counters.
struct FleetImage {
  fleet_check::FleetImage fleet;
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t pool_tasks = 0;
};

/// Builds a fleet with telemetry on and records its image.
FleetImage image_of(const std::function<cluster::Fleet()>& build) {
  telemetry::reset();
  telemetry::set_enabled(true);
  const cluster::Fleet fleet = build();
  const telemetry::Snapshot snap = telemetry::snapshot();
  telemetry::set_enabled(false);
  telemetry::reset();

  FleetImage image;
  image.fleet = fleet_check::fleet_image(fleet);
  for (const char* name : {"fleet.builds", "fleet.servers",
                           "columnar.builds", "columnar.rows"}) {
    const auto* counter = snap.find_counter(name);
    image.counters[name] = counter == nullptr ? 0 : counter->value;
  }
  const auto* tasks = snap.find_counter("pool.tasks");
  image.pool_tasks = tasks == nullptr ? 0 : tasks->value;
  return image;
}

cluster::Fleet ok_fleet(Result<cluster::Fleet> built) {
  EXPECT_TRUE(built.ok());
  return std::move(built).take();
}

/// One way of building the fleet; `pooled` when its fill runs on lanes
/// (an appended chunk reaches the parallel threshold, or generate() is
/// given more than one lane).
struct FleetRoute {
  std::string name;
  std::function<cluster::Fleet()> build;
  bool pooled;
};

TEST(ParallelDeterminism, FleetBuildIsIdenticalAcrossThreadCounts) {
  dataset::ScaledConfig config;
  config.servers = kFleetServers;
  config.threads = 1;  // the records' generation stays serial
  auto generated = dataset::generate_scaled_population(config);
  ASSERT_TRUE(generated.ok());
  const std::vector<ServerRecord> records = std::move(generated).take();
  // generate()'s lanes follow EPSERVE_THREADS here, as the build's do.
  dataset::ScaledConfig lanes_from_env = config;
  lanes_from_env.threads = 0;
  const std::vector<FleetRoute> routes = {
      {"build", [&] { return ok_fleet(cluster::Fleet::build(records)); }, true},
      {"from_records", [&] { return cluster::Fleet::from_records(records); },
       true},
      {"generate",
       [&] { return ok_fleet(cluster::Fleet::generate(lanes_from_env)); },
       true},
      // A large chunk after a small one fills from a nonzero row offset.
      {"builder/1000+rest",
       [&] {
         cluster::Fleet::Builder builder;
         const std::span<const ServerRecord> all(records);
         EXPECT_TRUE(builder.append(all.first(1000)).ok());
         EXPECT_TRUE(builder.append(all.subspan(1000)).ok());
         return ok_fleet(builder.finish());
       },
       true},
  };

  std::map<std::string, FleetImage> serial;
  {
    const ScopedThreadsEnv env(1);
    for (const FleetRoute& route : routes) {
      serial.emplace(route.name, image_of(route.build));
    }
  }
  // The serial build holds the records' own values, row for row, and every
  // route and chunking reproduces it.
  const FleetImage& reference = serial.at("build");
  const auto& ids = reference.fleet.columns.at("server_id");
  const auto& peak_ops = reference.fleet.columns.at("peak_ops");
  ASSERT_EQ(ids.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(ids[i], fleet_check::image_bits(
                          static_cast<std::int32_t>(records[i].id)))
        << i;
    ASSERT_EQ(peak_ops[i], fleet_check::image_bits(
                               records[i].curve.peak_ops()))
        << i;
  }
  for (const FleetRoute& route : routes) {
    SCOPED_TRACE(::testing::Message() << "threads=1 route=" << route.name);
    const FleetImage& image = serial.at(route.name);
    fleet_check::expect_same_fleet(reference.fleet, image.fleet);
    EXPECT_EQ(image.pool_tasks, 0u);
    // A Fleet builds no analysis snapshot.
    EXPECT_EQ(image.counters.at("columnar.builds"), 0u);
    EXPECT_EQ(image.counters.at("columnar.rows"), 0u);
  }

  for (const int threads : {2, 4, 8}) {
    const ScopedThreadsEnv env(threads);
    for (const FleetRoute& route : routes) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " route=" << route.name);
      const FleetImage image = image_of(route.build);
      const FleetImage& expected = serial.at(route.name);
      fleet_check::expect_same_fleet(expected.fleet, image.fleet);
      EXPECT_EQ(image.counters, expected.counters);
      // The lanes really ran: every large chunk, and the generated fill,
      // went through the pool.
      EXPECT_EQ(image.pool_tasks > 0, route.pooled);
    }
  }
}

}  // namespace
}  // namespace epserve
