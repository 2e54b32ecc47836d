// exp::Runner: the thread-count byte-identity contract, fleet sharing and
// digest stamping, autoscaler eligibility, the verdict rule, the exact
// telemetry shape of a run, and runs against caller-built fleets.
#include "exp/runner.h"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <span>
#include <vector>

#include "cluster/trace.h"
#include "dataset/generator.h"
#include "exp/spec.h"
#include "metrics/curve_models.h"
#include "util/telemetry.h"

namespace {

using namespace epserve;

/// Small but fully featured: two gen-thread counts (digest invariance),
/// both idle models, a latency-critical trace (autoscaler ineligibility),
/// 16 cells total on 48-server fleets.
exp::Spec runner_spec() {
  exp::Spec spec;
  spec.name = "runner-unit";
  spec.fleet_sizes = {48};
  spec.policies = {"pack-to-full", "autoscaler"};
  spec.traces = {"diurnal", "scale_out"};
  spec.idle_models = {"none", "acpi"};
  spec.seeds = {7};
  spec.gen_threads = {1, 2};
  return spec;
}

/// A 48-server fleet for exp::day_matrix_spec(48, ...), built by the caller
/// with seed 7.
cluster::Fleet day_matrix_fleet() {
  dataset::ScaledConfig config;
  config.servers = 48;
  config.seed = 7;
  config.threads = 0;
  auto fleet = cluster::Fleet::generate(config);
  EXPECT_TRUE(fleet.ok());
  return std::move(fleet).take();
}

/// A heterogeneous synthetic fleet (the one bench_fleet_day builds): each
/// server's EP is derived from its idle fraction and knee so every record is
/// feasible.
cluster::Fleet synthetic_fleet(std::size_t size) {
  std::vector<dataset::ServerRecord> records;
  records.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    const double idle = 0.20 + 0.05 * static_cast<double>(i % 7);
    const double tau = 0.5 + 0.1 * static_cast<double>(i % 4);
    const double ep =
        (1.0 - idle) * (tau + 0.25 + 0.1 * static_cast<double>(i % 6));
    auto model = metrics::TwoSegmentPowerModel::solve(ep, idle, tau);
    EXPECT_TRUE(model.ok()) << model.error().message;
    dataset::ServerRecord r;
    r.id = static_cast<int>(i) + 1;
    r.curve = metrics::to_power_curve(model.value(),
                                      250.0 + 10.0 * static_cast<double>(i % 9),
                                      1e6 + 1e5 * static_cast<double>(i % 11));
    records.push_back(std::move(r));
  }
  return cluster::Fleet::from_records(records);
}

TEST(ExpRunner, ResultIsByteIdenticalAcrossThreadCounts) {
  const auto spec = runner_spec();
  exp::RunnerOptions serial;
  serial.threads = 1;
  exp::RunnerOptions parallel;
  parallel.threads = 8;
  auto one = exp::run_experiment(spec, serial);
  auto eight = exp::run_experiment(spec, parallel);
  ASSERT_TRUE(one.ok()) << one.error().message;
  ASSERT_TRUE(eight.ok()) << eight.error().message;
  EXPECT_EQ(exp::render_result_json(one.value()),
            exp::render_result_json(eight.value()));
}

TEST(ExpRunner, FleetsAreSharedAndDigestStamped) {
  auto run = exp::run_experiment(runner_spec());
  ASSERT_TRUE(run.ok()) << run.error().message;
  const auto& result = run.value();
  // One fleet per (fleet_size, seed, gen_threads) coordinate.
  ASSERT_EQ(result.fleets.size(), 2u);
  EXPECT_EQ(result.fleets[0].gen_threads, 1);
  EXPECT_EQ(result.fleets[1].gen_threads, 2);
  // Generation is byte-identical at any thread count, so the digests match.
  EXPECT_EQ(result.fleets[0].digest, result.fleets[1].digest);
  EXPECT_NE(result.fleets[0].digest, 0u);
  // Every cell carries the digest of the fleet it measured.
  ASSERT_EQ(result.cells.size(), 16u);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.servers, 48u);
    EXPECT_EQ(cell.fleet_digest, result.fleets[0].digest);
  }
}

TEST(ExpRunner, AutoscalerIsIneligibleOnLatencyCriticalTraces) {
  auto run = exp::run_experiment(runner_spec());
  ASSERT_TRUE(run.ok()) << run.error().message;
  for (const auto& cell : run.value().cells) {
    const bool latency_critical = cell.cell.trace == "scale_out";
    const bool autoscaler = cell.cell.policy == "autoscaler";
    EXPECT_EQ(cell.eligible, !(latency_critical && autoscaler))
        << cell.cell.trace << " / " << cell.cell.policy;
    if (!cell.eligible) {
      EXPECT_EQ(cell.day.energy_kwh, 0.0);
      EXPECT_EQ(cell.day.policy, cell.cell.policy);
    }
  }
}

TEST(ExpRunner, WinnersCoverEveryGroupAndSkipIneligibleCells) {
  const auto spec = runner_spec();
  auto run = exp::run_experiment(spec);
  ASSERT_TRUE(run.ok()) << run.error().message;
  const auto& result = run.value();
  ASSERT_EQ(result.winners.size(),
            result.cells.size() / spec.policies.size());
  for (std::size_t g = 0; g < result.winners.size(); ++g) {
    const auto& verdict = result.winners[g];
    const auto& first = result.cells[g * spec.policies.size()].cell;
    EXPECT_EQ(verdict.trace, first.trace);
    EXPECT_EQ(verdict.idle, first.idle);
    // Every group here has at least one eligible policy.
    EXPECT_FALSE(verdict.policy.empty());
    // The winner's efficiency is the max over the group's eligible cells.
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      const auto& cell = result.cells[g * spec.policies.size() + p];
      if (cell.eligible) {
        EXPECT_GE(verdict.avg_efficiency, cell.day.avg_efficiency);
      }
    }
  }
}

TEST(ExpRunner, TelemetryShapeIsExact) {
  telemetry::reset();
  telemetry::set_enabled(true);
  auto run = exp::run_experiment(runner_spec());
  telemetry::set_enabled(false);
  ASSERT_TRUE(run.ok()) << run.error().message;
  const auto snap = telemetry::snapshot();
  const auto* cells = snap.find_counter("exp.cells");
  ASSERT_NE(cells, nullptr);
  EXPECT_EQ(cells->value, 16u);
  const auto* fleets = snap.find_counter("exp.fleets");
  ASSERT_NE(fleets, nullptr);
  EXPECT_EQ(fleets->value, 2u);
  const auto* run_span = snap.find_span("exp/run");
  ASSERT_NE(run_span, nullptr);
  EXPECT_EQ(run_span->count, 1u);
  // Cell spans are kRoot: the path is "exp/cell" whether a cell ran on the
  // caller or on a pool worker.
  const auto* cell_span = snap.find_span("exp/cell");
  ASSERT_NE(cell_span, nullptr);
  EXPECT_EQ(cell_span->count, 16u);
  // Fleet builds are nested inside the run span.
  const auto* fleet_span = snap.find_span("exp/run/fleet");
  ASSERT_NE(fleet_span, nullptr);
  EXPECT_EQ(fleet_span->count, 2u);
  const auto* cpu = snap.find_timer("exp.cell.cpu");
  ASSERT_NE(cpu, nullptr);
  EXPECT_EQ(cpu->count, 16u);
  telemetry::reset();
}

TEST(ExpRunner, InvalidInputFailsBeforeAnyCellRuns) {
  auto spec = runner_spec();
  spec.traces = {"bogus"};
  EXPECT_FALSE(exp::run_experiment(spec).ok());
}

// --- Policy x trace matrix on a caller-built fleet --------------------------
// What `day --matrix` runs: exp::day_matrix_spec through the runner overload
// that takes the caller's fleet.

TEST(PolicyTraceMatrix, CoversEveryTracePolicyCellOffOneFleet) {
  const auto spec = exp::day_matrix_spec(48, "acpi");
  const auto fleet = day_matrix_fleet();
  auto run = exp::run_experiment(spec, std::span(&fleet, 1));
  ASSERT_TRUE(run.ok()) << run.error().message;
  const auto& result = run.value();
  ASSERT_EQ(result.cells.size(), cluster::trace_catalog().size() * 4);
  ASSERT_EQ(result.winners.size(), cluster::trace_catalog().size());
  ASSERT_EQ(result.fleets.size(), 1u);
  EXPECT_EQ(result.fleets[0].digest, fleet.digest());
  for (const auto& verdict : result.winners) {
    EXPECT_FALSE(verdict.policy.empty()) << verdict.trace;
    EXPECT_GT(verdict.avg_efficiency, 0.0) << verdict.trace;
  }
  // The autoscaler is ineligible on scale_out and nowhere else.
  for (const auto& cell : result.cells) {
    const bool ineligible =
        cell.cell.policy == "autoscaler" && cell.cell.trace == "scale_out";
    EXPECT_EQ(cell.eligible, !ineligible)
        << cell.cell.trace << "/" << cell.cell.policy;
    if (cell.eligible) EXPECT_GT(cell.day.energy_kwh, 0.0);
  }
}

TEST(PolicyTraceMatrix, ByteIdenticalAtOneAndEightThreads) {
  // The 48-server scaled fleet, and a 5000-server synthetic one whose days
  // run past the 512-row staged-state stride and the 256-row lane block.
  const std::array<cluster::Fleet, 2> fleets = {day_matrix_fleet(),
                                                synthetic_fleet(5000)};
  for (const cluster::Fleet& fleet : fleets) {
    SCOPED_TRACE(::testing::Message() << fleet.size() << " servers");
    const auto spec = exp::day_matrix_spec(fleet.size(), "acpi");
    const auto run = [&](int threads) {
      exp::RunnerOptions options;
      options.threads = threads;
      const auto start = std::chrono::steady_clock::now();
      auto result = exp::run_experiment(spec, std::span(&fleet, 1), options);
      // A ceiling far above any observed time (milliseconds at 5000
      // servers): it catches a pathological regression, such as a per-cell
      // Fleet rebuild, without failing on a slow machine.
      EXPECT_LT(std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count(),
                30.0)
          << threads << " threads";
      return result;
    };
    auto one = run(1);
    auto eight = run(8);
    ASSERT_TRUE(one.ok()) << one.error().message;
    ASSERT_TRUE(eight.ok()) << eight.error().message;
    // Every cell's raw doubles, not only their %.10g renders.
    const auto& a = one.value().cells;
    const auto& b = eight.value().cells;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].cell.trace, b[i].cell.trace);
      EXPECT_EQ(a[i].cell.policy, b[i].cell.policy);
      EXPECT_EQ(a[i].eligible, b[i].eligible);
      EXPECT_EQ(a[i].day.energy_kwh, b[i].day.energy_kwh);
      EXPECT_EQ(a[i].day.served_gops, b[i].day.served_gops);
      EXPECT_EQ(a[i].day.avg_efficiency, b[i].day.avg_efficiency);
      EXPECT_EQ(a[i].day.idle_energy_kwh, b[i].day.idle_energy_kwh);
      EXPECT_EQ(a[i].day.wake_energy_kwh, b[i].day.wake_energy_kwh);
      EXPECT_EQ(a[i].day.wake_count, b[i].day.wake_count);
    }
    // The result JSON carries every cell field the matrix renders print.
    EXPECT_EQ(exp::render_result_json(one.value()),
              exp::render_result_json(eight.value()));
  }
}

TEST(PolicyTraceMatrix, RejectsEmptyFleetAndUnknownTrace) {
  // An empty fleet, a fleet of another size, a wrong fleet count, and an
  // unknown trace.
  const auto spec = exp::day_matrix_spec(48, "acpi");
  const auto fleet = day_matrix_fleet();
  const std::vector<dataset::ServerRecord> none;
  const auto empty = cluster::Fleet::from_records(none);
  EXPECT_FALSE(exp::run_experiment(spec, std::span(&empty, 1)).ok());
  auto resized = spec;
  resized.fleet_sizes = {49};
  EXPECT_FALSE(exp::run_experiment(resized, std::span(&fleet, 1)).ok());
  EXPECT_FALSE(
      exp::run_experiment(spec, std::span<const cluster::Fleet>()).ok());
  auto unknown = spec;
  unknown.traces = {"diurnal", "nope"};
  const auto run = exp::run_experiment(unknown, std::span(&fleet, 1));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.error().code, Error::Code::kInvalidArgument);
}

TEST(ExpRunner, CallerFleetMatchesTheRunnerBuiltFleet) {
  // The runner builds the fleet the seed axis names, so it must be the seed
  // the caller built with.
  auto spec = exp::day_matrix_spec(48, "acpi");
  spec.seeds = {7};
  const auto fleet = day_matrix_fleet();
  auto given = exp::run_experiment(spec, std::span(&fleet, 1));
  auto built = exp::run_experiment(spec);
  ASSERT_TRUE(given.ok()) << given.error().message;
  ASSERT_TRUE(built.ok()) << built.error().message;
  EXPECT_EQ(exp::render_result_json(given.value()),
            exp::render_result_json(built.value()));
}

TEST(ExpRunner, DigestHexIsSixteenLowercaseDigits) {
  EXPECT_EQ(exp::digest_hex(0), "0000000000000000");
  EXPECT_EQ(exp::digest_hex(0xdeadbeef01234567ull), "deadbeef01234567");
}

}  // namespace
