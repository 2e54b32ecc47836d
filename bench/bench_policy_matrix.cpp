// Policy x trace matrix on a 5000-server synthetic fleet (ROADMAP item 3):
// all four policies over the full trace catalog with the ACPI idle ladder,
// one exp::run_experiment sweep against one caller-built Fleet,
// parallelized over cells via util/parallel.
//
// Timing protocol: one untimed warm-up run per thread count (pool start-up,
// first-touch allocation, the Fleet's lazily sorted server orders), then
// kTimedReps runs alternating 1 and 8 threads so slow spells on a shared
// machine hit both; each reported time is the median of its kTimedReps.
//
// Gates (exit 1 on failure):
//   - determinism: the rendered result document must be byte-identical
//     between a 1-thread and an 8-thread run — the util/parallel contract.
//   - wall clock: the parallel full-matrix run must finish inside a budget
//     far above any observed time, so a pathological regression (e.g. a
//     per-cell Fleet rebuild sneaking back in) fails CI without making the
//     gate flaky on slow machines.
#include "common.h"

#include <chrono>
#include <span>
#include <string>
#include <vector>

#include "cluster/fleet.h"
#include "exp/gate.h"
#include "exp/runner.h"
#include "exp/spec.h"
#include "metrics/curve_models.h"
#include "stats/descriptive.h"

namespace {

using namespace epserve;

constexpr std::size_t kFleetSize = 5000;
constexpr int kTimedReps = 5;
constexpr double kWallBudgetSeconds = 30.0;

/// Same deterministic heterogeneous synthesis as bench_fleet_day: EP derived
/// from idle/tau so every record is feasible.
std::vector<dataset::ServerRecord> make_fleet(std::size_t size) {
  std::vector<dataset::ServerRecord> fleet;
  fleet.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    const double idle = 0.20 + 0.05 * static_cast<double>(i % 7);
    const double tau = 0.5 + 0.1 * static_cast<double>(i % 4);
    const double ep =
        (1.0 - idle) * (tau + 0.25 + 0.1 * static_cast<double>(i % 6));
    auto model = metrics::TwoSegmentPowerModel::solve(ep, idle, tau);
    if (!model.ok()) {
      std::fprintf(stderr, "fleet synthesis failed: %s\n",
                   model.error().message.c_str());
      std::exit(1);
    }
    dataset::ServerRecord r;
    r.id = static_cast<int>(i) + 1;
    r.curve = metrics::to_power_curve(model.value(),
                                      250.0 + 10.0 * static_cast<double>(i % 9),
                                      1e6 + 1e5 * static_cast<double>(i % 11));
    fleet.push_back(std::move(r));
  }
  return fleet;
}

}  // namespace

int main() {
  bench::print_header(
      "policy x trace matrix — full catalog, ACPI idle ladder",
      "4 traces x 4 policies on a 5000-server fleet, one shared Fleet");

  const auto records = make_fleet(kFleetSize);
  const auto fleet = cluster::Fleet::from_records(records);
  const auto spec = exp::day_matrix_spec(kFleetSize, "acpi");

  const auto run_with_threads = [&](int threads) {
    exp::RunnerOptions options;
    options.threads = threads;
    return exp::run_experiment(spec, std::span(&fleet, 1), options);
  };

  // The warm-ups are also the runs whose documents the gate compares.
  const auto serial = run_with_threads(1);
  if (!serial.ok()) {
    std::fprintf(stderr, "serial matrix run failed: %s\n",
                 serial.error().message.c_str());
    return 1;
  }
  const auto parallel = run_with_threads(8);
  if (!parallel.ok()) {
    std::fprintf(stderr, "matrix run failed: %s\n",
                 parallel.error().message.c_str());
    return 1;
  }

  std::vector<double> serial_runs_s;
  std::vector<double> parallel_runs_s;
  for (int rep = 0; rep < kTimedReps; ++rep) {
    for (const int threads : {1, 8}) {
      const auto start = std::chrono::steady_clock::now();
      const auto run = run_with_threads(threads);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (!run.ok()) {
        std::fprintf(stderr, "matrix run (%d threads) failed: %s\n", threads,
                     run.error().message.c_str());
        return 1;
      }
      (threads == 1 ? serial_runs_s : parallel_runs_s).push_back(seconds);
    }
  }
  const double serial_s = stats::median(serial_runs_s);
  const double parallel_s = stats::median(parallel_runs_s);

  TextTable winners;
  winners.columns({"trace", "winner", "ops/J"});
  for (const auto& verdict : parallel.value().winners) {
    winners.row({verdict.trace, verdict.policy,
                 format_fixed(verdict.avg_efficiency, 1)});
  }
  std::cout << winners.render();

  TextTable timing;
  timing.columns(
      {"matrix run (warm, median of " + std::to_string(kTimedReps) + ")",
       "ms"});
  timing.row({"1 thread", format_fixed(1000.0 * serial_s, 1)});
  timing.row({"8 threads", format_fixed(1000.0 * parallel_s, 1)});
  std::cout << timing.render();

  // Machine-readable summary, harvested by bench/run_benches.sh.
  std::printf(
      "BENCH_JSON {\"servers\": %zu, \"traces\": %zu, \"policies\": %zu, "
      "\"matrix_ms_serial\": %.1f, \"matrix_ms_parallel\": %.1f}\n",
      kFleetSize, spec.traces.size(), spec.policies.size(), 1000.0 * serial_s,
      1000.0 * parallel_s);

  exp::Gate gate("bench_policy_matrix");
  gate.bytes_equal("result json: 1 vs 8 threads",
                   exp::render_result_json(serial.value()),
                   exp::render_result_json(parallel.value()));
  gate.ceiling("matrix wall (s)", parallel_s, kWallBudgetSeconds);
  return gate.finish();
}
