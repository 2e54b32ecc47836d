// The `sweep` workload (one exp::run_experiment + render_result_json over a
// 250k-server fleet) and the batch-path layer probes.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cluster/autoscaler.h"
#include "cluster/day_simulation.h"
#include "cluster/idle_model.h"
#include "cluster/placement.h"
#include "cluster/trace.h"
#include "dataset/generator.h"
#include "exp/runner.h"
#include "exp/spec.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace epserve;

constexpr std::uint64_t kSweepServers = 250'000;
constexpr std::size_t kChunkRows = 65536;
constexpr int kSetupReps = 5;
constexpr int kMinSweepReps = 3;
const std::vector<std::string> kPlacementPolicies = {
    "pack-to-full", "balanced", "optimal-region"};

exp::Spec sweep_spec(std::uint64_t servers, std::uint64_t seed) {
  exp::Spec spec;
  spec.name = "perfbench-sweep";
  spec.description = "benchmark sweep: 4 policies x 4 traces x acpi";
  spec.fleet_sizes = {servers};
  spec.policies = {"pack-to-full", "balanced", "optimal-region", "autoscaler"};
  spec.traces = {"diurnal", "flash_crowd", "weekly", "scale_out"};
  spec.idle_models = {"acpi"};
  spec.seeds = {seed};
  spec.gen_threads = {0};
  return spec;
}

/// One timed run_experiment + render; nullopt (with a diagnostic) on error.
std::optional<std::string> run_and_render(const exp::Spec& spec, int threads,
                                          double* seconds) {
  exp::RunnerOptions options;
  options.threads = threads;
  const std::uint64_t start = now_ns();
  auto result = exp::run_experiment(spec, options);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: run_experiment: %s\n",
                 result.error().message.c_str());
    return std::nullopt;
  }
  std::string doc = exp::render_result_json(result.value());
  if (seconds != nullptr) *seconds = seconds_since(start);
  return doc;
}

bool has_digest(const std::string& doc, std::uint64_t digest) {
  return doc.find("\"digest\":\"" + exp::digest_hex(digest) + "\"") !=
         std::string::npos;
}

}  // namespace

epserve::Result<cluster::Fleet> build_scaled_fleet(std::uint64_t seed,
                                                   std::uint64_t servers) {
  dataset::ScaledConfig config;
  config.seed = seed;
  config.servers = servers;
  config.threads = 0;
  cluster::Fleet::Builder builder;
  std::optional<Error> append_error;
  auto emitted = dataset::generate_population_chunked(
      config, kChunkRows,
      [&](std::span<const dataset::ServerRecord> chunk, std::uint64_t) {
        if (append_error) return;
        if (auto appended = builder.append(chunk); !appended.ok()) {
          append_error = appended.error();
        }
      });
  if (!emitted.ok()) return emitted.error();
  if (append_error) return *append_error;
  return builder.finish();
}

std::uint64_t batch_probe_servers(const std::string& workload) {
  if (workload == "sweep") return kSweepServers;
  if (workload == "report") return 477;  // the calibrated population's size
  return 2000;                           // the serve fleet
}

void run_sweep(const Options& options, Outcome& outcome) {
  const exp::Spec spec = sweep_spec(kSweepServers, options.seed);

  if (options.trace) {
    // Tracing overhead: the same run with telemetry off and on, alternated.
    std::vector<double> off_s;
    std::vector<double> on_s;
    for (int rep = 0; rep < 2; ++rep) {
      for (const bool on : {false, true}) {
        telemetry::reset();
        telemetry::set_enabled(on);
        double seconds = 0.0;
        ++outcome.attempted;
        if (!run_and_render(spec, 0, &seconds)) ++outcome.failed;
        (on ? on_s : off_s).push_back(seconds);
      }
    }
    telemetry::set_enabled(false);
    outcome.add("trace.overhead_pct",
                100.0 * (median(on_s) / median(off_s) - 1.0), "%");
    outcome.add("op.tail_ms", 1e3 * *std::max_element(off_s.begin(), off_s.end()),
                "ms");
    return;
  }

  // Setup: generate + build the fleet the sweep measures, several times.
  std::vector<double> setup_s;
  std::uint64_t digest = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t start = now_ns();
    auto fleet = build_scaled_fleet(options.seed, kSweepServers);
    setup_s.push_back(seconds_since(start));
    if (!fleet.ok()) {
      outcome.fail_check("fleet build: " + fleet.error().message);
      return;
    }
    if (rep > 0 && fleet.value().digest() != digest) {
      outcome.fail_check("fleet digest differs between identical builds");
    }
    digest = fleet.value().digest();
  }

  // Measurement: whole sweeps until the time budget is spent.
  std::vector<double> sweep_ms;
  std::string first_doc;
  const std::uint64_t budget_start = now_ns();
  while (static_cast<int>(sweep_ms.size()) < kMinSweepReps ||
         seconds_since(budget_start) < options.seconds) {
    double seconds = 0.0;
    ++outcome.attempted;
    const auto doc = run_and_render(spec, 0, &seconds);
    if (!doc) {
      ++outcome.failed;
      outcome.fail_check("sweep run failed");
      return;
    }
    sweep_ms.push_back(seconds * 1e3);
    if (first_doc.empty()) {
      first_doc = *doc;
    } else if (*doc != first_doc) {
      outcome.fail_check("sweep result differs between identical runs");
    }
  }

  // Correctness: the fleet digest matches the benchmark's own build, and
  // the document is byte-identical to a one-thread run.
  if (!has_digest(first_doc, digest)) {
    outcome.fail_check("result is not stamped with the benchmark's digest " +
                       exp::digest_hex(digest));
  }
  ++outcome.attempted;
  const auto serial = run_and_render(spec, 1, nullptr);
  if (!serial) {
    ++outcome.failed;
    outcome.fail_check("one-thread sweep run failed");
  } else if (*serial != first_doc) {
    outcome.fail_check("sweep result differs between 1 and N threads");
  }

  outcome.add("setup_s", median(setup_s), "s");
  outcome.add("latency_p50_ms", trimmed_mean(sweep_ms), "ms");
  outcome.add("peak_rss_mb", peak_rss_mb(), "MB");
}

namespace {

/// Times `fn` under a span called `name` at least `min_reps` times and until
/// `min_seconds` have passed (at most 200 reps).
template <typename Fn>
void repeat_span(Tracer& tracer, const std::string& name, int min_reps,
                 double min_seconds, Fn&& fn) {
  const std::uint64_t start = now_ns();
  for (int rep = 0; rep < 200; ++rep) {
    if (rep >= min_reps && seconds_since(start) >= min_seconds) break;
    Tracer::Scope span(tracer, name);
    fn();
  }
}

/// Sum of the inclusive time of every telemetry span at `path`, in ms.
double span_total_ms(const telemetry::Snapshot& snap, std::string_view path) {
  const auto* span = snap.find_span(path);
  return span == nullptr ? 0.0 : span->total_ms;
}

void probe_runner(std::uint64_t servers, std::uint64_t seed, Tracer& tracer,
                  Outcome& outcome) {
  const exp::Spec spec = sweep_spec(servers, seed);
  const auto threads = resolve_thread_count(0);
  exp::RunnerOptions parallel;
  parallel.threads = 0;
  exp::RunnerOptions serial;
  serial.threads = 1;

  telemetry::reset();
  telemetry::set_enabled(true);
  std::optional<exp::RunResult> result;
  {
    Tracer::Scope span(tracer, "exp.runner.run_n");
    auto run = exp::run_experiment(spec, parallel);
    if (run.ok()) result = std::move(run).take();
  }
  const telemetry::Snapshot par = telemetry::snapshot();
  telemetry::reset();
  {
    Tracer::Scope span(tracer, "exp.runner.run_1");
    (void)exp::run_experiment(spec, serial);
  }
  const telemetry::Snapshot ser = telemetry::snapshot();
  telemetry::set_enabled(false);
  telemetry::reset();
  if (!result) {
    outcome.fail_check("runner probe failed");
    return;
  }
  repeat_span(tracer, "exp.runner.render", 3, 0.05,
              [&] { (void)exp::render_result_json(*result); });

  // Cell phase wall of the N-thread run: the run span minus its fleet build.
  const double cells_wall_ms =
      span_total_ms(par, "exp/run") - span_total_ms(par, "exp/run/fleet");
  const double cell_ms_sum = span_total_ms(ser, "exp/cell");
  outcome.add("runner.cell_ms_sum", cell_ms_sum, "ms");
  outcome.add("runner.cells_wall_ms", cells_wall_ms, "ms");
  outcome.add("runner.threads", static_cast<double>(threads), "count");
  outcome.add("runner.parallel_efficiency",
              cell_ms_sum / (static_cast<double>(threads) * cells_wall_ms),
              "ratio");
  outcome.add("runner.render_ms", tracer.median_ms("exp.runner.render"), "ms");
}

}  // namespace

void probe_batch_layers(std::uint64_t servers, std::uint64_t seed,
                        Tracer& tracer, Outcome& outcome) {
  const Tracer::Scope layer(tracer, "probe.batch");
  const double min_s = 0.2;

  // dataset: chunked generation into a discarding sink.
  dataset::ScaledConfig config;
  config.seed = seed;
  config.servers = servers;
  repeat_span(tracer, "dataset.generate", 3, min_s, [&] {
    (void)dataset::generate_population_chunked(
        config, kChunkRows,
        [](std::span<const dataset::ServerRecord>, std::uint64_t) {});
  });

  // cluster.fleet: generate + build, minus generate; bytes held per server.
  std::optional<cluster::Fleet> fleet;
  std::uint64_t held_bytes = 0;
  repeat_span(tracer, "cluster.fleet.generate_build", 3, min_s, [&] {
    fleet.reset();
    const std::uint64_t before = heap_bytes_in_use();
    auto built = build_scaled_fleet(seed, servers);
    if (built.ok()) fleet.emplace(std::move(built).take());
    held_bytes = heap_bytes_in_use() - before;
  });
  if (!fleet) {
    outcome.fail_check("batch probe: fleet build failed");
    return;
  }
  const double generate_ms = tracer.median_ms("dataset.generate");
  outcome.add("dataset.generate_ms", generate_ms, "ms");
  outcome.add("fleet.build_ms",
              tracer.median_ms("cluster.fleet.generate_build") - generate_ms,
              "ms");
  outcome.add("fleet.bytes_per_server",
              static_cast<double>(held_bytes) / static_cast<double>(servers),
              "B");

  // metrics.kernel: normalized_power_matrix over the whole fleet, 24 points
  // per server, in the 256-server blocks evaluate_batch uses.
  constexpr std::size_t kSlots = 24;
  constexpr std::size_t kBlock = 256;
  std::vector<double> utils(kBlock * kSlots);
  Rng rng(seed);
  for (double& u : utils) u = rng.uniform();
  std::vector<double> out(utils.size());
  repeat_span(tracer, "metrics.kernel.matrix", 3, min_s, [&] {
    for (std::size_t i0 = 0; i0 < fleet->size(); i0 += kBlock) {
      const std::size_t count = std::min(kBlock, fleet->size() - i0);
      fleet->normalized_power_matrix(
          i0, count, std::span<const double>(utils).first(count * kSlots),
          std::span<double>(out).first(count * kSlots), kSlots);
    }
  });
  const double points = static_cast<double>(fleet->size() * kSlots);
  outcome.add("kernel.ns_per_point",
              tracer.median_ms("metrics.kernel.matrix") * 1e6 / points, "ns");
  outcome.add("kernel.points", points, "count");

  // cluster.placement / cluster.day: per policy on the diurnal trace.
  auto trace = cluster::make_trace("diurnal");
  if (!trace.ok()) {
    outcome.fail_check("batch probe: diurnal trace: " + trace.error().message);
    return;
  }
  const cluster::IdleModel idle = cluster::IdleModel::acpi();
  const std::vector<double>& demands = trace.value().demand;
  for (const auto& name : kPlacementPolicies) {
    auto policy = cluster::make_placement_policy(name);
    if (!policy.ok()) {
      outcome.fail_check("batch probe: policy " + name);
      return;
    }
    const auto& p = *policy.value();
    repeat_span(tracer, "cluster.placement." + name + ".place_batch", 3,
                min_s, [&] { (void)p.place_batch(*fleet, demands); });
    repeat_span(tracer, "cluster.placement." + name + ".evaluate_batch", 3,
                min_s,
                [&] { (void)cluster::evaluate_batch(p, *fleet, demands); });
    repeat_span(tracer, "cluster.day." + name + ".simulate_day", 3, min_s, [&] {
      (void)cluster::simulate_day(p, *fleet, trace.value(), idle);
    });
    const double place = tracer.median_ms("cluster.placement." + name +
                                          ".place_batch");
    const double evaluate = tracer.median_ms("cluster.placement." + name +
                                             ".evaluate_batch");
    const double day = tracer.median_ms("cluster.day." + name +
                                        ".simulate_day");
    outcome.add("placement." + name + ".place_ms", place, "ms");
    outcome.add("placement." + name + ".account_ms", evaluate - place, "ms");
    outcome.add("day." + name + ".idle_ms", day - evaluate, "ms");
  }

  // cluster.autoscaler: one day on the diurnal trace.
  repeat_span(tracer, "cluster.autoscaler.day", 3, min_s, [&] {
    (void)cluster::autoscale_over_day(*fleet, trace.value());
  });
  outcome.add("autoscaler.day_ms", tracer.median_ms("cluster.autoscaler.day"),
              "ms");
  fleet.reset();

  // exp.runner: the sweep spec at this fleet size, N threads and 1 thread.
  probe_runner(servers, seed, tracer, outcome);
}

}  // namespace perfbench
