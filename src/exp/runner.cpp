#include "exp/runner.h"

#include <time.h>  // clock_gettime(CLOCK_THREAD_CPUTIME_ID) — POSIX

#include <optional>
#include <string>
#include <utility>

#include "cluster/idle_model.h"
#include "cluster/trace.h"
#include "dataset/generator.h"
#include "util/json_writer.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "util/telemetry.h"

namespace epserve::exp {
namespace {

constexpr std::string_view kResultSchema = "epserve-exp-result-v1";

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// One entry per (fleet_size, seed, gen_threads) coordinate — the outer
/// three expansion axes, in expansion order — with the digest unset.
std::vector<FleetSummary> fleet_coordinates(const Spec& spec) {
  std::vector<FleetSummary> fleets;
  for (const auto fleet_size : spec.fleet_sizes) {
    for (const auto seed : spec.seeds) {
      for (const auto threads : spec.gen_threads) {
        FleetSummary summary;
        summary.fleet_size = fleet_size;
        summary.seed = seed;
        summary.gen_threads = threads;
        fleets.push_back(summary);
      }
    }
  }
  return fleets;
}

Result<CellResult> run_cell(const Cell& cell, const cluster::Fleet& fleet,
                            std::uint64_t fleet_digest,
                            const cluster::DemandTrace& trace,
                            const cluster::IdleModel& idle) {
  auto day = cluster::simulate_policy_day(cell.policy, fleet, trace, idle);
  if (!day.ok()) return day.error();
  CellResult result;
  result.cell = cell;
  result.servers = fleet.size();
  result.fleet_digest = fleet_digest;
  result.eligible = day.value().has_value();
  if (result.eligible) {
    result.day = std::move(*day.value());
  } else {
    result.day.policy = cell.policy;
  }
  return result;
}

/// The cell sweep over a validated spec and its fleets (one per
/// fleet_coordinates entry), inside the caller's `exp/run` span. Cells
/// share the immutable fleets, traces and idle models and write only their
/// own slot, so the sweep is byte-identical at any thread count. Failures
/// land in per-cell slots; the lowest index wins.
Result<RunResult> sweep(const Spec& spec,
                        std::span<const cluster::Fleet> fleets,
                        const RunnerOptions& options) {
  RunResult result;
  result.spec = spec;
  result.fleets = fleet_coordinates(spec);
  for (std::size_t f = 0; f < fleets.size(); ++f) {
    result.fleets[f].digest = fleets[f].digest();
  }
  telemetry::count("exp.fleets", fleets.size());

  // The trace and idle axes materialise serially (cheap) before any cell
  // runs.
  std::vector<cluster::DemandTrace> traces;
  traces.reserve(spec.traces.size());
  for (const auto& name : spec.traces) {
    auto trace = cluster::make_trace(name);
    if (!trace.ok()) return trace.error();
    traces.push_back(std::move(trace).take());
  }
  std::vector<cluster::IdleModel> idles;
  idles.reserve(spec.idle_models.size());
  for (const auto& name : spec.idle_models) {
    auto idle = cluster::IdleModel::by_name(name);
    if (!idle.ok()) return idle.error();
    idles.push_back(std::move(idle).take());
  }

  const std::vector<Cell> cells = expand_cells(spec);
  const std::size_t n = cells.size();
  telemetry::count("exp.cells", n);
  // Cells expand with the per-fleet block innermost: idle x trace x policy.
  const std::size_t cells_per_fleet =
      spec.idle_models.size() * spec.traces.size() * spec.policies.size();
  result.cells.resize(n);
  std::vector<std::optional<Error>> errors(n);
  const auto pool = make_worker_pool(resolve_thread_count(options.threads));
  parallel_for(pool.get(), n, [&](std::size_t i) {
    const telemetry::Span cell_span("exp/cell",
                                    telemetry::Span::Scope::kRoot);
    const std::uint64_t cpu_start = thread_cpu_ns();
    const std::size_t fleet_index = i / cells_per_fleet;
    const std::size_t in_fleet = i % cells_per_fleet;
    const std::size_t idle_index =
        in_fleet / (spec.traces.size() * spec.policies.size());
    const std::size_t trace_index =
        (in_fleet / spec.policies.size()) % spec.traces.size();
    auto computed = run_cell(cells[i], fleets[fleet_index],
                             result.fleets[fleet_index].digest,
                             traces[trace_index], idles[idle_index]);
    if (computed.ok()) {
      result.cells[i] = std::move(computed).take();
    } else {
      errors[i] = computed.error();
    }
    telemetry::timer_add("exp.cell.cpu", thread_cpu_ns() - cpu_start);
  });
  for (const auto& error : errors) {
    if (error) return *error;
  }

  // Verdicts: one winner per (fleet, idle, trace) group over the policy
  // axis — highest ops/J among eligible cells, ties toward the earlier
  // policy.
  const std::size_t groups = n / spec.policies.size();
  for (std::size_t g = 0; g < groups; ++g) {
    SweepVerdict verdict;
    const CellResult& first = result.cells[g * spec.policies.size()];
    verdict.fleet_size = first.cell.fleet_size;
    verdict.seed = first.cell.seed;
    verdict.gen_threads = first.cell.gen_threads;
    verdict.idle = first.cell.idle;
    verdict.trace = first.cell.trace;
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      const CellResult& cell = result.cells[g * spec.policies.size() + p];
      if (!cell.eligible) continue;
      if (verdict.policy.empty() ||
          cell.day.avg_efficiency > verdict.avg_efficiency) {
        verdict.policy = cell.cell.policy;
        verdict.avg_efficiency = cell.day.avg_efficiency;
      }
    }
    result.winners.push_back(std::move(verdict));
  }
  return result;
}

void write_cell(JsonWriter& json, const CellResult& result) {
  json.begin_object();
  json.key("fleet_size")
      .value(static_cast<std::size_t>(result.cell.fleet_size));
  json.key("seed").value(static_cast<std::size_t>(result.cell.seed));
  json.key("gen_threads").value(result.cell.gen_threads);
  json.key("idle").value(result.cell.idle);
  json.key("trace").value(result.cell.trace);
  json.key("policy").value(result.cell.policy);
  json.key("eligible").value(result.eligible);
  json.key("servers").value(static_cast<std::size_t>(result.servers));
  json.key("digest").value(digest_hex(result.fleet_digest));
  if (result.eligible) {
    json.key("energy_kwh").value(result.day.energy_kwh);
    json.key("served_gops").value(result.day.served_gops);
    json.key("avg_efficiency").value(result.day.avg_efficiency);
    json.key("idle_energy_kwh").value(result.day.idle_energy_kwh);
    json.key("wake_energy_kwh").value(result.day.wake_energy_kwh);
    json.key("wake_lost_gops").value(result.day.wake_lost_gops);
    json.key("wake_count")
        .value(static_cast<std::size_t>(result.day.wake_count));
  }
  json.end_object();
}

}  // namespace

Result<RunResult> run_experiment(const Spec& spec,
                                 const RunnerOptions& options) {
  if (auto valid = validate_spec(spec); !valid.ok()) return valid.error();
  const telemetry::Span run_span("exp/run", telemetry::Span::Scope::kRoot);
  // One fleet per (fleet_size, seed, gen_threads) coordinate, each
  // generated straight into its columns on gen_threads lanes and shared
  // read-only by every cell addressing it.
  std::vector<cluster::Fleet> fleets;
  for (const auto& coords : fleet_coordinates(spec)) {
    const telemetry::Span fleet_span("fleet");
    dataset::ScaledConfig config;
    config.seed = coords.seed;
    config.servers = coords.fleet_size;
    config.threads = coords.gen_threads;
    auto fleet = cluster::Fleet::generate(config);
    if (!fleet.ok()) return fleet.error();
    fleets.push_back(std::move(fleet).take());
  }
  return sweep(spec, fleets, options);
}

Result<RunResult> run_experiment(const Spec& spec,
                                 std::span<const cluster::Fleet> fleets,
                                 const RunnerOptions& options) {
  if (auto valid = validate_spec(spec); !valid.ok()) return valid.error();
  const auto coords = fleet_coordinates(spec);
  if (fleets.size() != coords.size()) {
    return Error::invalid_argument(
        "spec '" + spec.name + "' addresses " + std::to_string(coords.size()) +
        " fleets; got " + std::to_string(fleets.size()));
  }
  for (std::size_t f = 0; f < fleets.size(); ++f) {
    if (fleets[f].size() != coords[f].fleet_size) {
      return Error::invalid_argument(
          "fleet " + std::to_string(f) + " has " +
          std::to_string(fleets[f].size()) + " servers; spec '" + spec.name +
          "' needs " + std::to_string(coords[f].fleet_size));
    }
  }
  const telemetry::Span run_span("exp/run", telemetry::Span::Scope::kRoot);
  return sweep(spec, fleets, options);
}

std::string render_result_json(const RunResult& result) {
  JsonWriter json;
  json.begin_object();
  json.key("schema").value(std::string(kResultSchema));
  json.key("spec");
  write_spec(json, result.spec);
  json.key("fleets").begin_array();
  for (const auto& fleet : result.fleets) {
    json.begin_object();
    json.key("fleet_size").value(static_cast<std::size_t>(fleet.fleet_size));
    json.key("seed").value(static_cast<std::size_t>(fleet.seed));
    json.key("gen_threads").value(fleet.gen_threads);
    json.key("digest").value(digest_hex(fleet.digest));
    json.end_object();
  }
  json.end_array();
  json.key("cells").begin_array();
  for (const auto& cell : result.cells) write_cell(json, cell);
  json.end_array();
  json.key("winners").begin_array();
  for (const auto& verdict : result.winners) {
    json.begin_object();
    json.key("fleet_size").value(static_cast<std::size_t>(verdict.fleet_size));
    json.key("seed").value(static_cast<std::size_t>(verdict.seed));
    json.key("gen_threads").value(verdict.gen_threads);
    json.key("idle").value(verdict.idle);
    json.key("trace").value(verdict.trace);
    json.key("policy").value(verdict.policy);
    json.key("avg_efficiency").value(verdict.avg_efficiency);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

std::string digest_hex(std::uint64_t digest) { return hex_u64(digest); }

}  // namespace epserve::exp
