// exp::Runner — executes an expanded experiment matrix (exp/spec.h) in
// parallel on util/thread_pool, under the repo-wide determinism contract:
// every cell writes only its own slot, reads only the shared immutable
// fleet, and the rendered result document is byte-identical at any worker
// thread count. It is the one policy x trace sweep: `epserve_exp run` and
// `epserve_cli day --matrix` both run through it, and every cell is one
// cluster::simulate_policy_day.
//
// Fleets come from one of two places: the runner builds one per
// (fleet_size, seed, gen_threads) coordinate through Fleet::generate (the
// scaled population drawn straight into the columns, on gen_threads
// lanes), or the caller hands over fleets it built itself. Either way each fleet is shared read-only
// across every cell that addresses it, and its Fleet::digest() is stamped
// into the result so a rendered report can always be traced back to the
// exact population it measured.
//
// Telemetry (asserted exact by tests/exp_runner_test.cpp): one `exp/run`
// root span per run (with one `exp/run/fleet` child per fleet the runner
// builds), one `exp/cell` root span per cell, `exp.cells` / `exp.fleets`
// counters, and `exp.cell.cpu` per-cell thread-CPU timers.
// Wall/CPU timing lives only in telemetry — the result JSON carries
// deterministic fields exclusively, which is what makes the byte-identity
// contract possible.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/day_simulation.h"
#include "cluster/fleet.h"
#include "exp/spec.h"
#include "util/result.h"

namespace epserve::exp {

/// One fleet the run built, identified by its axis coordinates.
struct FleetSummary {
  std::uint64_t fleet_size = 0;
  std::uint64_t seed = 0;
  int gen_threads = 0;
  std::uint64_t digest = 0;

  bool operator==(const FleetSummary&) const = default;
};

/// One executed cell: its coordinates, the fleet digest it measured
/// against, and the day-simulation accounting. `eligible` is false where
/// cluster::simulate_policy_day finds the combination ineligible (the
/// autoscaler on a latency-critical trace); `day` is zeroed there.
struct CellResult {
  Cell cell;
  bool eligible = true;
  std::uint64_t servers = 0;
  std::uint64_t fleet_digest = 0;
  cluster::DayResult day;
};

/// The winning policy of one (fleet, seed, gen_threads, idle, trace) group:
/// highest ops/J among eligible cells, ties toward the earlier policy in
/// the spec's policy axis; empty when no cell of the group is eligible.
struct SweepVerdict {
  std::uint64_t fleet_size = 0;
  std::uint64_t seed = 0;
  int gen_threads = 0;
  std::string idle;
  std::string trace;
  std::string policy;
  double avg_efficiency = 0.0;
};

/// Everything `epserve_exp run` knows: the spec echo plus fleets, cells
/// (expand_cells order), and per-trace verdicts. Fully deterministic — no
/// wall-clock fields (see the header comment).
struct RunResult {
  Spec spec;
  std::vector<FleetSummary> fleets;
  std::vector<CellResult> cells;
  std::vector<SweepVerdict> winners;
};

struct RunnerOptions {
  /// Worker threads for the cell sweep (util/parallel semantics: 0 = auto
  /// via EPSERVE_THREADS or hardware concurrency). The result is
  /// byte-identical at any value — `epserve_exp run --threads` exists to
  /// *verify* that, not to change the answer.
  int threads = 0;
};

/// Validates and runs the spec, building its fleets. Fails before any cell
/// executes on an invalid spec or unknown trace/idle name; a failing cell
/// surfaces the lowest failing index's error, deterministically.
epserve::Result<RunResult> run_experiment(const Spec& spec,
                                          const RunnerOptions& options = {});

/// Same sweep against caller-built fleets, one per (fleet_size, seed,
/// gen_threads) coordinate in expansion order; the seed and gen_threads
/// axes then only label them. Fails before any cell executes when the
/// fleet count or any fleet's size differs from its coordinate (so an
/// empty fleet is rejected).
epserve::Result<RunResult> run_experiment(
    const Spec& spec, std::span<const cluster::Fleet> fleets,
    const RunnerOptions& options = {});

/// Renders the unified result document (schema "epserve-exp-result-v1").
/// Byte-identical for byte-identical RunResults; exp::report parses it back
/// losslessly (the documented %.10g double round-trip rule).
std::string render_result_json(const RunResult& result);

/// 16 lowercase hex digits of a fleet digest (the result-schema encoding).
std::string digest_hex(std::uint64_t digest);

}  // namespace epserve::exp
