// exp::Spec — the declarative experiment matrix (ROADMAP item 4).
//
// An experiment is declared as six axes — fleet size x placement policy x
// trace x idle model x seed x generation thread count — and expanded into
// cells, each cell a pure function of its coordinates: the fleet is the
// scaled population generated from (seed, fleet_size, threads) and the
// measurement is one simulated day of (policy, trace, idle) against it.
// Nothing in a cell depends on which cell ran before it or on how many
// worker threads the runner used, so results are regenerable and
// byte-identical at any parallelism (docs/EXPERIMENTS_HARNESS.md).
//
// Specs come from two places, both strict:
//   * the built-in registry (named_spec / spec_names) — `smoke`, `default`,
//     `scale`, the specs the committed artifacts and CI gates run;
//   * a JSON document (spec_from_json), the `epserve_exp run <spec.json>`
//     path, validated axis by axis (unknown policy/trace/idle names and
//     empty axes are errors, never silently skipped cells).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace epserve {
class JsonValue;
class JsonWriter;
}

namespace epserve::exp {

/// One declarative experiment: every axis non-empty, every name registered.
struct Spec {
  std::string name;
  std::string description;
  std::vector<std::uint64_t> fleet_sizes;
  /// cluster::kDayPolicies names (cluster/day_simulation.h).
  std::vector<std::string> policies;
  /// Trace registry names (cluster/trace.h).
  std::vector<std::string> traces;
  /// Idle-model names (cluster/idle_model.h): "none" / "acpi".
  std::vector<std::string> idle_models;
  std::vector<std::uint64_t> seeds;
  /// Generation thread counts (dataset::ScaledConfig::threads semantics:
  /// 0 = auto, 1 = serial). An axis, not a runner knob: generation is
  /// byte-identical at any value, so extra entries re-verify that contract.
  std::vector<int> gen_threads;

  bool operator==(const Spec&) const = default;
};

/// One cell's coordinates, in expansion order. The cell's result is a pure
/// function of these six values.
struct Cell {
  std::uint64_t fleet_size = 0;
  std::uint64_t seed = 0;
  int gen_threads = 0;
  std::string idle;
  std::string trace;
  std::string policy;

  bool operator==(const Cell&) const = default;
};

/// Validates every axis: non-empty, fleet sizes positive, policy/trace/idle
/// names registered, gen_threads non-negative. kInvalidArgument names the
/// offending axis and value.
epserve::Result<bool> validate_spec(const Spec& spec);

/// Expands the axes into cells, outermost to innermost:
/// fleet_size, seed, gen_threads, idle, trace, policy. The order is part of
/// the result-schema contract (renderers group on it).
std::vector<Cell> expand_cells(const Spec& spec);

/// Number of cells expand_cells would produce.
std::size_t cell_count(const Spec& spec);

/// The built-in registry, in catalog order: `smoke` (two cells, CI-sized),
/// `default` (the committed EXPERIMENTS_SWEEPS.md matrix), `scale`
/// (100k-server fleets over the full trace catalog).
std::vector<std::string_view> spec_names();

/// Looks up a built-in spec. kNotFound lists the known names (the
/// `epserve_exp run` exit-2 diagnostic).
epserve::Result<Spec> named_spec(std::string_view name);

/// The `epserve_cli day --matrix` spec: one fleet of `fleet_size` servers,
/// every cluster::kDayPolicies policy over the full trace catalog under
/// one idle model. Run it against a caller-built fleet; its seed and
/// gen_threads axes are {0}, which only label that fleet.
Spec day_matrix_spec(std::uint64_t fleet_size, const std::string& idle);

/// Parses and validates a spec document (schema "epserve-exp-spec-v1").
epserve::Result<Spec> spec_from_json(std::string_view text);

/// Same, from an already-parsed value (the result document's spec echo).
epserve::Result<Spec> spec_from_value(const JsonValue& doc);

/// Renders a spec as a spec-v1 document; spec_from_json(spec_to_json(s))
/// reproduces `s` exactly.
std::string spec_to_json(const Spec& spec);

/// Writes the spec as one JSON object value into an open writer (the
/// result document embeds the spec echo this way).
void write_spec(JsonWriter& json, const Spec& spec);

}  // namespace epserve::exp
