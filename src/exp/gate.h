// exp::Gate — the self-verification pattern shared by the perf-gating
// benches, extracted from the open-coded `bool ok` / fprintf blocks that
// were copy-pasted across bench_fleet_day, bench_population_scale and
// friends.
//
// A bench declares its gates (speedup floors, byte-compares, RSS/wall
// ceilings) against measured values; each check records a pass/fail row,
// failing checks print a `FAIL: <bench>: <check>: <detail>` diagnostic to
// stderr immediately, and finish() renders the declared-gate table and
// returns the process exit code. Passing/failing checks bump the
// `exp.gates_passed` / `exp.gates_failed` telemetry counters (asserted
// exact by tests/exp_gate_test.cpp).
//
// The same module owns the gate *suite* runner behind `epserve_exp gate`:
// it executes the gating bench binaries, harvests their BENCH_JSON lines,
// and writes the BENCH_baseline.json document plus the dated
// BENCH_<YYYYMMDD>.json snapshot (bench/run_benches.sh is now a thin
// wrapper over it).
#pragma once

#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/result.h"

namespace epserve::exp {

/// One declared check and its outcome.
struct GateCheck {
  std::string name;
  bool passed = false;
  std::string detail;
};

class Gate {
 public:
  /// `bench` names the harness in diagnostics (usually the binary name).
  explicit Gate(std::string bench);

  /// measured >= floor_value (speedup floors). Returns the check outcome.
  bool floor(std::string_view check, double measured, double floor_value);

  /// measured <= ceiling_value (RSS ceilings, wall budgets).
  bool ceiling(std::string_view check, double measured, double ceiling_value);

  /// Byte equality of two rendered outputs (digest byte-compares).
  bool bytes_equal(std::string_view check, std::string_view a,
                   std::string_view b);

  /// Byte equality of two value spans (digest vectors, kernel matrices).
  template <typename T>
  bool bytes_equal(std::string_view check, std::span<const T> a,
                   std::span<const T> b) {
    static_assert(std::is_trivially_copyable_v<T>);
    const bool same =
        a.size() == b.size() &&
        (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
    return record(check, same,
                  same ? "byte-identical" : "outputs differ");
  }

  /// Arbitrary predicate with a caller-supplied detail line.
  bool require(std::string_view check, bool ok, std::string_view detail = {});

  [[nodiscard]] bool passed() const;
  [[nodiscard]] const std::vector<GateCheck>& checks() const {
    return checks_;
  }

  /// Prints the declared-gate table to stdout and returns the process exit
  /// code (0 all passed / 1 otherwise).
  int finish() const;

 private:
  bool record(std::string_view check, bool ok, std::string detail);

  std::string bench_;
  std::vector<GateCheck> checks_;
};

// --- gate suite (`epserve_exp gate`) ---------------------------------------

struct GateSuiteOptions {
  /// CMake build directory holding bench/<binary> targets.
  std::string build_dir = "build";
  /// Baseline document path; the dated snapshot lands next to it.
  std::string out = "BENCH_baseline.json";
};

/// The perf-gating bench binaries, suite order.
std::span<const std::string_view> gating_benches();

/// Where the dated snapshot for `out` goes: BENCH_<yyyymmdd>.json in the
/// same directory, also when `out` has no directory component at all
/// ("BENCH_baseline.json" -> "BENCH_20260101.json", not "/BENCH_...").
std::string dated_snapshot_path(std::string_view out,
                                std::string_view yyyymmdd);

/// Runs every gating bench, wall-clock timed, echoing its output; harvests
/// the last BENCH_JSON line of each (re-emitted through the JSON writer)
/// and writes the baseline document plus the dated snapshot. Returns the
/// suite exit status (0 iff every bench exited 0); kIo/kNotFound when a
/// binary is missing or an output file cannot be written.
epserve::Result<int> run_gate_suite(const GateSuiteOptions& options = {});

}  // namespace epserve::exp
