// Idle-state (C-state) model for parked servers, grounded in
// "Towards Energy-Proportional Computing Using Subsystem-Level Power
// Management": the power a fleet wastes in its idle floor depends on how
// deep parked machines may sleep, and waking them back up costs transition
// energy plus latency during which they serve nothing.
//
// The placement evaluators charge a server at utilisation 0 its *active
// idle* power (the bottom of its measured curve). An IdleModel refines
// that: a parked server (exact utilisation 0.0) occupies the deepest state
// the trace's per-slot cap allows, drawing power_fraction of its active
// idle watts, and pays wake_energy_j + a wake_latency_s serving gap on the
// transition back to active. IdleModel::none() is the single-state model
// that reproduces the legacy accounting bit for bit — simulate_day skips
// the idle accounting entirely when the model is trivial().
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace epserve::cluster {

/// One sleep state a parked server can occupy.
struct IdleState {
  std::string name;
  /// Residency power as a fraction of the server's active-idle watts.
  double power_fraction = 1.0;
  /// Time to return to service after a wake decision (serving gap).
  double wake_latency_s = 0.0;
  /// One-off transition energy charged on each wake.
  double wake_energy_j = 0.0;
};

/// An ordered ladder of idle states, shallow to deep. states[0] is active
/// idle (power_fraction 1, free wake); a parked server occupies the
/// deepest state allowed by min(deepest(), trace.idle_state_cap(slot)).
struct IdleModel {
  std::vector<IdleState> states;

  /// Single-state model: parked servers draw active idle power and wake
  /// for free — the legacy accounting, bit for bit.
  static IdleModel none();

  /// ACPI-flavoured ladder C0 / C1 / C3 / C6 / S3: power fractions
  /// 1.0 / 0.70 / 0.40 / 0.15 / 0.03 of active idle, wake latencies from
  /// 10us to 30s, wake energies from 1 J to 6 kJ.
  static IdleModel acpi();

  /// Lookup by CLI name ("none", "acpi"); kNotFound lists the valid names.
  static epserve::Result<IdleModel> by_name(std::string_view name);

  /// True when the model cannot change the legacy accounting (at most one
  /// state, drawing full active-idle power with free wakes).
  [[nodiscard]] bool trivial() const;

  /// Index of the deepest state.
  [[nodiscard]] int deepest() const {
    return static_cast<int>(states.size()) - 1;
  }

  /// Checks the ladder: non-empty, state 0 is free active idle
  /// (power_fraction 1, zero wake cost), fractions in [0, 1] and
  /// non-increasing with depth, latencies/energies non-negative and
  /// non-decreasing with depth.
  [[nodiscard]] epserve::Result<bool> validate() const;
};

}  // namespace epserve::cluster
