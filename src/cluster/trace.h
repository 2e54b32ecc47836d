// Scenario trace library (ROADMAP item 3): named demand traces behind a
// TraceSpec/registry API, replacing ad-hoc DemandTrace construction.
//
// The paper's §V.C guidance was previously exercised against exactly one
// workload shape — the hardcoded diurnal trace. "On the Energy
// Proportionality of Scale-Out Workloads" shows that latency-critical
// scale-out services forbid deep idle states and invert which policy wins,
// so the library carries four shapes spanning that space:
//
//   diurnal      24 x 1h    trough-at-night / evening-peak sine (the
//                           default trace)
//   flash_crowd  48 x 0.5h  flat baseline with a sudden sustained burst —
//                           parked servers must wake mid-day
//   weekly       168 x 1h   seven chained diurnal days with damped weekends
//   scale_out    24 x 1h    latency-critical profile: high floor, shallow
//                           swing, and a per-slot cap on how deep parked
//                           servers may sleep (max_idle_state)
//
// Registry construction is *checked*: a base/amplitude combination that
// would push any slot's demand outside [0, 1] returns an Error; no demand
// is clamped.
#pragma once

#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace epserve::cluster {

/// A repeating demand trace: one aggregate-demand fraction per slot.
struct DemandTrace {
  std::vector<double> demand;       // each in [0, 1]
  double slot_hours = 1.0;

  /// Per-slot cap on the deepest idle state a parked server may occupy,
  /// as an index into IdleModel::states (0 = active idle only). Empty =
  /// unconstrained. Populated only by latency-critical traces (scale_out).
  std::vector<int> max_idle_state;

  /// True when the trace restricts idle-state depth (scale-out class);
  /// such traces are incompatible with power-off policies (autoscaler).
  [[nodiscard]] bool latency_critical() const {
    return !max_idle_state.empty();
  }

  /// The deepest idle state allowed for a parked server in `slot`, given a
  /// model whose deepest state index is `deepest`. Unconstrained slots
  /// return `deepest`. A capped trace must hold one cap per slot (a slot
  /// past the end raises ContractViolation); simulate_day rejects a trace
  /// whose caps miscount its slots or go negative.
  [[nodiscard]] int idle_state_cap(std::size_t slot, int deepest) const;
};

/// Request for a named trace. base/amplitude default to the catalog's
/// per-trace defaults when left NaN.
struct TraceSpec {
  static constexpr double kUseDefault =
      std::numeric_limits<double>::quiet_NaN();

  std::string name;
  double base = kUseDefault;
  double amplitude = kUseDefault;
};

/// Catalog row describing one registered trace.
struct TraceInfo {
  std::string_view name;
  std::string_view description;
  std::size_t slots = 0;
  double slot_hours = 0.0;
  double default_base = 0.0;
  double default_amplitude = 0.0;
  bool latency_critical = false;
};

/// The full registry, in canonical (CLI/matrix) order.
std::span<const TraceInfo> trace_catalog();

/// Registered names, catalog order — the `--list-traces` / error-message
/// list.
std::vector<std::string_view> trace_names();

/// Builds a trace from the registry. Unknown names fail with kNotFound
/// listing the known names; base/amplitude combinations that would push
/// any slot's demand outside [0, 1] fail with kInvalidArgument (nothing is
/// clamped).
epserve::Result<DemandTrace> make_trace(const TraceSpec& spec);

/// Catalog-default parameters for `name`.
epserve::Result<DemandTrace> make_trace(std::string_view name);

}  // namespace epserve::cluster
