// Ensemble autoscaling (paper ref [11], Tolia et al.: "delivering energy
// proportionality with non energy-proportional systems — optimizing the
// ensemble"). Placement policies keep every server powered (idle costs the
// idle floor); the autoscaler instead powers servers fully OFF outside the
// active set, making the *ensemble* proportional even when its members are
// not. With a wake penalty, thrash is rate-limited by hysteresis.
#pragma once

#include <vector>

#include "cluster/day_simulation.h"
#include "cluster/fleet.h"
#include "dataset/record.h"
#include "util/result.h"

namespace epserve::cluster {

struct AutoscalerConfig {
  /// Target utilisation for powered-on servers (the §V.C operating point).
  double target_utilization = 0.7;
  /// Energy cost of waking one server, in watt-hours (boot burst).
  double wake_penalty_wh = 15.0;
  /// Hysteresis: only power servers down when the active set exceeds the
  /// needed count by more than this many machines.
  int hysteresis_servers = 1;
};

/// One trace slot's scaling decision.
struct ScaleSlot {
  double demand = 0.0;
  int active_servers = 0;
  double power_watts = 0.0;   // active servers' power (off servers draw 0)
  double wakes = 0.0;         // servers woken entering this slot
};

struct AutoscaleResult {
  std::vector<ScaleSlot> slots;
  double energy_kwh = 0.0;      // including wake penalties
  double served_gops = 0.0;
  double avg_efficiency = 0.0;  // ops per joule
};

/// Runs the autoscaler over a demand trace against a prebuilt Fleet. Servers
/// are ordered by overall EE (best first, Fleet::order_by_overall_score) and
/// the active prefix serves the demand, each active machine at
/// min(1, demand_ops / active_capacity); the prefix capacities and the
/// utilisation are sequential sums and quotients in prefix order. Power is
/// accounted once per distinct (active prefix, utilisation) pair, as
/// account_batch accounts a balanced level: each slot power is the
/// correctly rounded exact sum of normalized_power(u) * peak_watts over the
/// active servers, so a fully active slot reads the balanced total at its
/// utilisation bit for bit. energy_kwh and served_gops are exact sums of
/// the per-slot terms. Fails on an empty fleet or trace, a demand outside
/// [0, 1] (NaN included), or an out-of-range target.
epserve::Result<AutoscaleResult> autoscale_over_day(
    const Fleet& fleet, const DemandTrace& trace,
    const AutoscalerConfig& config = {});

}  // namespace epserve::cluster
