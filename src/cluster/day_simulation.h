// Diurnal placement simulation: drive a fleet through a demand trace under
// each placement policy and account the energy. This turns the paper's §V.C
// guidance into the quantity an operator actually pays for — kWh per day of
// served work — instead of a single-point efficiency number.
//
// Traces come from the registry in cluster/trace.h (diurnal, flash_crowd,
// weekly, scale_out); the optional IdleModel (cluster/idle_model.h) lets
// parked servers sleep below active idle and charges the wake cost when a
// burst recalls them. IdleModel::none() reproduces the accounting without
// the model bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/idle_model.h"
#include "cluster/placement.h"
#include "cluster/trace.h"
#include "util/result.h"

namespace epserve::cluster {

/// Energy accounting for one policy over one trace repetition.
struct DayResult {
  std::string policy;
  double energy_kwh = 0.0;       // fleet energy over the trace
  double served_gops = 0.0;      // integral of served throughput (Gops)
  double avg_efficiency = 0.0;   // served ops per joule (ops/J)

  // Idle-model accounting (all zero under IdleModel::none()):
  double idle_energy_kwh = 0.0;  // residency energy charged to parked servers
  double wake_energy_kwh = 0.0;  // transition energy across all wakes
  double wake_lost_gops = 0.0;   // work lost to wake latency (deducted above)
  std::uint64_t wake_count = 0;  // parked->active transitions
};

/// Runs the trace under a policy against a prebuilt Fleet — the whole day is
/// one account_batch over the trace's distinct demand levels (bit-identical
/// to evaluating every slot), recorded under the `cluster/policy/<name>` root
/// telemetry span. The day never expands a level into a utilisation vector:
/// the slot sums read each level's totals, and the idle accounting takes
/// each slot's parked, residency and wake charges from range sums over the
/// plans' fill order. Each of the five sums is the correctly rounded exact
/// sum of the per-slot and per-server terms a slot x server pass would add
/// (docs/CLUSTER.md). Fails on empty fleet/trace, demand outside [0, 1]
/// (NaN included), or idle-state caps that are negative or do not number
/// one per slot.
///
/// With a non-trivial IdleModel, a parked server (exact utilisation 0.0)
/// occupies the deepest state allowed by trace.idle_state_cap(slot): its
/// slot energy scales by the state's power_fraction, and a parked->active
/// transition charges the state's wake_energy_j and forfeits the server's
/// served work for the wake_latency_s head of the slot.
epserve::Result<DayResult> simulate_day(const PlacementPolicy& policy,
                                        const Fleet& fleet,
                                        const DemandTrace& trace,
                                        const IdleModel& idle = IdleModel::none());

/// The policies a simulated day runs under, in report column order: the
/// three placement policies, then the ensemble autoscaler
/// (cluster/autoscaler.h), which powers servers fully off.
inline constexpr std::array<std::string_view, 4> kDayPolicies = {
    "pack-to-full", "balanced", "optimal-region", "autoscaler"};

/// One day of the named kDayPolicies policy over the trace — the one
/// evaluator behind `epserve_cli day`, `day --matrix` and the exp runner's
/// cells. Empty when the combination is ineligible: the autoscaler powers
/// servers fully off, which a latency-critical trace forbids. The
/// autoscaler runs at its default config and ignores `idle` (its off
/// servers draw nothing); its wake penalty, already inside energy_kwh,
/// doubles as wake_energy_kwh. Fails with kNotFound on an unknown policy,
/// else as simulate_day / autoscale_over_day fail.
epserve::Result<std::optional<DayResult>> simulate_policy_day(
    std::string_view policy, const Fleet& fleet, const DemandTrace& trace,
    const IdleModel& idle = IdleModel::none());

/// Convenience: all three built-in policies on the same fleet/trace. The
/// Fleet is shared across the three runs (built once by the caller).
epserve::Result<std::vector<DayResult>> compare_policies_over_day(
    const Fleet& fleet, const DemandTrace& trace,
    const IdleModel& idle = IdleModel::none());

}  // namespace epserve::cluster
