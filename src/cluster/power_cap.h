// Fixed-power-budget operation (paper §V.C: "for a fixed number of racks
// energy proportionality aware workload placement can maximize the
// throughput or do more jobs under fixed power supply").
#pragma once

#include "cluster/placement.h"
#include "util/result.h"

namespace epserve::cluster {

struct CapResult {
  double cap_watts = 0.0;
  /// Highest demand fraction servable inside the cap.
  double max_demand = 0.0;
  /// Throughput (ops/sec) at that demand.
  double max_throughput = 0.0;
  /// Power actually drawn at that demand.
  double power_at_max = 0.0;
};

/// Finds the largest demand a policy can serve without exceeding
/// `cap_watts`, by bisection over the demand axis (power is monotone in
/// demand for all built-in policies), until the bracket is no wider than
/// `tolerance` or its ends are adjacent doubles. Fails when even zero
/// demand (fleet idle) violates the cap, or on an empty fleet. Each step is
/// one account_batch over its demand, so a staged policy's steps
/// read the Fleet's staged state (Fleet::staged_state) and run only the
/// fill walk and the level's prefix sums.
epserve::Result<CapResult> max_throughput_under_cap(
    const PlacementPolicy& policy, const Fleet& fleet, double cap_watts,
    double tolerance = 1e-4);

}  // namespace epserve::cluster
