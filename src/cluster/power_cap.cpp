#include "cluster/power_cap.h"

#include "util/telemetry.h"

namespace epserve::cluster {

Result<CapResult> max_throughput_under_cap(const PlacementPolicy& policy,
                                           const Fleet& fleet,
                                           double cap_watts,
                                           double tolerance) {
  if (!(cap_watts > 0.0)) {
    return Error::invalid_argument("cap must be positive");
  }
  if (!(tolerance > 0.0)) {
    return Error::invalid_argument("tolerance must be positive");
  }
  const telemetry::Span policy_span("cluster/policy/power-cap",
                                    telemetry::Span::Scope::kRoot);
  // Each step reads one demand's totals; a staged policy's come
  // from the Fleet's staged state, so no step rebuilds its columns.
  const auto totals_at = [&](double demand) -> Result<Assignment> {
    auto account =
        account_batch(policy, fleet, std::span<const double>(&demand, 1));
    if (!account.ok()) return account.error();
    return std::move(account.value().totals.front());
  };
  auto idle = totals_at(0.0);
  if (!idle.ok()) return idle.error();
  if (idle.value().total_power_watts > cap_watts) {
    return Error::failed_precondition(
        "fleet idle power already exceeds the cap");
  }

  auto full = totals_at(1.0);
  if (!full.ok()) return full.error();

  CapResult result;
  result.cap_watts = cap_watts;
  if (full.value().total_power_watts <= cap_watts) {
    result.max_demand = 1.0;
    result.max_throughput = full.value().total_ops;
    result.power_at_max = full.value().total_power_watts;
    return result;
  }

  // Bisection on demand; per-policy power is monotone in demand. A
  // tolerance below the spacing of doubles near the answer ends the loop
  // once lo and hi are adjacent, where the midpoint rounds to one of them.
  double lo = 0.0, hi = 1.0;
  Assignment at_lo = std::move(idle).take();
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) break;
    auto assignment = totals_at(mid);
    if (!assignment.ok()) return assignment.error();
    if (assignment.value().total_power_watts <= cap_watts) {
      lo = mid;
      at_lo = std::move(assignment).take();
    } else {
      hi = mid;
    }
  }
  result.max_demand = lo;
  result.max_throughput = at_lo.total_ops;
  result.power_at_max = at_lo.total_power_watts;
  return result;
}

}  // namespace epserve::cluster
