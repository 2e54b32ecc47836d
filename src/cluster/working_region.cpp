#include "cluster/working_region.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "cluster/fleet.h"
#include "metrics/efficiency.h"
#include "metrics/proportionality.h"
#include "util/contracts.h"

namespace epserve::cluster {

Region intersect(const Region& a, const Region& b) {
  return Region{std::max(a.lo, b.lo), std::min(a.hi, b.hi)};
}

Region optimal_region(const metrics::PowerCurve& curve, double threshold) {
  EPSERVE_EXPECTS(threshold > 0.0 && threshold <= 1.0);
  const double peak = metrics::peak_ee(curve).value;
  const double cut = peak * threshold;

  // EE as a piecewise-linear function through (0, 0) and the ten levels.
  const auto ee_at = [&](std::size_t i) {
    return metrics::ee_at_level(curve, i);
  };

  // Find the first up-crossing and the last down-crossing of `cut`.
  double lo = 1.0, hi = 0.0;
  double prev_u = 0.0, prev_ee = 0.0;
  bool inside = false;
  for (std::size_t i = 0; i < metrics::kNumLoadLevels; ++i) {
    const double u = metrics::kLoadLevels[i];
    const double ee = ee_at(i);
    if (!inside && ee >= cut) {
      // Up-crossing between prev and here.
      const double frac =
          ee == prev_ee ? 0.0 : (cut - prev_ee) / (ee - prev_ee);
      lo = std::min(lo, prev_u + frac * (u - prev_u));
      inside = true;
      hi = u;
    } else if (inside && ee >= cut) {
      hi = u;
    } else if (inside && ee < cut) {
      // Down-crossing: extend hi into the interpolated crossing point.
      const double frac = (prev_ee - cut) / (prev_ee - ee);
      hi = prev_u + frac * (u - prev_u);
      inside = false;
      // The region is defined as the band around the peak; stop at the
      // first down-crossing after the peak.
      break;
    }
    prev_u = u;
    prev_ee = ee;
  }
  if (lo > hi) return Region{1.0, 0.0};  // empty (should not happen)
  return Region{lo, hi};
}

std::vector<LogicalCluster> build_logical_clusters(const Fleet& fleet,
                                                   double bucket_width,
                                                   double ee_threshold) {
  EPSERVE_EXPECTS(bucket_width > 0.0);
  const std::span<const double> ep_col = fleet.ep();
  std::map<int, LogicalCluster> buckets;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const double ep = ep_col[i];
    const int key = static_cast<int>(std::floor(ep / bucket_width));
    auto [it, inserted] = buckets.try_emplace(key);
    auto& cluster = it->second;
    if (inserted) {
      cluster.ep_bucket_lo = key * bucket_width;
      cluster.shared_region = Region{0.0, 1.0};
    }
    cluster.members.push_back(i);
    cluster.shared_region = intersect(
        cluster.shared_region, optimal_region(fleet.curve(i), ee_threshold));
  }
  std::vector<LogicalCluster> out;
  out.reserve(buckets.size());
  for (auto& [key, cluster] : buckets) out.push_back(std::move(cluster));
  return out;
}

}  // namespace epserve::cluster
