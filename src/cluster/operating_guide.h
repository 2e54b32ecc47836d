// The §V.C operating guide as an API: the paper's full procedure — group
// heterogeneous servers by EP, subdivide by EE curve into logical clusters
// with overlapping best working regions, and recommend a target utilisation
// per cluster — packaged so an operator (or the placement_advisor example)
// gets the recommendation in one call.
#pragma once

#include <string>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/working_region.h"
#include "dataset/record.h"
#include "util/result.h"

namespace epserve::cluster {

/// One actionable row of the guide.
struct GuideEntry {
  double ep_bucket_lo = 0.0;
  std::size_t servers = 0;
  Region shared_region;          // overlap of member optimal regions
  double target_utilization = 1.0;  // where to keep these machines
  /// Mean normalised EE (vs each machine's peak) when operated at the
  /// target — 1.0 means the whole cluster sits at its best efficiency.
  double efficiency_at_target = 0.0;
};

struct OperatingGuide {
  std::vector<GuideEntry> entries;  // ascending EP buckets
  /// Width of each EP bucket: entry e covers [ep_bucket_lo, ep_bucket_lo +
  /// ep_bucket_width).
  double ep_bucket_width = 0.1;
  /// Fraction of fleet peak throughput available when every cluster runs at
  /// its target utilisation (the capacity the operator can serve without
  /// leaving the efficient regime).
  double efficient_capacity_fraction = 0.0;
};

/// Builds the guide. Target utilisation per cluster: the top of the shared
/// region when it exists (running at the high end maximises work done inside
/// the efficient band), otherwise the members' mean peak-EE utilisation.
/// Peak ops / peak-EE state is read off the fleet columns.
epserve::Result<OperatingGuide> build_operating_guide(
    const Fleet& fleet, double ee_threshold = 0.95,
    double ep_bucket_width = 0.1);

/// Renders the guide as a table. Each EP bucket prints as `lo..hi`, both
/// ends with the fewest decimals (at least one, at most max_digits10) that
/// print the bucket width as itself.
std::string render_guide(const OperatingGuide& guide);

}  // namespace epserve::cluster
