#include "cluster/operating_guide.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <string>
#include <system_error>

#include "metrics/efficiency.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/telemetry.h"

namespace epserve::cluster {

namespace {

/// Normalised EE (vs the machine's peak EE, passed in precomputed — the
/// fleet column) at an arbitrary utilisation, interpolating the measured
/// sheet linearly (0 ops at utilisation 0).
double relative_ee_at(const metrics::PowerCurve& curve, double utilization,
                      double peak) {
  double prev_u = 0.0, prev_ee = 0.0;
  for (std::size_t i = 0; i < metrics::kNumLoadLevels; ++i) {
    const double u = metrics::kLoadLevels[i];
    const double ee = metrics::ee_at_level(curve, i);
    if (utilization <= u) {
      const double frac =
          u == prev_u ? 0.0 : (utilization - prev_u) / (u - prev_u);
      return (prev_ee + frac * (ee - prev_ee)) / peak;
    }
    prev_u = u;
    prev_ee = ee;
  }
  return metrics::ee_at_level(curve, metrics::kNumLoadLevels - 1) / peak;
}

/// The fewest decimals, at least one, whose fixed rendering of `width`
/// reads back as `width`; max_digits10 when none up to it does.
int bucket_decimals(double width) {
  constexpr int kMax = std::numeric_limits<double>::max_digits10;
  for (int decimals = 1; decimals < kMax; ++decimals) {
    const std::string text = format_fixed(width, decimals);
    double read = 0.0;
    const auto parsed =
        std::from_chars(text.data(), text.data() + text.size(), read);
    if (parsed.ec == std::errc{} && read == width) return decimals;
  }
  return kMax;
}

}  // namespace

Result<OperatingGuide> build_operating_guide(const Fleet& fleet,
                                             double ee_threshold,
                                             double ep_bucket_width) {
  if (fleet.empty()) return Error::invalid_argument("fleet is empty");
  if (!(ee_threshold > 0.0 && ee_threshold <= 1.0)) {
    return Error::invalid_argument("EE threshold must be in (0, 1]");
  }
  if (!(ep_bucket_width > 0.0)) {
    return Error::invalid_argument("bucket width must be positive");
  }
  const telemetry::Span span("cluster/guide", telemetry::Span::Scope::kRoot);

  OperatingGuide guide;
  guide.ep_bucket_width = ep_bucket_width;
  double efficient_ops = 0.0;
  double peak_ops = 0.0;

  const std::span<const double> peak_ops_col = fleet.peak_ops();
  const std::span<const double> peak_ee_value = fleet.peak_ee_value();
  const std::span<const double> peak_ee_util = fleet.peak_ee_utilization();

  for (const auto& cluster :
       build_logical_clusters(fleet, ep_bucket_width, ee_threshold)) {
    GuideEntry entry;
    entry.ep_bucket_lo = cluster.ep_bucket_lo;
    entry.servers = cluster.members.size();
    entry.shared_region = cluster.shared_region;
    if (!cluster.shared_region.empty()) {
      entry.target_utilization = cluster.shared_region.hi;
    } else {
      double mean_peak_util = 0.0;
      for (const std::size_t member : cluster.members) {
        mean_peak_util += peak_ee_util[member];
      }
      entry.target_utilization =
          mean_peak_util / static_cast<double>(cluster.members.size());
    }
    double rel_ee = 0.0;
    for (const std::size_t member : cluster.members) {
      rel_ee += relative_ee_at(fleet.curve(member), entry.target_utilization,
                               peak_ee_value[member]);
      efficient_ops += entry.target_utilization * peak_ops_col[member];
      peak_ops += peak_ops_col[member];
    }
    entry.efficiency_at_target =
        rel_ee / static_cast<double>(cluster.members.size());
    guide.entries.push_back(entry);
  }
  guide.efficient_capacity_fraction =
      peak_ops > 0.0 ? efficient_ops / peak_ops : 0.0;
  return guide;
}

std::string render_guide(const OperatingGuide& guide) {
  TextTable table;
  table.columns({"EP bucket", "servers", "shared region", "target util",
                 "rel. EE at target"});
  const int decimals = bucket_decimals(guide.ep_bucket_width);
  for (const auto& entry : guide.entries) {
    const std::string region =
        entry.shared_region.empty()
            ? "(disjoint)"
            : format_percent(entry.shared_region.lo, 0) + ".." +
                  format_percent(entry.shared_region.hi, 0);
    table.row({format_fixed(entry.ep_bucket_lo, decimals) + ".." +
                   format_fixed(entry.ep_bucket_lo + guide.ep_bucket_width,
                                decimals),
               std::to_string(entry.servers), region,
               format_percent(entry.target_utilization, 0),
               format_percent(entry.efficiency_at_target, 1)});
  }
  std::string out = table.render();
  out += "efficient capacity: " +
         format_percent(guide.efficient_capacity_fraction, 1) +
         " of fleet peak throughput\n";
  return out;
}

}  // namespace epserve::cluster
