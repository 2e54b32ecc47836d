#include "analysis/envelope.h"

#include <algorithm>

#include "analysis/context.h"
#include "metrics/efficiency.h"
#include "util/contracts.h"

namespace epserve::analysis {

std::array<double, kEnvelopePoints> normalized_power_points(
    const dataset::ServerRecord& record) {
  std::array<double, kEnvelopePoints> points{};
  points[0] = record.curve.idle_fraction();
  for (std::size_t i = 0; i < metrics::kNumLoadLevels; ++i) {
    points[i + 1] =
        record.curve.watts_at_level(i) / record.curve.peak_watts();
  }
  return points;
}

std::array<double, metrics::kNumLoadLevels> normalized_ee_points(
    const dataset::ServerRecord& record) {
  std::array<double, metrics::kNumLoadLevels> points{};
  for (std::size_t i = 0; i < metrics::kNumLoadLevels; ++i) {
    points[i] = metrics::normalized_ee(record.curve, i);
  }
  return points;
}

PowerEnvelope power_envelope(const AnalysisContext& ctx) {
  EPSERVE_EXPECTS(ctx.size() > 0);
  const auto& records = ctx.repo().records();
  const auto ep = ctx.columnar().ep();
  PowerEnvelope env;
  env.lower.fill(2.0);
  env.upper.fill(0.0);
  env.min_ep = 2.0;
  env.max_ep = 0.0;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const auto points = normalized_power_points(records[r]);
    for (std::size_t i = 0; i < kEnvelopePoints; ++i) {
      env.lower[i] = std::min(env.lower[i], points[i]);
      env.upper[i] = std::max(env.upper[i], points[i]);
    }
    if (ep[r] < env.min_ep) {
      env.min_ep = ep[r];
      env.min_ep_server = &records[r];
    }
    if (ep[r] > env.max_ep) {
      env.max_ep = ep[r];
      env.max_ep_server = &records[r];
    }
  }
  return env;
}

EeEnvelope ee_envelope(const AnalysisContext& ctx) {
  EPSERVE_EXPECTS(ctx.size() > 0);
  const auto& records = ctx.repo().records();
  const auto ep = ctx.columnar().ep();
  EeEnvelope env;
  env.lower.fill(1e30);
  env.upper.fill(0.0);
  double min_ep = 2.0, max_ep = 0.0;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const auto points = normalized_ee_points(records[r]);
    for (std::size_t i = 0; i < metrics::kNumLoadLevels; ++i) {
      env.lower[i] = std::min(env.lower[i], points[i]);
      env.upper[i] = std::max(env.upper[i], points[i]);
    }
    if (ep[r] < min_ep) {
      min_ep = ep[r];
      env.min_ep_server = &records[r];
    }
    if (ep[r] > max_ep) {
      max_ep = ep[r];
      env.max_ep_server = &records[r];
    }
  }
  return env;
}

}  // namespace epserve::analysis
