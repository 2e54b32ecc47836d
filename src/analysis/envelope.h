// Envelope extraction for the pencil-head chart (Fig.9, all EP curves) and
// the almond chart (Fig.11, all normalised EE curves). The paper's
// observation: all 477 curves sit between the curve of the lowest-EP server
// (upper power envelope) and the highest-EP server (lower power envelope).
#pragma once

#include <array>
#include <vector>

#include "dataset/record.h"
#include "metrics/load_level.h"

namespace epserve::analysis {

class AnalysisContext;

/// Normalised sample points: index 0 = active idle (utilisation 0), then the
/// ten load levels ascending.
inline constexpr std::size_t kEnvelopePoints = metrics::kNumLoadLevels + 1;

struct PowerEnvelope {
  /// Pointwise min/max of normalised power across the population.
  std::array<double, kEnvelopePoints> lower{};
  std::array<double, kEnvelopePoints> upper{};
  /// Extreme servers (by EP) whose own curves the paper identifies as the
  /// enveloping edges.
  const dataset::ServerRecord* min_ep_server = nullptr;
  const dataset::ServerRecord* max_ep_server = nullptr;
  double min_ep = 0.0;
  double max_ep = 0.0;
};

/// Fig.9: envelope of normalised power-utilisation curves.
PowerEnvelope power_envelope(const AnalysisContext& ctx);

struct EeEnvelope {
  /// Pointwise min/max of EE normalised to EE at 100% load (levels only; EE
  /// at utilisation 0 is identically 0).
  std::array<double, metrics::kNumLoadLevels> lower{};
  std::array<double, metrics::kNumLoadLevels> upper{};
  const dataset::ServerRecord* min_ep_server = nullptr;
  const dataset::ServerRecord* max_ep_server = nullptr;
};

/// Fig.11: envelope of normalised EE curves.
EeEnvelope ee_envelope(const AnalysisContext& ctx);

/// Normalised power curve of one server at the envelope sample points.
std::array<double, kEnvelopePoints> normalized_power_points(
    const dataset::ServerRecord& record);

/// Normalised EE curve of one server at the ten load levels.
std::array<double, metrics::kNumLoadLevels> normalized_ee_points(
    const dataset::ServerRecord& record);

}  // namespace epserve::analysis
