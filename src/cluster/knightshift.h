// KnightShift-style heterogeneous composite (paper refs [17]/[40], Wong &
// Annavaram: "scaling the energy proportionality wall through server-level
// heterogeneity"). A low-power "knight" node fronts a primary server:
// demand below the knight's capacity is served by the knight alone with the
// primary suspended; above it, the primary wakes and serves the rest. The
// composite's power-utilisation curve is far more proportional than the
// primary's own — EP beyond what single-server engineering reaches (the
// "wall").
#pragma once

#include "dataset/record.h"
#include "metrics/power_curve.h"
#include "util/result.h"

namespace epserve::cluster {

struct KnightShiftConfig {
  /// Knight capacity as a fraction of the primary's peak ops (Wong's
  /// KnightShift prototype: ~15%).
  double knight_capacity_fraction = 0.15;
  /// Knight peak power as a fraction of the primary's peak power.
  double knight_power_fraction = 0.08;
  /// Knight idle power as a fraction of its own peak power.
  double knight_idle_fraction = 0.30;
  /// Residual power of the suspended primary (S3-like) as a fraction of the
  /// primary's peak power.
  double primary_suspend_fraction = 0.03;
};

/// The composite's measurement sheet at the eleven SPECpower points, where
/// utilisation is relative to the COMPOSITE peak throughput (primary peak +
/// knight peak). Each shared-regime point evaluates the primary's own curve
/// (PowerCurve::normalized_power). Fails on non-physical configuration or
/// on a primary sheet that fails PowerCurve::validate().
epserve::Result<metrics::PowerCurve> knightshift_curve(
    const dataset::ServerRecord& primary, const KnightShiftConfig& config = {});

/// EP of the composite vs the primary alone (convenience).
struct KnightShiftComparison {
  double primary_ep = 0.0;
  double composite_ep = 0.0;
  double primary_idle_fraction = 0.0;
  double composite_idle_fraction = 0.0;
};

epserve::Result<KnightShiftComparison> compare_knightshift(
    const dataset::ServerRecord& primary, const KnightShiftConfig& config = {});

}  // namespace epserve::cluster
