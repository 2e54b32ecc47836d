// Thermal feedback for the CPU model: leakage grows with die temperature,
// temperature grows with dissipated power — a fixed point the steady state
// must satisfy. The loop explains a second-order effect the base CpuModel
// omits: at high utilisation the package runs hotter, leaks more, and the
// power-utilisation curve steepens near full load. That *raises* EP, and
// peak power moves with it: for a 95 W 8-core package the loop lifts EP
// 0.667 -> 0.770, peak power 95.0 -> 97.3 W and idle 19.0 -> 16.7 W (claim
// `ablation.thermal`). It also couples fan speed to real heat.
#pragma once

#include "power/cpu_model.h"
#include "util/result.h"

namespace epserve::power {

class ThermalCpuModel {
 public:
  struct Params {
    double ambient_celsius = 25.0;
    /// Junction-to-ambient thermal resistance (K per watt) of the
    /// heatsink+airflow path at nominal fan speed.
    double thermal_resistance = 0.35;
    /// Leakage multiplier doubles roughly every `leakage_doubling_k` kelvin.
    double leakage_doubling_k = 25.0;
    /// Reference temperature at which the base model's static power holds.
    double reference_celsius = 55.0;
    /// Fixed-point iterations (converges geometrically; 12 is plenty).
    int iterations = 12;
  };

  static epserve::Result<ThermalCpuModel> create(CpuModel base,
                                                 const Params& params);

  /// Steady-state package power at (utilization, frequency): solves
  /// P = P_base_dynamic + P_static(T), T = ambient + R_th * P.
  [[nodiscard]] double power(double utilization, double freq_ghz) const;

  /// Steady-state junction temperature at the operating point.
  [[nodiscard]] double temperature(double utilization, double freq_ghz) const;

  [[nodiscard]] const CpuModel& base() const { return base_; }

 private:
  ThermalCpuModel(CpuModel base, const Params& params)
      : base_(std::move(base)), params_(params) {}

  /// One fixed-point solve returning (power, temperature).
  [[nodiscard]] std::pair<double, double> solve(double utilization,
                                                double freq_ghz) const;

  CpuModel base_;
  Params params_;
};

}  // namespace epserve::power
