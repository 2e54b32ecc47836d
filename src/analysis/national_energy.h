// National data-center energy scenarios (paper §I motivation).
//
// The paper frames its study with the U.S. data-center energy estimates:
// EPA 2007 projected 107.4 billion kWh by 2011 under 2006 efficiency trends;
// the NRDC measured 76.4 billion kWh in 2011 and projected 138 by 2020 under
// current trends; LBNL 2016 estimated ~70 billion kWh in 2014, rising slowly
// to ~73 by 2020 thanks to efficiency gains and hyperscale consolidation.
//
// This module reproduces those trajectories with a compact stock-and-
// efficiency model: installed server stock grows with demand, per-server
// energy falls with an efficiency improvement rate, and each published
// scenario corresponds to one (demand growth, efficiency rate, consolidation
// shift) parameterisation.
#pragma once

#include <string_view>

#include "util/result.h"

namespace epserve::analysis {

/// One scenario's parameterisation.
struct EnergyScenario {
  std::string_view name;
  int base_year = 2006;
  double base_energy_twh = 61.0;  // U.S. data centers, 2006 (EPA report)
  /// Annual growth of demanded compute (server-stock equivalents).
  double demand_growth = 0.10;
  /// Annual per-unit energy-efficiency improvement.
  double efficiency_gain = 0.05;
  /// Additional annual energy reduction from consolidation into hyperscale
  /// facilities (LBNL's "current trends" mechanism).
  double consolidation_gain = 0.0;
};

/// Energy in TWh (billion kWh) at `year` under the scenario.
double projected_energy_twh(const EnergyScenario& scenario, int year);

/// One of the paper's §I scenarios by name, calibrated to reproduce the
/// cited estimates; nullptr when unknown:
///  - "epa-2006-trend": efficiency frozen at the 2006 trajectory
///    (EPA's 107.4 TWh by 2011 warning);
///  - "nrdc-current":   the post-2011 trend NRDC extrapolated to 138 TWh
///    by 2020;
///  - "lbnl-current":   efficiency + hyperscale shift holding energy near
///    70-73 TWh through 2020.
const EnergyScenario* find_scenario(std::string_view name);

}  // namespace epserve::analysis
