#include "analysis/national_energy.h"

#include <cmath>
#include <vector>

#include "util/contracts.h"

namespace epserve::analysis {

double projected_energy_twh(const EnergyScenario& scenario, int year) {
  EPSERVE_EXPECTS(year >= scenario.base_year);
  const double years = static_cast<double>(year - scenario.base_year);
  const double growth = std::pow(1.0 + scenario.demand_growth, years);
  const double efficiency =
      std::pow(1.0 - scenario.efficiency_gain, years);
  const double consolidation =
      std::pow(1.0 - scenario.consolidation_gain, years);
  return scenario.base_energy_twh * growth * efficiency * consolidation;
}

namespace {
// Calibration notes (each checked by tests):
//  - EPA trend: 61 TWh (2006) doubling-ish by 2011 -> 107.4: demand 14.5%/yr
//    with only 2%/yr efficiency gain: 61 * 1.145^5 * 0.98^5 = 108.4.
//  - NRDC current: anchored at 76.4 in 2011, reaching ~138 by 2020:
//    demand 10%/yr, efficiency 3.2%/yr: 76.4 * (1.10*0.968)^9 = 137.
//  - LBNL current: anchored at 70 in 2014, ~73 by 2020: demand 9%/yr,
//    efficiency 5%/yr, consolidation 3%/yr: 70 * (1.09*0.95*0.97)^6 = 73.3.
const std::vector<EnergyScenario> kScenarios = {
    {"epa-2006-trend", 2006, 61.0, 0.145, 0.020, 0.0},
    {"nrdc-current", 2011, 76.4, 0.100, 0.032, 0.0},
    {"lbnl-current", 2014, 70.0, 0.090, 0.050, 0.030},
};
}  // namespace

const EnergyScenario* find_scenario(std::string_view name) {
  for (const auto& scenario : kScenarios) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

}  // namespace epserve::analysis
