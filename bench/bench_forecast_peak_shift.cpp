// §IV.A forecast: "We can expect the peak energy efficiency at 50% or even
// 40% utilization in the near future." Fits the 2010-2016 shift of the mean
// peak-EE utilisation and extrapolates it; also projects the idle fraction
// and the Eq.2-implied EP it would buy.
#include "common.h"

#include "analysis/forecast.h"
#include "analysis/idle_analysis.h"

int main() {
  using namespace epserve;
  bench::print_header("§IV.A — peak-EE shift forecast",
                      "linear trend of the mean peak-EE utilisation, 2010-");

  const auto forecast = analysis::forecast_peak_shift(bench::population(),
                                                      2010, 2026);
  TextTable observed;
  observed.columns({"year", "mean peak-EE utilisation"});
  for (const auto& p : forecast.observed) {
    observed.row({std::to_string(p.year), format_percent(p.value, 1)});
  }
  std::cout << observed.render();

  std::cout << "\ntrend: " << format_fixed(forecast.trend.slope * 100.0, 2)
            << " pp/year (R^2 " << format_fixed(forecast.trend.r_squared, 2)
            << ")\n\nprojection:\n";
  TextTable projected;
  projected.columns({"year", "projected mean peak-EE utilisation"});
  for (const auto& p : forecast.projected) {
    projected.row({std::to_string(p.year), format_percent(p.value, 1)});
  }
  std::cout << projected.render();
  std::cout << "\nmean utilisation crosses 50% in: "
            << (forecast.year_reaching_50 == 0
                    ? "beyond horizon"
                    : std::to_string(forecast.year_reaching_50))
            << " (paper: 'near future')\ncrosses 40% in: "
            << (forecast.year_reaching_40 == 0
                    ? "beyond horizon"
                    : std::to_string(forecast.year_reaching_40))
            << "\n";

  std::cout << section_banner("Idle-fraction projection -> Eq.2 EP");
  const auto idle_forecast = analysis::forecast_idle_fraction(bench::population());
  const auto eq2 = analysis::analyze_idle_power(bench::context()).eq2;
  TextTable idle_table;
  idle_table.columns({"year", "projected idle%", "Eq.2-implied EP"});
  for (const int year : {2018, 2020, 2022}) {
    const double idle = idle_forecast.projected_idle(year);
    idle_table.row({std::to_string(year), format_percent(idle, 1),
                    format_fixed(eq2.predict(idle), 3)});
  }
  std::cout << idle_table.render();
  std::cout << "\npaper: decreasing idle power keeps improving EP "
               "exponentially (EP 1.17 at 5% idle;\ntheoretical ceiling "
            << format_fixed(eq2.alpha, 3) << ").\n";
  return 0;
}
