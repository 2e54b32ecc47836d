// §III.D / Eq.2: the idle-power analysis — corr(EP, idle%) = -0.92,
// EP = 1.2969 * e^(beta * idle) with R^2 = 0.892, the extrapolation to 5%
// idle (EP 1.17) and the theoretical maximum (1.297) — plus the §I
// correlation between EP and the overall score (0.741).
#include "common.h"

#include "analysis/idle_analysis.h"

int main() {
  using namespace epserve;
  bench::print_header("Eq.2 — idle power vs energy proportionality",
                      "correlations and the exponential regression (§III.D)");

  const auto result = analysis::analyze_idle_power(bench::context());

  TextTable table;
  table.columns({"quantity", "measured", "paper"});
  table.row({"corr(EP, idle%)",
             format_fixed(result.ep_idle_correlation, 3), "-0.92"});
  table.row({"corr(EP, overall EE)",
             format_fixed(result.ep_score_correlation, 3), "0.741"});
  table.row({"Eq.2 alpha", format_fixed(result.eq2.alpha, 4), "1.2969"});
  table.row({"Eq.2 R^2", format_fixed(result.eq2.r_squared, 3), "0.892"});
  table.row({"EP predicted at idle=5%",
             format_fixed(result.predicted_ep_at_5pct_idle, 3), "1.17"});
  table.row({"theoretical max EP (idle->0)",
             format_fixed(result.theoretical_max_ep, 3), "1.297"});
  std::cout << table.render();

  const double early_drop =
      analysis::mean_idle_fraction(bench::population(), 2006, 2007) -
      analysis::mean_idle_fraction(bench::population(), 2011, 2012);
  const double late_drop =
      analysis::mean_idle_fraction(bench::population(), 2011, 2012) -
      analysis::mean_idle_fraction(bench::population(), 2015, 2016);
  std::cout << "\nidle-fraction decline 2006/07 -> 2011/12: "
            << format_percent(early_drop, 1)
            << "; 2011/12 -> 2015/16: " << format_percent(late_drop, 1)
            << "\npaper: the idle percentage fell faster before 2012 — "
               "which is why EP improved faster then.\n";
  return 0;
}
