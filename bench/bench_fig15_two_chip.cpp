// Fig.15: 2-chip single-node servers vs all servers, per hardware year.
// Paper: the 2-chip subset averages +2.94% EP and +4.13% EE over the whole
// population of the same year (+1.18% / +6.26% on medians).
#include "common.h"

#include "analysis/scale_analysis.h"

int main() {
  using namespace epserve;
  bench::print_header("Fig.15 — 2-chip single-node servers vs all",
                      "per-year comparison (same hardware availability year)");

  const auto cmp = analysis::two_chip_vs_all(bench::context());
  TextTable table;
  table.columns({"year", "2-chip n", "all n", "avg EP (2c/all)",
                 "avg EE (2c/all)"});
  for (const auto& row : cmp.years) {
    table.row({std::to_string(row.year), std::to_string(row.two_chip_count),
               std::to_string(row.all_count),
               format_fixed(row.two_chip_avg_ep, 2) + "/" +
                   format_fixed(row.all_avg_ep, 2),
               format_fixed(row.two_chip_avg_ee, 0) + "/" +
                   format_fixed(row.all_avg_ee, 0)});
  }
  std::cout << table.render();

  std::cout << "\naverage EP gain: "
            << bench::vs_paper(format_percent(cmp.avg_ep_gain), "+2.94%")
            << "\naverage EE gain: "
            << bench::vs_paper(format_percent(cmp.avg_ee_gain), "+4.13%")
            << "\nmedian EP gain: "
            << bench::vs_paper(format_percent(cmp.median_ep_gain), "+1.18%")
            << "\nmedian EE gain: "
            << bench::vs_paper(format_percent(cmp.median_ee_gain), "+6.26%")
            << "\n";
  return 0;
}
