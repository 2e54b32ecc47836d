// Fig.4: per-year energy-efficiency statistics — overall score (max/avg/
// median/min) and the peak per-level EE variants the figure overlays.
#include "common.h"

#include "analysis/trends.h"

int main() {
  using namespace epserve;
  bench::print_header("Fig.4 — EE statistics trend",
                      "overall score and peak EE per hardware year");

  const auto rows = analysis::year_trends(bench::context());
  TextTable table;
  table.columns({"year", "max EE", "avg EE", "med EE", "min EE",
                 "max peak EE", "avg peak EE", "med peak EE", "min peak EE"});
  for (const auto& row : rows) {
    table.row({std::to_string(row.year), format_fixed(row.score.max, 0),
               format_fixed(row.score.mean, 0),
               format_fixed(row.score.median, 0),
               format_fixed(row.score.min, 0),
               format_fixed(row.peak_ee.max, 0),
               format_fixed(row.peak_ee.mean, 0),
               format_fixed(row.peak_ee.median, 0),
               format_fixed(row.peak_ee.min, 0)});
  }
  std::cout << table.render();

  std::cout << "\npaper: EE rises monotonically with hardware year; only the "
               "2014 minima dip\n(a tower server with overall score 1469 and "
               "EP 0.32 drags that year's floor).\n";
  const auto& y2014 = *std::find_if(rows.begin(), rows.end(),
                                    [](const auto& r) { return r.year == 2014; });
  std::cout << "2014 minimum EE: "
            << bench::vs_paper(format_fixed(y2014.score.min, 0), "1469")
            << "\n";
  return 0;
}
