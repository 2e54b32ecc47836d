// Fig.2: EP and EE of all 477 servers against hardware availability year —
// the scatter behind the trend statistics. Printed as per-year min/max bands
// plus the overall trajectory the paper describes (EP 0.30 in 2005 to ~0.84
// in 2016; EE rising monotonically).
#include "common.h"

#include "analysis/trends.h"

int main() {
  using namespace epserve;
  bench::print_header("Fig.2 — EP and EE evolution",
                      "all 477 servers by hardware availability year");

  const auto rows = analysis::year_trends(bench::context());
  TextTable table;
  table.columns({"year", "n", "EP range", "EP avg", "EE range", "EE avg"});
  for (const auto& row : rows) {
    table.row({std::to_string(row.year), std::to_string(row.count),
               format_fixed(row.ep.min, 2) + ".." + format_fixed(row.ep.max, 2),
               format_fixed(row.ep.mean, 2),
               format_fixed(row.score.min, 0) + ".." +
                   format_fixed(row.score.max, 0),
               format_fixed(row.score.mean, 0)});
  }
  std::cout << table.render();

  const auto find_year = [&](int year) -> const analysis::YearTrendRow& {
    for (const auto& row : rows) {
      if (row.year == year) return row;
    }
    std::abort();
  };
  std::cout << "\naverage EP 2005: "
            << bench::vs_paper(format_fixed(find_year(2005).ep.mean, 2), "0.30")
            << "\naverage EP 2012: "
            << bench::vs_paper(format_fixed(find_year(2012).ep.mean, 2), "0.82")
            << "\naverage EP 2016: "
            << bench::vs_paper(format_fixed(find_year(2016).ep.mean, 2), "0.84")
            << "\nminimum EP 2016: "
            << bench::vs_paper(format_fixed(find_year(2016).ep.min, 2), "0.73")
            << "\n";
  return 0;
}
