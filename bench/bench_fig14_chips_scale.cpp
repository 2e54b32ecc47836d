// Fig.14: EP and EE of the 403 single-node servers by chip count (1/2/4/8).
// Paper: 2-chip boards lead on every statistic except the median EP (where
// 1-chip edges it, 0.67 vs 0.66); EP/EE decline monotonically past 2 chips.
#include "common.h"

#include "analysis/scale_analysis.h"

int main() {
  using namespace epserve;
  bench::print_header("Fig.14 — single-node servers by chip count",
                      "403 single-node servers; chips = 1/2/4/8");

  TextTable table;
  table.columns({"chips", "n", "avg EP", "med EP", "avg EE", "med EE"});
  for (const auto& row : analysis::ep_ee_by_chips(bench::context())) {
    table.row({std::to_string(row.key), std::to_string(row.count),
               format_fixed(row.ep.mean, 3), format_fixed(row.ep.median, 3),
               format_fixed(row.score.mean, 0),
               format_fixed(row.score.median, 0)});
  }
  std::cout << table.render();
  std::cout << "\npaper counts: 77 / 284 / 36 / 6 servers with 1/2/4/8 chips."
               "\npaper: economies of scale hold from 1 to 2 chips and break "
               "beyond — power density\ngrows faster than performance at 4 "
               "and 8 chips.\n";
  return 0;
}
