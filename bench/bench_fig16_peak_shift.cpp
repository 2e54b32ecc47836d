// Fig.16: chronological shift of the utilisation spot where servers reach
// peak EE. Paper: before 2010 everything peaks at 100%; by 2016 only 3 of 18
// servers do (10 peak at 80%, 5 at 70%); across 477 servers there are 478
// spots (one 2011 machine ties at 80% and 90%).
#include "common.h"

#include "analysis/peak_shift.h"

int main() {
  using namespace epserve;
  bench::print_header("Fig.16 — shifting of peak-EE utilisation",
                      "per-year distribution of peak-EE spots");

  TextTable table;
  table.columns({"year", "servers", "@60%", "@70%", "@80%", "@90%", "@100%"});
  for (const auto& row : analysis::peak_spot_by_year(bench::population())) {
    const auto count = [&](double u) {
      const auto it = row.spots.find(u);
      return it == row.spots.end() ? 0 : static_cast<int>(it->second);
    };
    table.row({std::to_string(row.year), std::to_string(row.servers),
               std::to_string(count(0.6)), std::to_string(count(0.7)),
               std::to_string(count(0.8)), std::to_string(count(0.9)),
               std::to_string(count(1.0))});
  }
  std::cout << table.render();

  const auto shares = analysis::global_spot_shares(bench::population());
  const auto share = [&](double u) {
    const auto it = shares.find(u);
    return it == shares.end() ? 0.0 : it->second;
  };
  std::cout << "\nglobal spot shares (of 477 servers):\n"
            << "  @100%: " << bench::vs_paper(format_percent(share(1.0)), "69.25%") << "\n"
            << "  @90% : " << bench::vs_paper(format_percent(share(0.9)), "3.35%") << "\n"
            << "  @80% : " << bench::vs_paper(format_percent(share(0.8)), "11.72%") << "\n"
            << "  @70% : " << bench::vs_paper(format_percent(share(0.7)), "13.81%") << "\n"
            << "  @60% : " << bench::vs_paper(format_percent(share(0.6)), "1.88%") << "\n"
            << "total spots: "
            << bench::vs_paper(
                   std::to_string(analysis::total_spots(bench::population())),
                   "478")
            << "\nshare @100%, 2004-2012: "
            << bench::vs_paper(
                   format_percent(analysis::share_peaking_at_full_load(
                       bench::context(), 2004, 2012)),
                   "75.71%")
            << "\nshare @100%, 2013-2016: "
            << bench::vs_paper(
                   format_percent(analysis::share_peaking_at_full_load(
                       bench::context(), 2013, 2016)),
                   "23.21%")
            << "\n";
  return 0;
}
