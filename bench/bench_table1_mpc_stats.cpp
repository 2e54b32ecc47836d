// Table I: memory-per-core statistics of the published servers — the seven
// ratios with more than 10 results cover 430 of the 477 servers.
#include "common.h"

#include "analysis/memory_analysis.h"

int main() {
  using namespace epserve;
  bench::print_header("Table I — memory per core statistics",
                      "ratios with more than 10 published results");

  const std::map<double, int> paper = {{0.67, 15}, {1.0, 153}, {1.33, 32},
                                       {1.5, 68},  {1.78, 13}, {2.0, 123},
                                       {4.0, 26}};

  std::size_t covered = 0;
  TextTable table;
  table.columns({"GB/core", "count", "paper"});
  for (const auto& row : analysis::mpc_distribution(bench::context(), 11)) {
    const auto it = paper.find(row.gb_per_core);
    table.row({format_fixed(row.gb_per_core, 2), std::to_string(row.count),
               it != paper.end() ? std::to_string(it->second) : "-"});
    covered += row.count;
  }
  std::cout << table.render();
  std::cout << "\nservers covered by Table I ratios: "
            << bench::vs_paper(std::to_string(covered), "430 of 477") << "\n";

  std::cout << "\nlong tail (10 or fewer results per ratio):\n";
  TextTable tail;
  tail.columns({"GB/core", "count"});
  for (const auto& row : analysis::mpc_distribution(bench::context(), 0)) {
    if (row.count <= 10) {
      tail.row({format_fixed(row.gb_per_core, 2), std::to_string(row.count)});
    }
  }
  std::cout << tail.render();
  return 0;
}
