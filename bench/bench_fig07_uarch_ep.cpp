// Fig.7: mean EP per microarchitecture codename (Intel and AMD subdomains),
// sorted descending — Sandy Bridge EN leads at 0.90; Netburst trails at 0.29.
#include "common.h"

#include "analysis/uarch_analysis.h"

int main() {
  using namespace epserve;
  bench::print_header("Fig.7 — EP by microarchitecture codename",
                      "per-codename mean EP, all 477 servers");

  // Paper Fig.7 reference values per codename.
  const std::map<std::string, double> paper = {
      {"Sandy Bridge EN", 0.90}, {"Broadwell", 0.87}, {"Sandy Bridge EP", 0.84},
      {"Haswell", 0.81},         {"Skylake", 0.76},   {"Ivy Bridge EP", 0.75},
      {"Sandy Bridge", 0.75},    {"Lynnfield", 0.74}, {"Ivy Bridge", 0.71},
      {"Abu Dhabi", 0.68},       {"Westmere-EP", 0.65}, {"Interlagos", 0.65},
      {"Seoul", 0.62},           {"Nehalem EP", 0.59},  {"Westmere", 0.54},
      {"Nehalem EX", 0.44},      {"Yorkfield", 0.43},   {"Penryn", 0.35},
      {"Core", 0.30},            {"Netburst", 0.29}};

  TextTable table;
  table.columns({"codename", "n", "mean EP", "paper"});
  for (const auto& row : analysis::codename_ep_ranking(bench::context())) {
    const auto it = paper.find(row.codename);
    table.row({row.codename, std::to_string(row.count),
               format_fixed(row.mean_ep, 2),
               it != paper.end() ? format_fixed(it->second, 2) : "-"});
  }
  std::cout << table.render();
  std::cout << "\npaper: newer lithography usually lifts EP, but Ivy Bridge "
               "(22nm) sits below\nSandy Bridge (32nm) — finer process alone "
               "does not guarantee proportionality.\n";
  return 0;
}
