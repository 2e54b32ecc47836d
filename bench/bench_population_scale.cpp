// Million-server pipeline gate (ROADMAP item 1): scaled generation
// (2007-2023 cohorts) straight into a Fleet's columns -> radix grouping of
// the population's hw_year cohort column -> one whole-day placement
// simulation, end to end, at 1,000,000 servers on one machine. The Fleet
// holds only what placement reads, so the year column is streamed from the
// same generator config, one record chunk at a time.
//
// Self-verifying:
//   - column compare: Fleet::generate of a 5000-server reference population
//     must hold exactly what Fleet::build() of the same records holds, in
//     every column (ids, sheets, the per-server and grid columns, the
//     aggregates); the full-size run then reuses the same code path,
//   - the radix GroupIndex build must be >= 2x the comparison sort at 1M
//     rows on the hw_year cohort column,
//   - peak RSS must stay under a fixed ceiling: the pipeline holds the
//     fleet's columns, the year column and one record chunk of the year
//     stream, never a full vector<ServerRecord> of the population.
// Exits 1 on any violation. Prints one BENCH_JSON line for run_benches.sh.
#include <sys/resource.h>

#include <chrono>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

#include "cluster/day_simulation.h"
#include "cluster/fleet.h"
#include "cluster/placement.h"
#include "dataset/generator.h"
#include "dataset/group_index.h"
#include "exp/gate.h"
#include "metrics/load_level.h"
#include "metrics/power_curve.h"

namespace {

using namespace epserve;

constexpr std::uint64_t kScaleServers = 1'000'000;
constexpr std::uint64_t kReferenceServers = 5'000;
constexpr std::size_t kChunkRows = 65'536;
/// Generous vs the streamed footprint (~1 GB of columns + tables at 1M),
/// tight vs pipelines that materialize row-oriented copies of the
/// population on the side.
constexpr long kPeakRssCeilingMb = 4'096;

/// The first value in which two fleets differ, as "column[index]", or an
/// empty string when they hold the same bits everywhere.
std::string first_difference(const cluster::Fleet& a, const cluster::Fleet& b) {
  if (a.size() != b.size()) return "size";
  const auto differs = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) != std::bit_cast<std::uint64_t>(y);
  };
  const auto at = [](const char* column, std::size_t i) {
    return std::string(column).append("[").append(std::to_string(i)).append(
        "]");
  };
  const std::pair<const char*, std::span<const double> (cluster::Fleet::*)()
                                   const>
      columns[] = {{"peak_ops", &cluster::Fleet::peak_ops},
                   {"peak_watts", &cluster::Fleet::peak_watts},
                   {"idle_watts", &cluster::Fleet::idle_watts},
                   {"ep", &cluster::Fleet::ep},
                   {"overall_score", &cluster::Fleet::overall_score},
                   {"peak_ee_value", &cluster::Fleet::peak_ee_value},
                   {"peak_ee_utilization",
                    &cluster::Fleet::peak_ee_utilization},
                   {"ee_at_full", &cluster::Fleet::ee_at_full}};
  for (const auto& [name, column] : columns) {
    const auto x = (a.*column)();
    const auto y = (b.*column)();
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (differs(x[i], y[i])) return at(name, i);
    }
  }
  const auto bins = static_cast<std::size_t>(
      metrics::kernels::FleetGridView::kRowBins);
  const auto ga = a.grid_view();
  const auto gb = b.grid_view();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.server_id(i) != b.server_id(i)) return at("server_id", i);
    if (differs(ga.inv_peak[i], gb.inv_peak[i])) return at("grid_inv_peak", i);
    for (std::size_t k = i * bins; k < (i + 1) * bins; ++k) {
      if (differs(ga.w0[k], gb.w0[k])) return at("grid_w0", i);
      if (differs(ga.m[k], gb.m[k])) return at("grid_m", i);
    }
    const metrics::PowerCurve ca = a.curve(i);
    const metrics::PowerCurve cb = b.curve(i);
    bool same = !differs(ca.idle_watts(), cb.idle_watts());
    for (std::size_t level = 0; level < metrics::kNumLoadLevels; ++level) {
      same = same && !differs(ca.watts_at_level(level), cb.watts_at_level(level)) &&
             !differs(ca.ops_at_level(level), cb.ops_at_level(level));
    }
    if (!same) return at("curve", i);
  }
  if (differs(a.capacity_ops(), b.capacity_ops())) return "capacity_ops";
  if (differs(a.total_idle_watts(), b.total_idle_watts())) {
    return "total_idle_watts";
  }
  return "";
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

long peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024;  // ru_maxrss is KiB on Linux
}

}  // namespace

int main() {
  bench::print_header(
      "population scale — 1M-server streaming pipeline",
      "generate into the fleet -> radix group -> day sim");
  exp::Gate gate("bench_population_scale");

  // --- reference-size column compare: generated == built from records -----
  dataset::ScaledConfig reference_config;
  reference_config.servers = kReferenceServers;
  auto reference_records =
      dataset::generate_scaled_population(reference_config);
  if (!reference_records.ok()) {
    std::fprintf(stderr, "FAIL: reference generation: %s\n",
                 reference_records.error().message.c_str());
    return 1;
  }
  const auto monolithic = cluster::Fleet::build(reference_records.value());
  const auto reference_generated = cluster::Fleet::generate(reference_config);
  if (!monolithic.ok() || !reference_generated.ok()) {
    std::fprintf(stderr, "FAIL: reference fleet build\n");
    return 1;
  }
  const std::string difference =
      first_difference(reference_generated.value(), monolithic.value());
  const bool columns_match = difference.empty();
  gate.require("columns: generated vs built from records (5000 servers)",
               columns_match,
               columns_match
                   ? std::string("every column identical")
                   : std::string("first difference at ").append(difference));

  // --- full-scale generated fleet --------------------------------------------
  dataset::ScaledConfig scale_config;
  scale_config.servers = kScaleServers;
  const auto build_start = std::chrono::steady_clock::now();
  const auto fleet = cluster::Fleet::generate(scale_config);
  const double build_s = seconds_since(build_start);
  if (!fleet.ok()) {
    std::fprintf(stderr, "FAIL: scale fleet build: %s\n",
                 fleet.error().message.c_str());
    return 1;
  }
  const double rows_per_s = static_cast<double>(kScaleServers) / build_s;

  // --- radix vs comparison grouping at 1M rows ------------------------------
  std::vector<std::int32_t> year_keys;
  year_keys.reserve(kScaleServers);
  const auto streamed = dataset::generate_population_chunked(
      scale_config, kChunkRows,
      [&](std::span<const dataset::ServerRecord> chunk, std::uint64_t) {
        for (const auto& record : chunk) year_keys.push_back(record.hw_year);
      });
  if (!streamed.ok()) {
    std::fprintf(stderr, "FAIL: year column stream: %s\n",
                 streamed.error().message.c_str());
    return 1;
  }
  constexpr int kGroupIters = 5;
  std::size_t radix_groups = 0;
  const auto radix_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kGroupIters; ++i) {
    radix_groups = dataset::GroupIndex::over(
                       year_keys, dataset::GroupIndex::Strategy::kRadix)
                       .group_count();
  }
  const double radix_ms = 1000.0 * seconds_since(radix_start) / kGroupIters;
  std::size_t comparison_groups = 0;
  const auto comparison_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kGroupIters; ++i) {
    comparison_groups =
        dataset::GroupIndex::over(year_keys,
                                  dataset::GroupIndex::Strategy::kComparison)
            .group_count();
  }
  const double comparison_ms =
      1000.0 * seconds_since(comparison_start) / kGroupIters;
  const double radix_speedup = comparison_ms / radix_ms;
  gate.require("radix vs comparison group counts",
               radix_groups == comparison_groups,
               std::to_string(radix_groups) + " vs " +
                   std::to_string(comparison_groups) + " groups");
  gate.floor("radix grouping speedup (x)", radix_speedup, 2.0);

  // --- one whole-day placement run on the million-server fleet --------------
  const auto trace = cluster::make_trace("diurnal").value();
  const cluster::PackToFullPolicy policy;
  const auto day_start = std::chrono::steady_clock::now();
  const auto day = cluster::simulate_day(policy, fleet.value(), trace);
  const double day_s = seconds_since(day_start);
  if (!day.ok()) {
    std::fprintf(stderr, "FAIL: day simulation: %s\n",
                 day.error().message.c_str());
    return 1;
  }

  const long rss_mb = peak_rss_mb();
  gate.ceiling("peak RSS (MB)", static_cast<double>(rss_mb),
               static_cast<double>(kPeakRssCeilingMb));

  TextTable table;
  table.columns({"stage", "value"});
  table.row({"generate into the fleet's columns",
             format_fixed(build_s, 2) + " s (" +
                 format_fixed(rows_per_s / 1000.0, 0) + "k rows/s)"});
  table.row({"radix year grouping (1M rows)",
             format_fixed(radix_ms, 2) + " ms (" +
                 format_fixed(radix_speedup, 2) + "x vs comparison " +
                 format_fixed(comparison_ms, 2) + " ms)"});
  table.row({"day sim, pack-to-full",
             format_fixed(day_s, 2) + " s, " +
                 format_fixed(day.value().energy_kwh, 0) + " kWh/day"});
  table.row({"columns generated == built", columns_match ? "yes" : "NO"});
  table.row({"peak RSS", std::to_string(rss_mb) + " MB (ceiling " +
                             std::to_string(kPeakRssCeilingMb) + " MB)"});
  std::cout << table.render();

  std::printf(
      "BENCH_JSON {\"servers\": %llu, \"build_s\": %.3f, \"rows_per_s\": "
      "%.0f, \"radix_ms\": %.3f, \"comparison_ms\": %.3f, \"radix_speedup\": "
      "%.2f, \"day_s\": %.3f, \"day_kwh\": %.1f, \"columns_match\": %d, "
      "\"peak_rss_mb\": %ld}\n",
      static_cast<unsigned long long>(kScaleServers), build_s, rows_per_s,
      radix_ms, comparison_ms, radix_speedup, day_s, day.value().energy_kwh,
      columns_match ? 1 : 0, rss_mb);
  return gate.finish();
}
