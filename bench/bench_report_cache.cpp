// Cold vs context-backed report builds. The cold path calls the map-based
// reference analyses (tests/analysis_reference.h) directly: every iteration
// re-derives the per-record metrics and regroups the population. The warm
// path runs the pass registry over one shared AnalysisContext, so all of
// that work happens exactly once. Exits 1 unless every cache a full pass run
// uses was built exactly once (the printed CacheStats) and the renders of
// both paths are byte-identical.
#include "common.h"

#include <chrono>

#include "analysis_reference.h"
#include "analysis/context.h"
#include "analysis/pass.h"
#include "analysis/peak_shift.h"
#include "analysis/report.h"
#include "analysis/report_json.h"

namespace {

using namespace epserve;

/// The pre-registry monolithic builder: every analysis straight off the
/// repository's maps, nothing shared, nothing cached.
analysis::FullReport build_cold(const dataset::ResultRepository& repo) {
  namespace reference = analysis::reference;
  analysis::FullReport report;
  report.population = repo.size();
  report.trends_by_hw_year =
      reference::year_trends(repo, dataset::YearKey::kHardwareAvailability);
  report.trends_by_pub_year =
      reference::year_trends(repo, dataset::YearKey::kPublished);
  report.ep_jump_2008_2009 =
      analysis::ep_jump(report.trends_by_hw_year, 2008, 2009).value_or(0.0);
  report.ep_jump_2011_2012 =
      analysis::ep_jump(report.trends_by_hw_year, 2011, 2012).value_or(0.0);
  report.codename_ranking = reference::codename_ep_ranking(repo);
  report.idle = reference::analyze_idle_power(repo);
  report.share_full_load_2004_2012 =
      reference::share_peaking_at_full_load(repo, 2004, 2012);
  report.share_full_load_2013_2016 =
      reference::share_peaking_at_full_load(repo, 2013, 2016);
  report.async = reference::async_top_decile(repo);
  report.two_chip = reference::two_chip_vs_all(repo);
  report.rekeying = reference::rekeying_analysis(repo);
  return report;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  bench::print_header("report cache — cold vs shared AnalysisContext",
                      "same report, per-record metrics derived once");
  const auto& repo = bench::population();
  constexpr int kIterations = 20;

  // Cold: the monolithic builder, every iteration from scratch.
  analysis::FullReport cold_report;
  const auto cold_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) cold_report = build_cold(repo);
  const double cold_s = seconds_since(cold_start);

  // Warm: the pass registry over one shared memoized context.
  analysis::AnalysisContext ctx(repo);
  analysis::FullReport warm_report;
  const auto warm_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    warm_report = analysis::run_passes(ctx, analysis::all_passes());
  }
  const double warm_s = seconds_since(warm_start);

  const auto stats = ctx.cache_stats();
  TextTable table;
  table.columns({"path", "builds of derived metrics", "total s", "ms/report"});
  table.row({"cold (no context)", std::to_string(kIterations) + " (one/iter)",
             format_fixed(cold_s, 3),
             format_fixed(1000.0 * cold_s / kIterations, 2)});
  table.row({"shared context", std::to_string(stats.derived_builds),
             format_fixed(warm_s, 3),
             format_fixed(1000.0 * warm_s / kIterations, 2)});
  std::cout << table.render();
  std::cout << "cache stats over " << kIterations
            << " warm reports: derived=" << stats.derived_builds
            << " columnar=" << stats.columnar_builds
            << " group indexes=" << stats.group_index_builds
            << " deciles=" << stats.decile_builds << " (each exactly once)\n"
            << "speedup: " << format_fixed(cold_s / warm_s, 2) << "x\n";
  // Machine-readable summary, harvested by bench/run_benches.sh.
  std::printf(
      "BENCH_JSON {\"ms_per_report_cold\": %.4f, \"ms_per_report_warm\": "
      "%.4f, \"speedup\": %.2f}\n",
      1000.0 * cold_s / kIterations, 1000.0 * warm_s / kIterations,
      cold_s / warm_s);

  // A full pass run uses the derived bundle, the columnar snapshot, three
  // group indexes (hw year, pub year, codename) and both deciles.
  bool ok = stats.derived_builds == 1 && stats.columnar_builds == 1 &&
            stats.group_index_builds == 3 && stats.decile_builds == 2;
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: cache builds derived=%d columnar=%d group indexes=%d "
                 "deciles=%d, expected 1/1/3/2\n",
                 stats.derived_builds, stats.columnar_builds,
                 stats.group_index_builds, stats.decile_builds);
  }
  const auto& passes = analysis::all_passes();
  if (analysis::render_passes_text(cold_report, passes) !=
      analysis::render_passes_text(warm_report, passes)) {
    std::fprintf(stderr, "FAIL: text render differs between paths\n");
    ok = false;
  }
  if (analysis::render_passes_json(cold_report, passes) !=
      analysis::render_passes_json(warm_report, passes)) {
    std::fprintf(stderr, "FAIL: JSON render differs between paths\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
