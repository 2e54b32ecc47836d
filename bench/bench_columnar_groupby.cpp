// Map-of-views vs span-based GroupIndex on the group-by kernel that underlies
// the grouping-heavy passes: build every grouping the report uses (hw year,
// pub year, family, codename, nodes, single-node chips, MPC) and extract the
// per-group mean EP and mean EE score.
//
//   map cold       — the reference by_*() (tests/analysis_reference.h)
//                    rebuilds each std::map<K, vector<const ServerRecord*>>
//                    per iteration; ep_values/score_values re-derive each
//                    metric through per-record indirection.
//   map warm       — the six maps are built once before timing (the MPC map
//                    is still rebuilt per iteration), but extraction still
//                    chases pointers and re-derives per call.
//   columnar       — cached snapshot + indexes (how every pass consumes the
//                    engine); per iteration only the contiguous gathers and
//                    means remain.
//   columnar build — ColumnarSnapshot::build (including the derived bundle)
//                    plus all seven GroupIndex permutation sorts, rebuilt per
//                    iteration. This is the engine's one-time cost: the
//                    context builds it once per repository, so it amortizes
//                    after the first pass. Reported, not gated.
//
// Group (count, mean EP, mean score) triples are digested in group order and
// byte-compared across all four paths. A second table times the full
// grouping-heavy pass bundle (trends, rankings, scale, MPC, re-keying) — the
// map-based reference (tests/analysis_reference.h) vs the context analyses —
// where shared per-group sorting for medians dilutes the ratio. Exits 1 on
// any digest mismatch, or if the columnar engine is below the 2x speedup
// target against the map path measured cold or warm, or if the pass bundle
// is below 2x.
#include "common.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis_reference.h"
#include "analysis/context.h"
#include "dataset/columnar.h"
#include "dataset/group_index.h"

namespace {

using namespace epserve;

/// Flat bitwise digest of every number a path produced.
struct Digest {
  std::vector<double> values;

  void add(double v) { values.push_back(v); }
  void add(std::size_t v) { values.push_back(static_cast<double>(v)); }
  void add(int v) { values.push_back(static_cast<double>(v)); }
  void add(const stats::Summary& s) {
    add(s.count);
    add(s.mean);
    add(s.median);
    add(s.min);
    add(s.max);
    add(s.stddev);
  }

  bool operator==(const Digest& other) const = default;
};

// --- group-by kernel, map-of-views side -------------------------------------

template <typename Groups>
void digest_map_groups(Digest& d, const Groups& groups) {
  for (const auto& [key, view] : groups) {
    d.add(view.size());
    d.add(stats::mean(analysis::reference::ep_values(view)));
    d.add(stats::mean(analysis::reference::score_values(view)));
  }
}

/// Six of the seven groupings as maps; the warm path builds them once.
struct MapGroups {
  std::map<int, dataset::RecordView> hw_year, pub_year;
  std::map<power::UarchFamily, dataset::RecordView> family;
  std::map<std::string, dataset::RecordView> codename;
  std::map<int, dataset::RecordView> nodes, chips;

  static MapGroups of(const dataset::ResultRepository& repo) {
    namespace reference = analysis::reference;
    return {reference::by_year(repo, dataset::YearKey::kHardwareAvailability),
            reference::by_year(repo, dataset::YearKey::kPublished),
            reference::by_family(repo),
            reference::by_codename(repo),
            reference::by_nodes(repo),
            reference::single_node_by_chips(repo)};
  }
};

/// Both map paths rebuild the MPC grouping on every call.
Digest kernel_map(const MapGroups& maps,
                  const dataset::ResultRepository& repo) {
  Digest d;
  d.values.reserve(512);
  digest_map_groups(d, maps.hw_year);
  digest_map_groups(d, maps.pub_year);
  digest_map_groups(d, maps.family);
  digest_map_groups(d, maps.codename);
  digest_map_groups(d, maps.nodes);
  digest_map_groups(d, maps.chips);
  digest_map_groups(d, analysis::reference::by_memory_per_core(repo));
  return d;
}

// --- group-by kernel, columnar side -----------------------------------------

void digest_index_groups(Digest& d, const dataset::ColumnarSnapshot& snap,
                         const dataset::GroupIndex& groups) {
  for (std::size_t g = 0; g < groups.group_count(); ++g) {
    const auto members = groups.members(g);
    d.add(members.size());
    d.add(stats::mean(analysis::AnalysisContext::gather(snap.ep(), members)));
    d.add(stats::mean(
        analysis::AnalysisContext::gather(snap.overall_score(), members)));
  }
}

Digest kernel_columnar_cold(const dataset::ResultRepository& repo) {
  Digest d;
  d.values.reserve(512);
  const auto snap = dataset::ColumnarSnapshot::build(repo.records());
  std::vector<std::uint8_t> single_node(snap.size());
  for (std::size_t i = 0; i < snap.size(); ++i) {
    single_node[i] = snap.nodes()[i] == 1 ? 1 : 0;
  }
  digest_index_groups(d, snap, dataset::GroupIndex::over(snap.hw_year()));
  digest_index_groups(d, snap, dataset::GroupIndex::over(snap.pub_year()));
  digest_index_groups(d, snap, dataset::GroupIndex::over(snap.family_id()));
  digest_index_groups(d, snap, dataset::GroupIndex::over(snap.codename_id()));
  digest_index_groups(d, snap, dataset::GroupIndex::over(snap.nodes()));
  digest_index_groups(
      d, snap, dataset::GroupIndex::over_masked(snap.chips(), single_node));
  digest_index_groups(d, snap, dataset::GroupIndex::over(snap.mpc_centi()));
  return d;
}

Digest kernel_columnar_warm(const analysis::AnalysisContext& ctx) {
  Digest d;
  d.values.reserve(512);
  const auto& snap = ctx.columnar();
  digest_index_groups(
      d, snap, ctx.groups_by_year(dataset::YearKey::kHardwareAvailability));
  digest_index_groups(d, snap,
                      ctx.groups_by_year(dataset::YearKey::kPublished));
  digest_index_groups(d, snap, ctx.groups_by_family());
  digest_index_groups(d, snap, ctx.groups_by_codename());
  digest_index_groups(d, snap, ctx.groups_by_nodes());
  digest_index_groups(d, snap, ctx.groups_single_node_by_chips());
  digest_index_groups(d, snap, ctx.groups_by_mpc());
  return d;
}

// --- full grouping-heavy pass bundle ----------------------------------------

/// Unqualified calls resolve by argument type: an AnalysisContext runs the
/// context analyses, a ResultRepository the map-based reference.
template <typename Source>
Digest run_grouping_passes(const Source& source) {
  using namespace analysis;
  using namespace analysis::reference;
  Digest d;
  d.values.reserve(2048);
  for (const auto& row :
       year_trends(source, dataset::YearKey::kHardwareAvailability)) {
    d.add(row.year);
    d.add(row.count);
    d.add(row.ep);
    d.add(row.score);
    d.add(row.peak_ee);
  }
  for (const auto& row : year_trends(source, dataset::YearKey::kPublished)) {
    d.add(row.year);
    d.add(row.count);
    d.add(row.ep);
    d.add(row.score);
    d.add(row.peak_ee);
  }
  for (const auto& row : codename_ep_ranking(source)) {
    d.add(row.count);
    d.add(row.mean_ep);
    d.add(row.median_ep);
  }
  for (const auto& row : family_counts(source)) {
    d.add(static_cast<int>(row.family));
    d.add(row.count);
  }
  for (const auto& row : ep_ee_by_nodes(source)) {
    d.add(row.key);
    d.add(row.count);
    d.add(row.ep);
    d.add(row.score);
  }
  for (const auto& row : ep_ee_by_chips(source)) {
    d.add(row.key);
    d.add(row.count);
    d.add(row.ep);
    d.add(row.score);
  }
  for (const auto& row : mpc_distribution(source)) {
    d.add(row.gb_per_core);
    d.add(row.count);
    d.add(row.mean_ep);
    d.add(row.mean_score);
  }
  const auto two_chip = two_chip_vs_all(source);
  d.add(two_chip.avg_ep_gain);
  d.add(two_chip.avg_ee_gain);
  d.add(two_chip.median_ep_gain);
  d.add(two_chip.median_ee_gain);
  const auto rekeying = rekeying_analysis(source);
  d.add(rekeying.mismatched_results);
  d.add(rekeying.mismatched_share);
  for (const auto& row : rekeying.rows) {
    d.add(row.year);
    d.add(row.hw_count);
    d.add(row.pub_count);
    d.add(row.avg_ep_delta);
    d.add(row.med_ep_delta);
    d.add(row.avg_ee_delta);
    d.add(row.med_ee_delta);
  }
  return d;
}

template <typename F>
double time_iterations(int iterations, F&& body) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  bench::print_header(
      "columnar group-by — map-of-views vs span-based GroupIndex",
      "seven groupings + mean EP/EE extraction, identical outputs");
  const auto& repo = bench::population();
  const analysis::AnalysisContext ctx(repo);
  constexpr int kKernelIters = 50;
  constexpr int kBundleIters = 20;

  // Build the warm maps and the context caches once so the warm loops
  // measure steady state.
  const MapGroups warm_maps = MapGroups::of(repo);
  Digest map_warm_digest = kernel_map(warm_maps, repo);
  Digest columnar_warm_digest = kernel_columnar_warm(ctx);

  Digest map_cold_digest;
  const double map_cold_s = time_iterations(kKernelIters, [&] {
    map_cold_digest = kernel_map(MapGroups::of(repo), repo);
  });
  const double map_warm_s = time_iterations(
      kKernelIters, [&] { map_warm_digest = kernel_map(warm_maps, repo); });
  Digest columnar_cold_digest;
  const double columnar_cold_s = time_iterations(
      kKernelIters, [&] { columnar_cold_digest = kernel_columnar_cold(repo); });
  const double columnar_warm_s = time_iterations(
      kKernelIters, [&] { columnar_warm_digest = kernel_columnar_warm(ctx); });

  const double cold_speedup = map_cold_s / columnar_warm_s;
  const double warm_speedup = map_warm_s / columnar_warm_s;
  TextTable kernel_table;
  kernel_table.columns({"group-by kernel", "ms/iteration", "vs columnar"});
  kernel_table.row({"map cold (rebuild + re-derive)",
                    format_fixed(1000.0 * map_cold_s / kKernelIters, 3),
                    format_fixed(cold_speedup, 2) + "x slower"});
  kernel_table.row({"map warm (prebuilt maps, re-derive)",
                    format_fixed(1000.0 * map_warm_s / kKernelIters, 3),
                    format_fixed(warm_speedup, 2) + "x slower"});
  kernel_table.row({"columnar (cached engine)",
                    format_fixed(1000.0 * columnar_warm_s / kKernelIters, 3),
                    "1.00x"});
  kernel_table.row({"columnar build (one-time cost)",
                    format_fixed(1000.0 * columnar_cold_s / kKernelIters, 3),
                    "amortized"});
  std::cout << kernel_table.render();

  // Full grouping-heavy pass bundle: shared per-group sorting (medians,
  // summaries) runs on both paths, so the ratio here is diluted relative to
  // the kernel.
  Digest bundle_map_digest;
  const double bundle_map_s = time_iterations(
      kBundleIters, [&] { bundle_map_digest = run_grouping_passes(repo); });
  Digest bundle_ctx_digest;
  const double bundle_ctx_s = time_iterations(
      kBundleIters, [&] { bundle_ctx_digest = run_grouping_passes(ctx); });
  TextTable bundle_table;
  bundle_table.columns({"full pass bundle", "ms/iteration", "speedup"});
  bundle_table.row({"map reference (map-of-views)",
                    format_fixed(1000.0 * bundle_map_s / kBundleIters, 3),
                    "1.00x"});
  bundle_table.row({"context analyses (columnar)",
                    format_fixed(1000.0 * bundle_ctx_s / kBundleIters, 3),
                    format_fixed(bundle_map_s / bundle_ctx_s, 2) + "x"});
  std::cout << bundle_table.render();

  const auto stats = ctx.cache_stats();
  std::cout << "warm cache stats: columnar=" << stats.columnar_builds
            << " group indexes=" << stats.group_index_builds
            << " (each built exactly once across all warm iterations)\n";
  // Machine-readable summary, harvested by bench/run_benches.sh.
  std::printf(
      "BENCH_JSON {\"kernel_ms_map_cold\": %.4f, \"kernel_ms_map_warm\": "
      "%.4f, \"kernel_ms_columnar\": %.4f, \"kernel_ms_columnar_build\": "
      "%.4f, \"kernel_speedup_vs_map_cold\": %.2f, "
      "\"kernel_speedup_vs_map_warm\": %.2f, \"bundle_ms_map\": %.4f, "
      "\"bundle_ms_columnar\": %.4f, \"bundle_speedup\": %.2f}\n",
      1000.0 * map_cold_s / kKernelIters, 1000.0 * map_warm_s / kKernelIters,
      1000.0 * columnar_warm_s / kKernelIters,
      1000.0 * columnar_cold_s / kKernelIters, cold_speedup, warm_speedup,
      1000.0 * bundle_map_s / kBundleIters, 1000.0 * bundle_ctx_s / kBundleIters,
      bundle_map_s / bundle_ctx_s);

  bool ok = true;
  if (!(columnar_cold_digest == map_cold_digest) ||
      !(columnar_warm_digest == map_cold_digest) ||
      !(map_warm_digest == map_cold_digest)) {
    std::fprintf(stderr, "FAIL: kernel outputs differ between paths\n");
    ok = false;
  }
  if (!(bundle_ctx_digest == bundle_map_digest)) {
    std::fprintf(stderr, "FAIL: pass bundle outputs differ between paths\n");
    ok = false;
  }
  if (stats.columnar_builds != 1 || stats.group_index_builds != 7) {
    std::fprintf(stderr, "FAIL: warm caches rebuilt\n");
    ok = false;
  }
  if (cold_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: speedup vs cold map path %.2fx below 2x target\n",
                 cold_speedup);
    ok = false;
  }
  if (warm_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: speedup vs warm map path %.2fx below 2x target\n",
                 warm_speedup);
    ok = false;
  }
  if (bundle_map_s / bundle_ctx_s < 2.0) {
    std::fprintf(stderr, "FAIL: pass-bundle speedup %.2fx below 2x target\n",
                 bundle_map_s / bundle_ctx_s);
    ok = false;
  }
  return ok ? 0 : 1;
}
