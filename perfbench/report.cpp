// The `report` workload (the `epserve_cli report` path: run_population_study
// plus text and JSON render over consecutive seeds) and the analysis-layer
// probes.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/context.h"
#include "analysis/pass.h"
#include "core/epserve.h"
#include "util/parallel.h"
#include "util/telemetry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace epserve;

constexpr int kCheckEvery = 97;     // seeds between 1-vs-N thread checks
constexpr int kOverheadBlock = 50;  // seeds per telemetry on/off block
constexpr int kWarmupReports = 25;  // the set-up phase, not measured
constexpr std::size_t kWindowReports = 500;  // reports per window

struct Rendered {
  std::string text;
  std::string json;
};

/// One report as `epserve_cli report` and `report --json` produce it.
bool report_for(std::uint64_t seed, int threads, Rendered& out) {
  dataset::GeneratorConfig config;
  config.seed = seed;
  StudyOptions options;
  options.threads = threads;
  auto study = run_population_study(config, options);
  if (!study.ok()) {
    std::fprintf(stderr, "perfbench: report seed %llu: %s\n",
                 static_cast<unsigned long long>(seed),
                 study.error().message.c_str());
    return false;
  }
  const auto& passes = analysis::all_passes();
  out.text = analysis::render_passes_text(study.value().report, passes);
  out.json = analysis::render_passes_json(study.value().report, passes);
  return true;
}

}  // namespace

void run_report(const Options& options, Outcome& outcome) {
  Rendered rendered;
  std::uint64_t seed = options.seed;

  if (options.trace) {
    // Tracing overhead: alternating blocks of seeds, telemetry off and on.
    std::vector<double> off_ms;
    std::vector<double> on_ms;
    const std::uint64_t start = now_ns();
    while (seconds_since(start) < 0.3 * options.seconds || on_ms.empty()) {
      for (const bool on : {false, true}) {
        telemetry::reset();
        telemetry::set_enabled(on);
        for (int i = 0; i < kOverheadBlock; ++i) {
          const std::uint64_t t0 = now_ns();
          ++outcome.attempted;
          if (!report_for(seed++, 1, rendered)) ++outcome.failed;
          (on ? on_ms : off_ms).push_back(seconds_since(t0) * 1e3);
        }
      }
    }
    telemetry::set_enabled(false);
    outcome.add("trace.overhead_pct",
                100.0 * (median(on_ms) / median(off_ms) - 1.0), "%");
    std::sort(off_ms.begin(), off_ms.end());
    outcome.add("op.tail_ms",
                percentile_sorted(off_ms, tail_percentile_for(off_ms.size())),
                "ms");
    return;
  }

  // Setup: the first reports of the process, which pay its one-time
  // initialisation and warm its caches; the median of them.
  std::vector<double> setup_s;
  for (int i = 0; i < kWarmupReports; ++i) {
    const std::uint64_t t0 = now_ns();
    ++outcome.attempted;
    if (!report_for(seed++, 1, rendered)) {
      ++outcome.failed;
      outcome.fail_check("warm-up report failed");
      return;
    }
    setup_s.push_back(seconds_since(t0));
  }

  // Measurement: one report per consecutive seed until the budget is spent;
  // every kCheckEvery-th seed is re-rendered at N study threads.
  const int threads = static_cast<int>(resolve_thread_count(0));
  std::vector<double> report_ms;
  Rendered parallel;
  const std::uint64_t start = now_ns();
  while (seconds_since(start) < options.seconds) {
    const std::uint64_t t0 = now_ns();
    ++outcome.attempted;
    if (!report_for(seed, 1, rendered)) {
      ++outcome.failed;
      outcome.fail_check("report failed");
      return;
    }
    report_ms.push_back(seconds_since(t0) * 1e3);
    if (report_ms.size() % kCheckEvery == 1) {
      ++outcome.attempted;
      if (!report_for(seed, threads, parallel)) {
        ++outcome.failed;
        outcome.fail_check("parallel report failed");
      } else if (parallel.text != rendered.text ||
                 parallel.json != rendered.json) {
        outcome.fail_check("report differs between 1 and " +
                           std::to_string(threads) + " study threads");
      }
    }
    ++seed;
  }

  // Each window's median, averaged over the windows.
  std::vector<double> p50s;
  const std::size_t windows =
      std::max<std::size_t>(report_ms.size() / kWindowReports, 1);
  for (std::vector<double>& window : split_even(report_ms, windows)) {
    std::sort(window.begin(), window.end());
    p50s.push_back(percentile_sorted(window, 50.0));
  }
  outcome.add("setup_s", median(setup_s), "s");
  outcome.add("latency_p50_ms", trimmed_mean(p50s), "ms");
  outcome.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void probe_analysis_layers(std::uint64_t seed, Tracer& tracer,
                           Outcome& outcome) {
  const Tracer::Scope layer(tracer, "probe.analysis");
  constexpr int kReps = 9;
  dataset::GeneratorConfig config;
  config.seed = seed;
  config.threads = 1;

  std::shared_ptr<dataset::ResultRepository> repo;
  for (int rep = 0; rep < kReps; ++rep) {
    const Tracer::Scope span(tracer, "dataset.population");
    auto population = dataset::generate_population(config);
    if (!population.ok()) {
      outcome.fail_check("analysis probe: population: " +
                         population.error().message);
      return;
    }
    repo = std::make_shared<dataset::ResultRepository>(
        std::move(population).take());
  }
  outcome.add("dataset.population_ms", tracer.median_ms("dataset.population"),
              "ms");

  // Each pass alone, on a fresh context (it pays for the caches it uses).
  for (const auto* pass : analysis::all_passes()) {
    const std::string span_name = "analysis.pass." + std::string(pass->name());
    for (int rep = 0; rep < kReps; ++rep) {
      const analysis::AnalysisContext ctx(*repo);
      const Tracer::Scope span(tracer, span_name);
      (void)analysis::run_passes(ctx, {pass}, 1);
    }
    outcome.add(span_name + "_ms", tracer.median_ms(span_name), "ms");
  }

  // Every pass on one shared context, then both renders.
  const auto& passes = analysis::all_passes();
  analysis::FullReport report;
  for (int rep = 0; rep < kReps; ++rep) {
    const analysis::AnalysisContext ctx(*repo);
    const Tracer::Scope span(tracer, "analysis.run_passes");
    report = analysis::run_passes(ctx, passes, 1);
  }
  for (int rep = 0; rep < kReps; ++rep) {
    const Tracer::Scope span(tracer, "analysis.render_text");
    (void)analysis::render_passes_text(report, passes);
  }
  for (int rep = 0; rep < kReps; ++rep) {
    const Tracer::Scope span(tracer, "analysis.render_json");
    (void)analysis::render_passes_json(report, passes);
  }
  outcome.add("analysis.run_passes_ms",
              tracer.median_ms("analysis.run_passes"), "ms");
  outcome.add("analysis.render_text_ms",
              tracer.median_ms("analysis.render_text"), "ms");
  outcome.add("analysis.render_json_ms",
              tracer.median_ms("analysis.render_json"), "ms");
}

}  // namespace perfbench
