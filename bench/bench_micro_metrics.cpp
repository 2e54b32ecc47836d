// Microbenchmarks of the metric kernels (google-benchmark): EP (Eq.1),
// overall score, envelope extraction, and the full population analysis.
#include <benchmark/benchmark.h>

#include "analysis/context.h"
#include "analysis/envelope.h"
#include "analysis/report.h"
#include "dataset/generator.h"
#include "metrics/curve_models.h"
#include "metrics/efficiency.h"
#include "metrics/proportionality.h"

namespace {

using namespace epserve;

const metrics::PowerCurve& sample_curve() {
  static const metrics::PowerCurve curve = [] {
    auto model = metrics::TwoSegmentPowerModel::solve(0.85, 0.25, 0.8);
    return metrics::to_power_curve(model.value(), 300.0, 2e6);
  }();
  return curve;
}

const dataset::ResultRepository& population() {
  static const dataset::ResultRepository repo = [] {
    auto result = dataset::generate_population();
    return dataset::ResultRepository(std::move(result).take());
  }();
  return repo;
}

const analysis::AnalysisContext& context() {
  static const analysis::AnalysisContext ctx(population());
  return ctx;
}

void BM_EnergyProportionality(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        metrics::energy_proportionality(sample_curve()));
  }
}
BENCHMARK(BM_EnergyProportionality);

void BM_OverallScore(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::overall_score(sample_curve()));
  }
}
BENCHMARK(BM_OverallScore);

void BM_PeakEe(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::peak_ee(sample_curve()));
  }
}
BENCHMARK(BM_PeakEe);

void BM_IdealIntersections(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::ideal_intersections(sample_curve()));
  }
}
BENCHMARK(BM_IdealIntersections);

void BM_TwoSegmentSolve(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        metrics::TwoSegmentPowerModel::solve(0.9, 0.2, 0.7));
  }
}
BENCHMARK(BM_TwoSegmentSolve);

void BM_PopulationGeneration(benchmark::State& state) {
  for (auto _ : state) {
    auto result = dataset::generate_population();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PopulationGeneration)->Unit(benchmark::kMillisecond);

void BM_PowerEnvelope(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::power_envelope(context()));
  }
}
BENCHMARK(BM_PowerEnvelope)->Unit(benchmark::kMicrosecond);

void BM_FullReport(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::build_full_report(population()));
  }
}
BENCHMARK(BM_FullReport)->Unit(benchmark::kMillisecond);

}  // namespace
