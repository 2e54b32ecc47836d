// epserve — energy-proportionality analysis toolkit for servers.
//
// Reproduction of "Energy Proportional Servers: Where Are We in 2016?"
// (Jiang, Wang, Ou, Luo, Shi — ICDCS 2017). This façade is the one-include
// entry point: generate the calibrated population, run the paper's full
// analysis, and access the testbed / placement experiments.
//
//   #include "core/epserve.h"
//   auto study = epserve::run_population_study();
//   std::cout << epserve::analysis::render_report(study.value().report);
//
// Layering (each usable on its own):
//   util -> stats -> metrics -> power -> specpower -> dataset
//        -> {analysis, testbed, cluster} -> core
// The population lives in a dataset::ResultRepository, a record store; every
// analysis queries it through an AnalysisContext. Inside analysis, the
// report stack is itself layered: the individual analysis functions
// (trends, idle, async, ..., each f(const AnalysisContext&)) ->
// AnalysisContext (shared memoized per-record metrics and groupings,
// analysis/context.h) -> AnalysisPass registry (named, selectable report
// sections, analysis/pass.h) -> FullReport builders/renderers
// (analysis/report.h, report_json.h).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/pass.h"
#include "analysis/report.h"
#include "cluster/placement.h"
#include "cluster/working_region.h"
#include "dataset/generator.h"
#include "dataset/io.h"
#include "dataset/repository.h"
#include "metrics/efficiency.h"
#include "metrics/proportionality.h"
#include "testbed/experiment.h"
#include "util/result.h"

namespace epserve {

/// Library version string (semver).
std::string version();

/// A generated population (its record store) together with its full analysis
/// report.
struct PopulationStudy {
  std::shared_ptr<dataset::ResultRepository> repository;
  analysis::FullReport report;
};

/// Pass selection / scheduling knobs for run_population_study.
struct StudyOptions {
  /// Registry names of the passes to run (analysis::pass_names()); empty =
  /// every pass. Unknown names fail the study with kNotFound.
  std::vector<std::string> passes;
  /// Thread count for the pass dispatch (same semantics as
  /// analysis::build_full_report: 0 = auto, 1 = inline).
  int threads = 0;
};

/// Generates the calibrated 477-server population and runs the selected
/// analysis passes (default: every §III/§IV pass) on it.
Result<PopulationStudy> run_population_study(
    const dataset::GeneratorConfig& config = {},
    const StudyOptions& options = {});

/// Runs the paper's §V testbed sweep (Fig.18-21 protocol) on Table II
/// server `server_id` (1..4).
Result<testbed::SweepResult> run_testbed_sweep(int server_id);

}  // namespace epserve
