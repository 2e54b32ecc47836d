// The paper's claims as checked data (docs/EXPERIMENTS_HARNESS.md, "Claims"):
// each number and shape of the paper this repository reproduces, then what
// the paper cites or proposes and the ablations of this repository's design
// choices, each with the paper's value (or the expectation it tests), a
// measure and the outcome it accepts. `epserve_exp claims` renders them as
// EXPERIMENTS_CLAIMS.md, which ctest byte-compares, so a drifted number
// fails a test instead of going stale.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/context.h"
#include "cluster/fleet.h"
#include "dataset/repository.h"
#include "testbed/experiment.h"
#include "util/result.h"

namespace epserve::exp {

/// Everything a claim measures: the default-seed population and its
/// AnalysisContext, the Table II sweeps of servers 1, 2 and 4, and the §V.C
/// modern fleet (the first 32 single-node servers from 2012 on). The context
/// refers to the population, so the inputs stay where they are built.
struct ClaimInputs {
  dataset::ResultRepository population;
  analysis::AnalysisContext context{population};
  testbed::SweepResult server1;
  testbed::SweepResult server2;
  testbed::SweepResult server4;
  cluster::Fleet modern_fleet;
};

/// Takes no seed: the paper's numbers are calibrated on the default one.
Result<std::unique_ptr<const ClaimInputs>> build_claim_inputs();

/// What a measure prints, at the digits the figure reports, and the verdict
/// of a shape the measure judges itself.
struct Measured {
  std::string text;
  std::optional<bool> verdict;
};

/// The outcome a claim accepts. All but kVerdict judge the numbers the
/// measured text prints, against those the paper text prints.
struct Outcome {
  enum class Kind {
    kPaper,    // each rounds to the paper's, at the paper's precision
    kWithin,   // each lies within `tolerance` of the paper's
    kBand,     // each lies in [lo, hi]
    kRising,   // they rise (`holds` false: the paper's shape fails here)
    kFalling,  // they fall
    kVerdict,  // the measure's verdict equals `holds`
  };
  Kind kind = Kind::kPaper;
  double tolerance = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  bool holds = true;
};

struct Claim {
  std::string id;
  std::string experiment;  // "Fig.3", "Table I", "§V.C", ..., "Ablation"
  std::string quantity;
  // The paper's value, as the paper states it; where the paper prints none,
  // the cited work's or this repository's expectation.
  std::string paper;
  std::function<Measured(const ClaimInputs&)> measure;
  Outcome accepted;
  // Why the accepted outcome is not the paper's value, or whose expectation
  // `paper` is.
  std::string note;
};

/// The registry in paper order: the population analyses (Figs.1-17, Table
/// I, Eq.2, §I, §IV.B), then the testbed (Table II, Figs.18-21, §V, §V.C);
/// then the extensions by section (§I to §VII) and the ablations.
const std::vector<Claim>& paper_claims();

struct ClaimResult {
  const Claim* claim = nullptr;
  Measured measured;
  bool holds = false;
};

struct ClaimsReport {
  std::vector<ClaimResult> results;
  [[nodiscard]] bool all_hold() const;
};

/// The claims must outlive the report.
ClaimsReport evaluate_claims(std::span<const Claim> claims,
                             const ClaimInputs& inputs);

/// The accepted outcome as the table shows it ("= paper", "paper ± 0.04").
std::string render_outcome(const Outcome& outcome);

/// EXPERIMENTS_CLAIMS.md: one table (id, experiment, quantity, paper,
/// measured, accepted), then the notes.
std::string render_claims_markdown(const ClaimsReport& report);

}  // namespace epserve::exp
