// Calibration plan for the synthetic 477-server population.
//
// Every number here is a target lifted from the paper (ICDCS'17, Figs.2-17,
// Tables I, §I/§III/§IV prose). The generator consumes this plan; the claims
// registry (src/exp/claims.cpp) then re-measures the generated population
// and checks it against the paper, reading the paper values this plan holds
// from it (EXPERIMENTS_CLAIMS.md). Where the paper gives only a chart (no
// table), targets are read off the figure and marked as approximate in the
// comments.
#pragma once

#include <span>
#include <string_view>
#include <vector>

namespace epserve::dataset {

/// Total number of valid published results the paper analyses.
inline constexpr int kTotalServers = 477;

/// Share of results whose published year differs from hardware availability
/// year (74 of 477).
inline constexpr int kYearMismatchCount = 74;

/// One codename cohort within a hardware-availability year.
struct CodenameQuota {
  std::string_view codename;  // must resolve via power::find_uarch()
  int count = 0;
  double ep_mean = 0.6;  // cohort EP target (Fig.3 / Fig.7 calibration)
  double ep_sd = 0.05;
};

/// Peak-EE utilisation quota for a year (Fig.16 calibration).
struct PeakSpotQuota {
  double utilization = 1.0;  // one of 0.6 / 0.7 / 0.8 / 0.9 / 1.0
  int count = 0;
};

/// Multi-node quota for a year (Fig.13 calibration).
struct NodeQuota {
  int nodes = 2;  // 2 / 4 / 8 / 16
  int count = 0;
};

/// Per-hardware-availability-year plan.
struct YearPlan {
  int year = 2012;
  int count = 0;
  /// SPECpower overall score target (Fig.4, read off the chart).
  double score_mean = 3000.0;
  double score_sd_rel = 0.18;  // relative spread
  /// Lower EP clamp for sampled (non-exemplar) servers of this year. Used
  /// to keep pinned per-year minima (e.g. 2016's 0.73) the actual minima.
  double ep_floor = 0.05;
  std::vector<CodenameQuota> codenames;   // counts sum to `count`
  std::vector<PeakSpotQuota> peak_spots;  // counts sum to `count`
  std::vector<NodeQuota> multi_node;      // subset of `count`
};

/// A pinned exemplar server (the paper's named curves in Fig.1/9/10/12 and
/// the 2014 outlier of §III.A).
struct Exemplar {
  int hw_year = 2012;
  std::string_view codename;
  double ep = 0.8;
  double peak_spot = 1.0;           // peak-EE utilisation
  double overall_score = 0.0;       // 0 = use the year's target
  int chips = 2;
  int cores_per_chip = 8;
  bool dual_peak_spot = false;      // ties EE at 80% and 90% (2011 server)
  std::string_view note;
};

/// Memory-per-core histogram target (Table I plus the 47 long-tail servers
/// the paper folds into "other").
struct MpcQuota {
  double gb_per_core = 1.0;
  int count = 0;
  /// Era affinity: generated assignment prefers years >= this.
  int preferred_from_year = 2004;
  /// EE multiplier / EP shift applied to servers with this configuration
  /// (drives the Fig.17 shape; values chosen so 1.5 GB/core maximises EP and
  /// 1.78 GB/core maximises EE, as the paper reports).
  double ee_multiplier = 1.0;
  double ep_shift = 0.0;
};

/// Chip-count adjustment (Fig.14: 2-chip single-node servers lead).
struct ChipAdjust {
  int chips = 2;
  int single_node_count = 0;  // Fig.14 totals: 77 / 284 / 36 / 6
  double ep_shift = 0.0;
  double ee_multiplier = 1.0;
};

/// Node-count EP uplift (Fig.13 economies of scale; mild dip at 8 nodes).
double node_ep_shift(int nodes);

std::span<const YearPlan> year_plans();
std::span<const Exemplar> exemplars();
std::span<const MpcQuota> mpc_quotas();
std::span<const ChipAdjust> chip_adjusts();

/// Cohort plan for the scaled (million-server) population: the 2007-2023
/// x86 window that "16 Years of SPEC Power" analyses. The paper-era years
/// (2007-2016) reuse the plans above; 2017-2023 extends the trend (scores
/// continuing Fig.4's doubling cadence, EP plateauing just under 0.9).
/// Counts here are *relative weights*, not quotas: the scaled generator
/// samples each server's cohort independently, so a server is a pure
/// function of (seed, index) and generation can be chunked and sharded
/// without any sequential pool state.
std::span<const YearPlan> scaled_year_plans();

/// Sanity for the scaled plan: same structural rules as the 477 plan
/// (codename/spot weights sum to the year weight, codenames resolve), minus
/// the global total (weights are relative).
bool scaled_plan_is_consistent();

/// Published-year offsets (pub_year - hw_year) for the 74 mismatched
/// results: 1..6 years late plus one published a year before availability.
std::span<const int> year_mismatch_offsets();

/// Sanity: plan totals add up to kTotalServers (checked by tests and by the
/// generator on startup).
bool plan_is_consistent();

}  // namespace epserve::dataset
