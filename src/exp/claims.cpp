#include "exp/claims.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "analysis/async_analysis.h"
#include "analysis/counterfactual.h"
#include "analysis/efficiency_zones.h"
#include "analysis/envelope.h"
#include "analysis/forecast.h"
#include "analysis/gap_analysis.h"
#include "analysis/idle_analysis.h"
#include "analysis/memory_analysis.h"
#include "analysis/metric_comparison.h"
#include "analysis/national_energy.h"
#include "analysis/peak_shift.h"
#include "analysis/rekeying.h"
#include "analysis/scale_analysis.h"
#include "analysis/trends.h"
#include "analysis/uarch_analysis.h"
#include "cluster/autoscaler.h"
#include "cluster/day_simulation.h"
#include "cluster/knightshift.h"
#include "cluster/power_cap.h"
#include "cluster/trace.h"
#include "core/epserve.h"
#include "dataset/calibration.h"
#include "metrics/curve_models.h"
#include "power/chassis.h"
#include "power/reconfigurable.h"
#include "power/thermal.h"
#include "specpower/simulator.h"
#include "specpower/workload_profiles.h"
#include "stats/bootstrap.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "testbed/config.h"
#include "util/contracts.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace epserve::exp {

namespace {

/// The first `count` servers whose hardware year lies in [from, to],
/// single-node ones only when `single_node`: the §V.C and ensemble racks.
std::vector<dataset::ServerRecord> first_servers(
    std::span<const dataset::ServerRecord> records, int from, int to,
    bool single_node, std::size_t count) {
  std::vector<dataset::ServerRecord> servers;
  for (const auto& r : records) {
    if (r.hw_year >= from && r.hw_year <= to &&
        (!single_node || r.nodes == 1) && servers.size() < count) {
      servers.push_back(r);
    }
  }
  return servers;
}

}  // namespace

Result<std::unique_ptr<const ClaimInputs>> build_claim_inputs() {
  auto records = dataset::generate_population();
  if (!records.ok()) return records.error();
  // §V.C's modern rack: 2012+ single-node machines (the interior peak-EE era).
  auto fleet = cluster::Fleet::build(
      first_servers(records.value(), 2012, 2016, true, 32));
  if (!fleet.ok()) return fleet.error();
  std::vector<testbed::SweepResult> sweeps;
  for (const int server : {1, 2, 4}) {
    auto sweep = run_testbed_sweep(server);
    if (!sweep.ok()) return sweep.error();
    sweeps.push_back(std::move(sweep).take());
  }
  return std::unique_ptr<const ClaimInputs>(new ClaimInputs{
      .population = dataset::ResultRepository(std::move(records).take()),
      .server1 = std::move(sweeps[0]),
      .server2 = std::move(sweeps[1]),
      .server4 = std::move(sweeps[2]),
      .modern_fleet = std::move(fleet).take()});
}

namespace {

using In = const ClaimInputs&;
using List = std::vector<double>;
using Measure = std::function<Measured(In)>;
using analysis::ScaleRow;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// "a / b / c" at `digits` decimals, as percentages when `percent`.
std::string list(const List& values, int digits, bool percent = false) {
  std::vector<std::string> items;
  for (const double v : values) {
    items.push_back(percent ? format_percent(v, digits)
                            : format_fixed(v, digits));
  }
  return join(items, " / ");
}

Measured printed(std::string text) { return {std::move(text), std::nullopt}; }
Measured shape(bool holds, std::string text) {
  return {std::move(text), holds};
}

/// A measure printing the list `values` returns, or "missing" (which no
/// outcome accepts) when a value is NaN.
Measure print(std::function<List(In)> values, int digits, bool pct = false) {
  return [values = std::move(values), digits, pct](In in) {
    const List v = values(in);
    const bool finite = std::all_of(v.begin(), v.end(),
                                    [](double x) { return std::isfinite(x); });
    return printed(finite ? list(v, digits, pct) : "missing");
  };
}

double ep(const dataset::ServerRecord& r) {
  return metrics::energy_proportionality(r.curve);
}

/// One hardware year's Fig.2-4 row; all zero for an absent year, which no
/// accepted outcome admits.
analysis::YearTrendRow trend(In in, int year) {
  for (const auto& row : analysis::year_trends(in.context)) {
    if (row.year == year) return row;
  }
  return {};
}

/// `field` of each Fig.13/14 row whose key is in `keys`, in key order.
List scale(const std::vector<ScaleRow>& rows, double (*field)(const ScaleRow&),
           std::initializer_list<int> keys) {
  List out;
  for (const auto& row : rows) {
    if (std::count(keys.begin(), keys.end(), row.key) > 0) {
      out.push_back(field(row));
    }
  }
  return out;
}

double codename_ep(In in, std::string_view codename) {
  for (const auto& row : analysis::codename_ep_ranking(in.context)) {
    if (row.codename == codename) return row.mean_ep;
  }
  return kNaN;
}

/// The calibration's exemplar of `year` (0: any year) with the lowest or
/// highest EP; `scored` keeps those pinned with an overall score (Fig.1's
/// 2016 sample server, §III.A's 2014 tower outlier).
const dataset::Exemplar& exemplar(int year, bool highest, bool scored) {
  const dataset::Exemplar* best = nullptr;
  for (const auto& e : dataset::exemplars()) {
    if ((year != 0 && e.hw_year != year) || (scored && e.overall_score <= 0)) {
      continue;
    }
    if (best == nullptr || (highest ? e.ep > best->ep : e.ep < best->ep)) {
      best = &e;
    }
  }
  EPSERVE_EXPECTS(best != nullptr);
  return *best;
}

/// "EP (year)" of each server, at the digits Figs.3 and 9 print.
std::string ep_years(std::initializer_list<std::pair<double, int>> servers) {
  std::vector<std::string> items;
  for (const auto& [value, year] : servers) {
    items.push_back(format_fixed(value, 2) + " (" + std::to_string(year) + ")");
  }
  return join(items, " / ");
}

/// The `year` server whose EP is nearest `target`, within 0.006: how the
/// paper's named curves (Figs.1 and 10) are found.
const dataset::ServerRecord* nearest(In in, int year, double target) {
  const dataset::ServerRecord* match = nullptr;
  double best = 0.006;
  for (const auto& r : in.population.records()) {
    const double delta = std::abs(ep(r) - target);
    if (r.hw_year == year && delta < best) {
      best = delta;
      match = &r;
    }
  }
  return match;
}

/// First ideal-line crossing of that server's curve: 2.0 when it never
/// crosses, NaN when no server matches.
double first_crossing(In in, int year, double target) {
  const auto* match = nearest(in, year, target);
  if (match == nullptr) return kNaN;
  const auto cross = metrics::ideal_intersections(match->curve);
  return cross.empty() ? 2.0 : cross.front();
}

/// The first crossings of the Fig.10 curves that cross, by ascending EP.
List fig10_crossings(In in) {
  constexpr std::pair<double, int> kCurves[] = {  // (EP, year)
      {0.18, 2008}, {0.30, 2005}, {0.61, 2009}, {0.75, 2011},
      {0.75, 2016}, {0.82, 2016}, {0.86, 2014}, {0.87, 2016},
      {0.96, 2016}, {1.02, 2016}, {1.05, 2012}};
  List crossings;
  for (const auto& [target, year] : kCurves) {
    const double cross = first_crossing(in, year, target);
    if (!(cross > 1.0)) crossings.push_back(cross);  // keeps a missing NaN
  }
  return crossings;
}

Measured fig12_zone_onset(In in) {
  bool holds = true;
  std::vector<std::string> servers;
  for (const auto& r : in.population.records()) {
    if (ep(r) <= 1.0) continue;
    const auto reach = [&r](double level) {
      return metrics::utilization_reaching_normalized_ee(r.curve, level);
    };
    const double at_08 = reach(0.8);
    const double at_10 = reach(1.0);
    holds = holds && at_08 < 0.3 && at_10 < 0.4;
    servers.push_back("EP " + format_fixed(ep(r), 2) + " at " +
                      list({at_08, at_10}, 0, true));
  }
  return shape(holds && !servers.empty(), join(servers, "; "));
}

Measured fig14_two_chip_peak(In in) {
  const auto rows = analysis::ep_ee_by_chips(in.context);
  const List ep = scale(rows, [](auto& r) { return r.ep.mean; }, {1, 2, 4, 8});
  const List ee =
      scale(rows, [](auto& r) { return r.score.mean; }, {1, 2, 4, 8});
  bool peak = ep.size() == 4;  // rising from 1 to 2 chips, falling beyond
  for (std::size_t i = 1; peak && i < ep.size(); ++i) {
    peak = (ep[i] > ep[i - 1]) == (i == 1) && (ee[i] > ee[i - 1]) == (i == 1);
  }
  return shape(peak, "EP " + list(ep, 3) + "; EE " + list(ee, 0));
}

/// Servers #1, #2 and #4 hold per MPC column the fixed frequencies
/// ascending, then ondemand: no step up may lose over 0.5% EE (meter
/// noise), and ondemand must sit within 10% of the top frequency's EE.
Measured testbed_frequency(In in) {
  double worst_drop = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const auto* sweep : {&in.server1, &in.server2, &in.server4}) {
    for (std::size_t i = 1; i < sweep->cells.size(); ++i) {
      const auto& prev = sweep->cells[i - 1];
      const auto& cell = sweep->cells[i];
      if (prev.governor == "ondemand") continue;  // a new column starts
      const double change = cell.overall_ee / prev.overall_ee - 1.0;
      if (cell.governor == "ondemand") {
        lo = std::min(lo, change);
        hi = std::max(hi, change);
      } else {
        worst_drop = std::max(worst_drop, -change);
      }
    }
  }
  return shape(worst_drop <= 0.005 && lo >= -0.1 && hi <= 0.1,
               "worst step " + format_percent(worst_drop) + "; ondemand " +
                   list({lo, hi}, 1, true));
}

/// Server #4's peak power rises along each MPC column and from column to
/// column; at the last (16 GB/core), ondemand is within 10% of the top.
Measured fig21_power(In in) {
  const auto& cells = in.server4.cells;
  const std::size_t column =
      cells.size() / testbed::paper_sweep_config(4).memory_per_core_gb.size();
  if (column < 2 || cells.size() % column != 0) {
    return shape(false, "missing");
  }
  bool holds = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].governor == "ondemand") continue;
    const double w = cells[i].peak_power_watts;
    holds = holds && (i % column == 0 || w > cells[i - 1].peak_power_watts) &&
            (i < column || w > cells[i - column].peak_power_watts);
  }
  const auto& low = cells[cells.size() - column];
  const auto& top = cells[cells.size() - 2];
  const double od = cells.back().peak_power_watts;
  return shape(holds && std::abs(od / top.peak_power_watts - 1.0) <= 0.1,
               list({low.peak_power_watts, top.peak_power_watts}, 0) +
                   " W at " +
                   list({low.fixed_freq_ghz, top.fixed_freq_ghz}, 1) +
                   " GHz; ondemand " + format_fixed(od, 0) + " W");
}

/// On the modern fleet, optimal-region beats pack-to-full and balanced in
/// ops/W at every demand 10%..90%, and serves the most throughput under a
/// cap at 70% of the fleet's peak power.
Measured sec5c_placement(In in) {
  const cluster::PackToFullPolicy pack;
  const cluster::BalancedPolicy balanced;
  const cluster::OptimalRegionPolicy optimal;
  List demands;
  for (int i = 1; i <= 9; ++i) demands.push_back(i / 10.0);
  double peak = 0.0;
  for (const double watts : in.modern_fleet.peak_watts()) peak += watts;
  std::vector<std::vector<cluster::Assignment>> runs;
  List mops;
  for (const cluster::PlacementPolicy* policy :
       std::initializer_list<const cluster::PlacementPolicy*>{&pack, &balanced,
                                                              &optimal}) {
    auto run = cluster::evaluate_batch(*policy, in.modern_fleet, demands);
    auto cap = cluster::max_throughput_under_cap(*policy, in.modern_fleet,
                                                 0.7 * peak);
    if (!run.ok() || !cap.ok()) return shape(false, "evaluation failed");
    runs.push_back(std::move(run).take());
    mops.push_back(cap.value().max_throughput / 1e6);
  }
  bool holds = mops[2] > mops[0] && mops[2] > mops[1];
  List gains;
  for (std::size_t d = 0; d < demands.size(); ++d) {
    const double best = runs[2][d].efficiency();
    gains.push_back(best / runs[0][d].efficiency() - 1.0);
    holds = holds && gains.back() > 0.0 && best > runs[1][d].efficiency();
  }
  const auto [lo, hi] = std::minmax_element(gains.begin(), gains.end());
  return shape(holds, "ops/W gain " + list({*lo, *hi}, 2, true) + "; " +
                          list(mops, 2) + " Mops/s under the cap");
}

// --- Extensions and ablations: what the paper cites, proposes or assumes.

/// The energy of a day over `servers` under the trace `spec`: the three
/// placement policies, which must serve the same work, then the autoscaled
/// ensemble.
Result<List> day_energy(const std::vector<dataset::ServerRecord>& servers,
                        const cluster::TraceSpec& spec) {
  auto fleet = cluster::Fleet::build(servers);
  if (!fleet.ok()) return fleet.error();
  auto trace = cluster::make_trace(spec);
  if (!trace.ok()) return trace.error();
  auto days = cluster::compare_policies_over_day(fleet.value(), trace.value());
  if (!days.ok()) return days.error();
  List kwh;
  const double work = days.value()[0].served_gops;
  for (const auto& day : days.value()) {
    if (!(std::abs(day.served_gops / work - 1.0) < 1e-9)) {
      return Error::invalid_argument("policies served different work");
    }
    kwh.push_back(day.energy_kwh);
  }
  auto scaled = cluster::autoscale_over_day(fleet.value(), trace.value());
  if (!scaled.ok()) return scaled.error();
  kwh.push_back(scaled.value().energy_kwh);
  return kwh;
}

Measured sec5c_daily_energy(In in) {
  const auto kwh = day_energy(
      first_servers(in.population.records(), 2012, 2016, true, 24),
      {.name = "diurnal"});
  if (!kwh.ok()) return shape(false, kwh.error().message);
  const List v(kwh.value().begin(), kwh.value().begin() + 3);  // placement
  const double worst = *std::max_element(v.begin(), v.end());
  return shape(v[2] == *std::min_element(v.begin(), v.end()),
               list(v, 2) + " kWh; optimal-region " +
                   format_percent(v[2] / worst - 1.0, 1) +
                   " against the worst");
}

Measured sec6_ensemble(In in) {
  const auto servers =
      first_servers(in.population.records(), 2008, 2009, false, 24);
  const auto kwh =
      day_energy(servers, {.name = "diurnal", .base = 0.2, .amplitude = 0.4});
  if (!kwh.ok()) return shape(false, kwh.error().message);
  const List& v = kwh.value();
  const double always_on = std::min({v[0], v[1], v[2]});
  double mean_ep = 0.0;
  for (const auto& r : servers) mean_ep += ep(r);
  mean_ep /= static_cast<double>(servers.size());
  return shape(v[3] < always_on,
               std::to_string(servers.size()) + " servers of mean EP " +
                   format_fixed(mean_ep, 2) + ": " +
                   list({v[3], always_on}, 2) + " kWh (" +
                   format_percent(v[3] / always_on - 1.0, 1) + ")");
}

/// A 15%-capacity knight in front of each year's median-EP primary: the
/// gain falls as the primary's EP rises.
Measured sec6_knightshift(In in) {
  List primary;
  List gain;
  List idle;
  for (const int year : {2008, 2010, 2012, 2016}) {
    std::vector<const dataset::ServerRecord*> of_year;
    for (const auto& r : in.population.records()) {
      if (r.hw_year == year) of_year.push_back(&r);
    }
    if (of_year.empty()) return shape(false, "missing");
    std::sort(of_year.begin(), of_year.end(),
              [](auto* a, auto* b) { return ep(*a) < ep(*b); });
    auto cmp = cluster::compare_knightshift(*of_year[of_year.size() / 2]);
    if (!cmp.ok()) return shape(false, cmp.error().message);
    primary.push_back(cmp.value().primary_ep);
    gain.push_back(cmp.value().composite_ep - cmp.value().primary_ep);
    idle.push_back(cmp.value().primary_idle_fraction);
  }
  bool holds = true;
  std::vector<std::string> gains;
  for (std::size_t i = 0; i < gain.size(); ++i) {
    // Appended: GCC 12 at -O3 reports a false -Wrestrict on "+" + string.
    gains.push_back(std::string("+").append(format_fixed(gain[i], 2)));
    for (std::size_t j = 0; j < gain.size(); ++j) {
      holds = holds && (primary[j] <= primary[i] || gain[j] < gain[i]);
    }
  }
  return shape(holds, join(gains, " / ") + " over EP " + list(primary, 2) +
                          " (idle " + list(idle, 0, true) + ")");
}

/// Wong [41]'s highly proportional servers: the top EP quartile's shares
/// peaking at 60% and at 100% load; fewer than half peak at 60%.
Measured sec6_top_quartile(In in) {
  const auto tiers = analysis::peak_location_by_ep_tier(in.context);
  if (tiers.empty()) return shape(false, "missing");
  const auto& top = tiers.back();
  return shape(top.share_at_60 < 0.5,
               list({top.share_at_60, top.share_at_full_load}, 1, true) +
                   " (mean EP " + format_fixed(top.mean_ep, 2) +
                   ", mean peak at " +
                   format_percent(top.mean_peak_utilization, 0) + ")");
}

/// The §VI eras of the per-level gap profile.
std::vector<analysis::GapProfile> gap_eras(In in) {
  std::vector<analysis::GapProfile> eras;
  for (const auto& [from, to] :
       {std::pair{2004, 2008}, std::pair{2009, 2011}, std::pair{2012, 2013},
        std::pair{2014, 2016}}) {
    eras.push_back(analysis::gap_profile(in.context, from, to));
  }
  return eras;
}

/// A SPECpower run of `server` under the ondemand governor at `mpc`
/// GB/core, with `seconds`-long intervals and calibration window.
Result<specpower::SpecPowerResult> simulate(
    const power::ServerPowerModel::Config& server,
    const specpower::ThroughputModel::Params& rate, double mpc,
    double seconds, std::uint64_t seed = specpower::SimConfig{}.seed) {
  auto model = power::ServerPowerModel::create(server);
  if (!model.ok()) return model.error();
  auto throughput = specpower::ThroughputModel::create(rate);
  if (!throughput.ok()) return throughput.error();
  const power::OndemandGovernor governor(0.8);
  specpower::SimConfig config;
  config.interval_seconds = seconds;
  config.calibration_seconds = seconds;
  config.seed = seed;
  return specpower::SpecPowerSimulator(model.value(), throughput.value(),
                                       governor, config)
      .run(mpc);
}

/// Two `cores`-core 85 W sockets at 1.2-2.4 GHz, 8 DIMMs of `dimm_gb` and
/// an SSD: the chassis node and the latency and interval rows' server.
power::ServerPowerModel::Config two_socket_node(int cores, double dimm_gb) {
  power::ServerPowerModel::Config node;
  node.cpu.tdp_watts = 85.0;
  node.cpu.cores = cores;
  node.cpu.min_freq_ghz = 1.2;
  node.cpu.max_freq_ghz = 2.4;
  node.dram.dimm_capacity_gb = dimm_gb;
  node.storage = {power::StorageDevice{power::StorageKind::kSsd}};
  return node;
}

/// Server #4's Table II model under each built-in workload profile: EP and
/// overall EE per profile.
Measured sec7_workloads(In) {
  const auto* server = testbed::find_server(4);
  List eps;
  List ees;
  for (const auto& profile : specpower::workload_profiles()) {
    auto model = server->power_model(server->base_memory_gb);
    if (!model.ok()) return shape(false, model.error().message);
    auto config = model.value().config();
    config.memory_intensity = profile.memory_intensity;
    config.storage_intensity = profile.storage_intensity;
    auto run = simulate(
        config,
        {.total_cores = server->total_cores(),
         .ops_per_core_ghz = server->ops_per_core_ghz / profile.cpu_work_factor,
         .ipc_factor = server->ipc_factor,
         .mpc_sweet_spot_gb = profile.mpc_sweet_spot_gb},
        server->base_memory_gb / server->total_cores(), 10.0);
    if (!run.ok()) return shape(false, run.error().message);
    auto curve = run.value().to_power_curve();
    if (!curve.ok()) return shape(false, curve.error().message);
    eps.push_back(metrics::energy_proportionality(curve.value()));
    ees.push_back(metrics::overall_score(curve.value()));
  }
  const auto [ep_lo, ep_hi] = std::minmax_element(eps.begin(), eps.end());
  const auto [ee_lo, ee_hi] = std::minmax_element(ees.begin(), ees.end());
  return shape(*ep_hi - *ep_lo >= 0.01 && *ee_hi >= 1.1 * *ee_lo,
               "EP " + list(eps, 3) + "; EE " + list(ees, 1));
}

/// Server #4 ungated, then gated under the default policy, aggressive
/// gating, socket parking only and DIMM self-refresh only.
Measured sec7_reconfigurable(In) {
  using Policy = power::ReconfigurableServer::Policy;
  const auto gating = [](double parked, double refresh) {
    Policy policy;
    policy.max_parked_socket_fraction = parked;
    policy.max_self_refresh_fraction = refresh;
    policy.self_refresh_residual = 0.1;
    return policy;
  };
  const Policy policies[] = {{}, {}, gating(0.5, 0.95), gating(0.5, 0.0),
                             gating(0.0, 0.95)};
  const auto* spec = testbed::find_server(4);
  List eps;
  List idle;
  List peak;
  for (std::size_t i = 0; i < std::size(policies); ++i) {
    auto base = spec->power_model(spec->base_memory_gb);
    if (!base.ok()) return shape(false, base.error().message);
    auto server = power::ReconfigurableServer::create(std::move(base).take(),
                                                      policies[i]);
    if (!server.ok()) return shape(false, server.error().message);
    const auto curve = server.value().measure(1e6, i > 0);
    eps.push_back(metrics::energy_proportionality(curve));
    idle.push_back(curve.idle_watts());
    peak.push_back(curve.peak_watts());
  }
  bool holds = true;
  for (std::size_t i = 1; i < eps.size(); ++i) {
    holds = holds && eps[i] > eps[0] && idle[i] < idle[0] && peak[i] == peak[0];
  }
  return shape(holds, "EP " + list(eps, 3) + "; idle " + list(idle, 0) + " W");
}

/// CPU package EP of one model: watts at 2.6 GHz per load level, idle at
/// 1.2 GHz, ops linear in load.
template <typename Cpu>
double package_ep(const Cpu& cpu) {
  std::array<double, metrics::kNumLoadLevels> watts{};
  std::array<double, metrics::kNumLoadLevels> ops{};
  for (std::size_t i = 0; i < metrics::kNumLoadLevels; ++i) {
    watts[i] = cpu.power(metrics::kLoadLevels[i], 2.6);
    ops[i] = 1e6 * metrics::kLoadLevels[i];
  }
  return metrics::energy_proportionality(
      metrics::PowerCurve(watts, ops, cpu.power(0.0, 1.2)));
}

/// |Eq.1's ten trapezoids - a 100000-step midpoint integral| on `model`.
template <typename Model>
double trapezoid_error(const Model& model) {
  constexpr int kSteps = 100000;
  double area = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    area += model.power((i + 0.5) / kSteps) / kSteps;
  }
  const auto curve = metrics::to_power_curve(model, 200.0, 1e6);
  return std::abs(2.0 - 2.0 * area - metrics::energy_proportionality(curve));
}

/// Of ten (EP, peak-EE spot) calibration anchors, how many the two-segment
/// family hits exactly and the quadratic family reaches, over the
/// generator's idle window.
Measured ablation_curve_family(In) {
  constexpr std::pair<double, double> kTargets[] = {
      {0.18, 1.0}, {0.37, 1.0}, {0.56, 1.0}, {0.75, 1.0}, {0.75, 0.8},
      {0.85, 0.8}, {0.85, 0.7}, {0.90, 0.7}, {0.95, 0.6}, {1.05, 0.6}};
  const int all = static_cast<int>(std::size(kTargets));
  int exact = 0;
  int reached = 0;
  for (const auto& [target, spot] : kTargets) {
    bool two_segment = false;
    bool quadratic = false;
    for (double idle = 0.04; idle <= 0.9 && !(two_segment && quadratic);
         idle += 0.01) {
      auto model = metrics::TwoSegmentPowerModel::solve(
          target, idle, spot < 1.0 ? spot : 0.5);
      if (!two_segment && model.ok() && model.value().monotone()) {
        const auto curve = metrics::to_power_curve(model.value(), 200.0, 1e6);
        two_segment =
            std::abs(metrics::energy_proportionality(curve) - target) < 1e-9 &&
            metrics::peak_ee_utilization(curve) == spot;
      }
      const auto quad =
          metrics::QuadraticPowerModel::from_ep_and_idle(target, idle);
      if (!quadratic && quad.monotone()) {
        const double at = quad.peak_ee_utilization();
        quadratic = std::abs((at >= 0.95 ? 1.0 : std::round(at * 10) / 10) -
                             spot) < 1e-9;
      }
    }
    exact += two_segment ? 1 : 0;
    reached += quadratic ? 1 : 0;
  }
  const auto of = [all](int n) {
    return std::to_string(n) + "/" + std::to_string(all);
  };
  return shape(exact == all && reached < all,
               "two-segment " + of(exact) + ", quadratic " + of(reached));
}

/// Mean EP at each curve-jitter sd; the share peaking at 100% load and the
/// spot count must stay those of sd 0.
Measured ablation_jitter(In) {
  List mean_ep;
  List share;
  List spots;
  for (const double sd : {0.0, 0.002, 0.004, 0.008, 0.016}) {
    auto population = dataset::generate_population({.curve_jitter_sd = sd});
    if (!population.ok()) return shape(false, population.error().message);
    const dataset::ResultRepository repo(std::move(population).take());
    const analysis::AnalysisContext ctx(repo);
    mean_ep.push_back(stats::mean(ctx.columnar().ep()));
    share.push_back(analysis::global_spot_shares(ctx).at(1.0));
    spots.push_back(static_cast<double>(analysis::total_spots(ctx)));
  }
  const auto same = [](const List& v) {
    return std::count(v.begin(), v.end(), v[0]) == std::ssize(v);
  };
  const auto [lo, hi] = std::minmax_element(mean_ep.begin(), mean_ep.end());
  const bool quotas = same(share) && same(spots);
  return shape(quotas && *hi - *lo < 0.002,
               "mean EP " + list(mean_ep, 4) + "; " +
                   format_percent(share[0], 2) + " at 100% and " +
                   format_fixed(spots[0], 0) + " spots at sd 0, " +
                   (quotas ? "the same at every sd" : "not at every sd"));
}

/// Over ten seeds (7919 x 1..10), the summary of each population's mean EP,
/// corr(EP, idle%), Eq.2 alpha and share peaking at 100% load.
std::vector<stats::Summary> seed_summaries() {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 1; i <= 10; ++i) seeds.push_back(i * 7919);
  const auto pool = make_worker_pool(resolve_thread_count(0));
  auto ensemble = dataset::generate_ensemble(seeds, {}, pool.get());
  if (!ensemble.ok()) return {};
  std::array<List, 4> values;
  for (auto& member : ensemble.value()) {
    const dataset::ResultRepository repo(std::move(member));
    const analysis::AnalysisContext ctx(repo);
    const auto idle = analysis::analyze_idle_power(ctx);
    values[0].push_back(stats::mean(ctx.columnar().ep()));
    values[1].push_back(idle.ep_idle_correlation);
    values[2].push_back(idle.eq2.alpha);
    values[3].push_back(analysis::global_spot_shares(ctx).at(1.0));
  }
  std::vector<stats::Summary> out;
  for (const auto& v : values) out.push_back(stats::summarize(v));
  return out;
}

/// The interval rows' server at 4 GB/core and intervals of 2 / 5 / 10 / 20 /
/// 40 / 80 s (seed 33): each run's EP, then its 90%-load sojourn in ms.
std::array<List, 2> interval_sweep() {
  std::array<List, 2> out;
  for (const double seconds : {2.0, 5.0, 10.0, 20.0, 40.0, 80.0}) {
    auto run = simulate(two_socket_node(6, 16.0), {.total_cores = 12}, 4.0,
                        seconds, 33);
    if (!run.ok()) return {};
    auto curve = run.value().to_power_curve();
    if (!curve.ok()) return {};
    out[0].push_back(metrics::energy_proportionality(curve.value()));
    out[1].push_back(run.value().levels[8].avg_sojourn_seconds * 1000.0);
  }
  return out;
}

/// Whether every value of an interval sweep from the 10 s run on lies within
/// `share` of the 80 s run's.
bool settled(const List& v, double share) {
  return v.size() == 6 &&
         std::all_of(v.begin() + 2, v.end(), [&v, share](double x) {
           return std::abs(x / v.back() - 1.0) <= share;
         });
}

std::vector<Claim> build_registry() {
  std::vector<Claim> claims;
  const auto add = [&claims](std::string id, std::string experiment,
                             std::string quantity, std::string paper,
                             Measure measure, Outcome accepted,
                             std::string note = {}) {
    claims.push_back({std::move(id), std::move(experiment),
                      std::move(quantity), std::move(paper),
                      std::move(measure), accepted, std::move(note)});
  };
  using K = Outcome::Kind;
  const Outcome paper{};
  const Outcome holds{.kind = K::kVerdict};
  const auto within = [](double tolerance) {
    return Outcome{.kind = K::kWithin, .tolerance = tolerance};
  };
  const auto band = [](double lo, double hi) {
    return Outcome{.kind = K::kBand, .lo = lo, .hi = hi};
  };
  const auto percent_of = [](double (*value)(In)) {
    return print([value](In in) { return List{value(in)}; }, 2, true);
  };

  // Population analyses: Figs.1-17, Table I, Eq.2, §I, §IV.
  const auto& sample = exemplar(2016, true, true);
  add("fig1.sample", "Fig.1", "2016 sample server: EP (Eq.1) / overall score",
      format_fixed(sample.ep, 2) + " / " +
          format_fixed(sample.overall_score, 0),
      [](In in) {
        const auto* r = nearest(in, 2016, exemplar(2016, true, true).ep);
        if (r == nullptr) return printed("missing");
        return printed(format_fixed(ep(*r), 3) + " / " +
                       format_fixed(metrics::overall_score(r->curve), 0));
      },
      paper);
  add("fig2.avg_ep", "Fig.2", "average EP, 2005 / 2012 / 2016",
      "0.30 / 0.82 / 0.84",
      print([](In in) {
        return List{trend(in, 2005).ep.mean, trend(in, 2012).ep.mean,
                    trend(in, 2016).ep.mean};
      }, 2),
      within(0.04), "the generator targets codename cohorts, not the chart");
  add("fig2.min_ep_2016", "Fig.2", "minimum EP, 2016",
      format_fixed(exemplar(2016, false, false).ep, 2),
      print([](In in) { return List{trend(in, 2016).ep.min}; }, 2), paper);
  const auto jump = [](int from, int to) {
    return print([from, to](In in) {
      const auto rows = analysis::year_trends(in.context);
      return List{analysis::ep_jump(rows, from, to).value_or(kNaN)};
    }, 2, true);
  };
  add("fig3.jump_2008_2009", "Fig.3", "EP jump 2008 to 2009 (average)",
      "+48.65%", jump(2008, 2009), within(12),
      "means 0.357 to 0.571 against the paper's 0.37 to 0.55");
  add("fig3.jump_2011_2012", "Fig.3", "EP jump 2011 to 2012 (average)",
      "+24.24%", jump(2011, 2012), within(4),
      "the 2012 mean is 0.03 above the chart (fig2.avg_ep)");
  const auto& low = exemplar(0, false, false);
  const auto& high = exemplar(0, true, false);
  add("fig3_9.ep_extremes", "Fig.3, Fig.9",
      "global minimum / maximum EP (year): the pencil-head envelope servers",
      ep_years({{low.ep, low.hw_year}, {high.ep, high.hw_year}}),
      [](In in) {
        const auto env = analysis::power_envelope(in.context);
        if (env.min_ep_server == nullptr) return printed("missing");
        return printed(ep_years({{env.min_ep, env.min_ep_server->hw_year},
                                 {env.max_ep, env.max_ep_server->hw_year}}));
      },
      paper);
  add("fig4.avg_ee_rises", "Fig.4",
      "yearly average EE, 2004 to 2016 (only the 2014 minimum dips)", "rises",
      print([](In in) {
        List ee;
        for (const auto& row : analysis::year_trends(in.context)) {
          ee.push_back(row.score.mean);
        }
        return ee;
      }, 0),
      Outcome{.kind = K::kRising, .holds = false},
      "2014's 5 servers include the 1469 outlier, so its average dips too");
  add("fig4.min_ee_2014", "Fig.4", "2014 minimum EE (the tower outlier)",
      format_fixed(exemplar(2014, false, true).overall_score, 0),
      print([](In in) { return List{trend(in, 2014).score.min}; }, 0), paper);

  const auto ep_share = [](double lo, double hi) {
    return print([lo, hi](In in) {
      return List{stats::share_in(in.context.columnar().ep(), lo, hi)};
    }, 2, true);
  };
  add("fig5.share_0.6_0.7", "Fig.5", "share with EP in [0.6, 0.7)", "25.21%",
      ep_share(0.6, 0.7), within(5),
      "98 servers, the paper's 120: Gaussian per-year EP spreads");
  add("fig5.share_0.8_0.9", "Fig.5", "share with EP in [0.8, 0.9)", "17.44%",
      ep_share(0.8, 0.9), within(0.1),
      "83 servers as in the paper, whose shares divide by 476, not 477");
  add("fig5.share_below_1", "Fig.5", "share with EP below 1.0", "99.58%",
      ep_share(0.0, 1.0), paper);
  add("fig6.families", "Fig.6",
      "Sandy Bridge family (incl. Ivy Bridge) / Netburst servers", "152 / 3",
      print([](In in) {
        using F = power::UarchFamily;
        List n(2, 0.0);
        for (const auto& row : analysis::family_counts(in.context)) {
          const auto f = row.family;
          const double count = static_cast<double>(row.count);
          n[0] += f == F::kSandyBridge || f == F::kIvyBridge ? count : 0.0;
          n[1] += f == F::kNetburst ? count : 0.0;
        }
        return n;
      }, 0),
      paper);

  add("fig7.top_codename", "Fig.7", "codename topping the EP ranking",
      "Sandy Bridge EN (0.90)",
      [](In in) {
        const auto rows = analysis::codename_ep_ranking(in.context);
        if (rows.empty()) return shape(false, "missing");
        return shape(rows[0].codename == "Sandy Bridge EN",
                     rows[0].codename + " (" +
                         format_fixed(rows[0].mean_ep, 2) + ")");
      },
      holds);
  // Fig.7's codenames in the paper's chart order, with its values.
  static const std::vector<std::string> kFig7 = {
      "Sandy Bridge EN", "Broadwell",  "Sandy Bridge EP", "Haswell",
      "Skylake",         "Ivy Bridge EP", "Sandy Bridge", "Lynnfield",
      "Ivy Bridge",      "Abu Dhabi",  "Westmere-EP",     "Interlagos",
      "Seoul",           "Nehalem EP", "Westmere",        "Nehalem EX",
      "Yorkfield",       "Penryn",     "Core",            "Netburst"};
  add("fig7.codename_ep", "Fig.7", "mean EP: " + join(kFig7, " / "),
      "0.90 / 0.87 / 0.84 / 0.81 / 0.76 / 0.75 / 0.75 / 0.74 / 0.71 / 0.68 / "
      "0.65 / 0.65 / 0.62 / 0.59 / 0.54 / 0.44 / 0.43 / 0.35 / 0.30 / 0.29",
      print([](In in) {
        List eps;
        for (const auto& name : kFig7) eps.push_back(codename_ep(in, name));
        return eps;
      }, 2),
      within(0.07),
      "the generator calibrates per-year codename cohorts, not a codename's "
      "mean over its years; 3 of the 20 match at two decimals");
  add("fig7.ivy_below_sandy", "Fig.7",
      "mean EP, Ivy Bridge (22nm) / Sandy Bridge (32nm)", "rises",
      print([](In in) {
        return List{codename_ep(in, "Ivy Bridge"),
                    codename_ep(in, "Sandy Bridge")};
      }, 2),
      Outcome{.kind = K::kRising});
  add("fig8.composition_effect", "Fig.8",
      "2012-2016 mean EP within 0.05 of its codename-mix prediction (largest "
      "gap), and 2015/2016 above 2013/2014",
      "yes",
      [](In in) {
        double gap = 0.0;
        for (const auto& row :
             analysis::composition_decomposition(in.context, 2012, 2016)) {
          gap = std::max(gap, std::abs(row.actual_mean_ep -
                                       row.composition_predicted_ep));
        }
        List mean;
        for (int y = 2013; y <= 2016; ++y) mean.push_back(trend(in, y).ep.mean);
        return shape(gap <= 0.05 && std::min(mean[2], mean[3]) >
                                        std::max(mean[0], mean[1]),
                     format_fixed(gap, 3) + "; " + list(mean, 3));
      },
      holds);
  add("fig10.crossing_monotone", "Fig.10",
      "first ideal-line crossing of each crossing curve, EP ascending "
      "(higher EP, farther from 100%)",
      "falls", print(fig10_crossings, 0, true),
      Outcome{.kind = K::kFalling, .holds = false},
      "the 2016 EP 0.82 curve first crosses at 76%, later than 2011's 0.75");
  add("fig10.twins_075", "Fig.10",
      "first ideal-line crossing of the EP 0.75 twins, 2011 / 2016 (200%: "
      "never)",
      "2011 crosses, 2016 never",
      [](In in) {
        const double old_twin = first_crossing(in, 2011, 0.75);
        const double new_twin = first_crossing(in, 2016, 0.75);
        return shape(old_twin <= 1.0 && new_twin == 2.0,
                     list({old_twin, new_twin}, 0, true));
      },
      holds);
  add("fig11.edge_eps", "Fig.11", "almond upper / lower edge server EP",
      list({high.ep, low.ep}, 2),
      print([](In in) {
        const auto env = analysis::ee_envelope(in.context);
        if (env.max_ep_server == nullptr) return List{};
        return List{ep(*env.max_ep_server), ep(*env.min_ep_server)};
      }, 2),
      paper);
  add("fig11.upper_edge_above_1", "Fig.11",
      "almond upper edge at 30% / 40% / 50% load", "above 1.0",
      print([](In in) {
        const auto env = analysis::ee_envelope(in.context);
        return List{env.upper[2], env.upper[3], env.upper[4]};
      }, 3),
      band(1, 2), "the paper gives no upper bound; 2.0 is this table's");
  add("fig12.ep_above_1_zone_onset", "Fig.12",
      "EP > 1 servers reach 0.8x / 1.0x full-load EE before 30% / 40% load",
      "yes", fig12_zone_onset, holds);
  add("fig12.zone_width_corr", "Fig.12", "corr(EP, 1.0x-zone width)",
      "wider at higher EP",
      print([](In in) {
        return List{analysis::zone_width_ep_correlation(in.context)};
      }, 3),
      band(0.5, 1), "a trend the paper states only; 0.5 is this table's bar");

  const auto idle = [](List (*fields)(const analysis::IdleAnalysis&),
                       int digits) {
    return print([fields](In in) {
      return fields(analysis::analyze_idle_power(in.context));
    }, digits);
  };
  const char* eq2_note =
      "the synthetic idle/EP relation lands near the paper's";
  add("eq2.corr_ep_idle", "Eq.2", "corr(EP, idle%)", "-0.92",
      idle([](auto& a) { return List{a.ep_idle_correlation}; }, 3),
      within(0.03), eq2_note);
  add("eq2.fit", "Eq.2", "EP = alpha * e^(beta * idle): alpha / R^2",
      "1.2969 / 0.892",
      [](In in) {
        const auto fit = analysis::analyze_idle_power(in.context).eq2;
        return printed(format_fixed(fit.alpha, 4) + " / " +
                       format_fixed(fit.r_squared, 3));
      },
      within(0.05), eq2_note);
  add("eq2.prediction", "Eq.2", "EP at 5% idle / theoretical maximum",
      "1.17 / 1.297",
      idle([](auto& a) {
        return List{a.predicted_ep_at_5pct_idle, a.theoretical_max_ep};
      }, 3),
      within(0.04), eq2_note);
  add("eq2.idle_fell_faster", "Eq.2",
      "idle share drop 2006/07 to 2011/12, then 2011/12 to 2015/16", "falls",
      print([](In in) {
        const auto at = [&in](int from) {
          return analysis::mean_idle_fraction(in.context, from, from + 1);
        };
        return List{at(2006) - at(2011), at(2011) - at(2015)};
      }, 1, true),
      Outcome{.kind = K::kFalling});
  add("sec1.corr_ep_ee", "§I", "corr(EP, overall EE)", "0.741",
      idle([](auto& a) { return List{a.ep_score_correlation}; }, 3),
      within(0.04), eq2_note);

  const auto node_ep = [](bool medians, std::initializer_list<int> nodes) {
    const List keys(nodes.begin(), nodes.end());
    return print([medians, keys](In in) {
      List v;
      for (const auto& row : analysis::ep_ee_by_nodes(in.context)) {
        if (std::count(keys.begin(), keys.end(), row.key) == 0) continue;
        v.push_back(medians ? row.ep.median : row.ep.mean);
      }
      return v;
    }, 3);
  };
  add("fig13.median_ep_rises", "Fig.13",
      "median EP at 1 / 2 / 4 / 8 / 16 nodes", "rises",
      node_ep(true, {1, 2, 4, 8, 16}),
      Outcome{.kind = K::kRising, .holds = false},
      "the per-node EP shift is small against each group's year mix");
  add("fig13.avg_ep_dips_at_8", "Fig.13", "average EP at 4 / 8 nodes",
      "falls", node_ep(false, {4, 8}), Outcome{.kind = K::kFalling});
  add("fig13.avg_ep_recovers", "Fig.13", "average EP at 8 / 16 nodes",
      "rises", node_ep(false, {8, 16}), Outcome{.kind = K::kRising});
  List chip_counts;
  for (const auto& adjust : dataset::chip_adjusts()) {
    chip_counts.push_back(adjust.single_node_count);
  }
  add("fig14.chip_counts", "Fig.14",
      "single-node servers with 1 / 2 / 4 / 8 chips", list(chip_counts, 0),
      print([](In in) {
        return scale(analysis::ep_ee_by_chips(in.context), [](auto& r) {
          return static_cast<double>(r.count);
        }, {1, 2, 4, 8});
      }, 0),
      paper);
  add("fig14.two_chip_peak", "Fig.14",
      "average EP and EE at 1 / 2 / 4 / 8 chips rise to 2, then fall", "yes",
      fig14_two_chip_peak, holds);
  add("fig15.two_chip_gains", "Fig.15",
      "2-chip vs all: average EP / average EE / median EP / median EE gain",
      "+2.94% / +4.13% / +1.18% / +6.26%",
      print([](In in) {
        const auto c = analysis::two_chip_vs_all(in.context);
        return List{c.avg_ep_gain, c.avg_ee_gain, c.median_ep_gain,
                    c.median_ee_gain};
      }, 2, true),
      within(4), "the chip adjustments widen the 2-chip lead; its sign holds");

  add("fig16.spot_shares", "Fig.16",
      "share of peak-EE spots at 100% / 90% / 80% / 70% / 60%",
      "69.25% / 3.35% / 11.72% / 13.81% / 1.88%",
      print([](In in) {
        auto shares = analysis::global_spot_shares(in.context);
        return List{shares[1.0], shares[0.9], shares[0.8], shares[0.7],
                    shares[0.6]};
      }, 2, true),
      within(0.25),
      "shares of 477 servers, the paper's of 478 spots; counts 330 / 17 / 56 "
      "/ 65 / 10, the paper's 331 / 16 / 56 / 66 / 9");
  add("fig16.total_spots", "Fig.16",
      "peak-EE spots (one 2011 server ties at 80% and 90%)", "478",
      print([](In in) {
        return List{static_cast<double>(analysis::total_spots(in.context))};
      }, 0),
      paper);
  add("fig16.full_load_2004_2012", "Fig.16",
      "share peaking at 100% load, 2004 to 2012", "75.71%",
      percent_of([](In in) {
        return analysis::share_peaking_at_full_load(in.context, 2004, 2012);
      }),
      within(0.5), "317 of 421 servers, about two fewer than the paper");
  add("fig16.full_load_2013_2016", "Fig.16",
      "share peaking at 100% load, 2013 to 2016", "23.21%",
      percent_of([](In in) {
        return analysis::share_peaking_at_full_load(in.context, 2013, 2016);
      }),
      paper);
  add("fig16.split_2016", "Fig.16", "2016 servers peaking at 100% / 80% / 70%",
      "3 / 10 / 5",
      print([](In in) {
        List counts;
        for (auto row : analysis::peak_spot_by_year(in.context)) {
          for (const double u : {1.0, 0.8, 0.7}) {
            if (row.year != 2016) continue;
            counts.push_back(static_cast<double>(row.spots[u]));
          }
        }
        return counts;
      }, 0),
      paper);

  const auto decile = [](bool ee, std::initializer_list<int> years) {
    const List made(years.begin(), years.end());
    return print([ee, made](In in) {
      const auto result = analysis::async_top_decile(in.context);
      double share = 0.0;
      for (const auto& [year, s] :
           ee ? result.top_ee_year_shares : result.top_ep_year_shares) {
        share += std::count(made.begin(), made.end(), year) > 0 ? s : 0.0;
      }
      return List{share};
    }, 2, true);
  };
  add("sec4b.top_ep_made_2012", "§IV.B", "top-EP decile made in 2012",
      "91.7%", decile(false, {2012}), paper);
  add("sec4b.top_ee_made_2012", "§IV.B", "top-EE decile made in 2012",
      "16.7%", decile(true, {2012}), within(7),
      "11 of the 48-server decile, the paper's 8; a server moves 2 points");
  add("sec4b.top_ee_made_2015_2016", "§IV.B",
      "top-EE decile made in 2015/2016", "all 31 such machines",
      decile(true, {2015, 2016}), band(60, 64.6),
      "30 of the 31; all 31 would be 64.58%");
  add("sec4b.overlap", "§IV.B", "top-EP and top-EE decile overlap", "14.6%",
      percent_of([](In in) {
        return analysis::async_top_decile(in.context).overlap;
      }),
      within(7), "10 of 48 servers, the paper's 7; a server moves 2 points");

  // Table I as the calibration plan holds it: the ratios with > 10 results.
  List mpcs;
  List mpc_counts;
  for (const auto& quota : dataset::mpc_quotas()) {
    if (quota.count <= 10) continue;
    mpcs.push_back(quota.gb_per_core);
    mpc_counts.push_back(quota.count);
  }
  const auto with_total = [](const List& counts, std::size_t of) {
    return list(counts, 0) + " (" +
           list({std::accumulate(counts.begin(), counts.end(), 0.0),
                 static_cast<double>(of)}, 0) + ")";
  };
  add("table1.mpc_histogram", "Table I",
      "servers at " + list(mpcs, 2) + " GB/core (covered / all)",
      with_total(mpc_counts, dataset::kTotalServers),
      [with_total](In in) {
        List counts;
        for (const auto& row : analysis::mpc_distribution(in.context, 11)) {
          counts.push_back(static_cast<double>(row.count));
        }
        return printed(with_total(counts, in.population.size()));
      },
      paper);
  add("fig17.best_mpc", "Fig.17", "best GB/core for EP / EE", "1.5 / 1.78",
      print([](In in) {
        return List{analysis::best_mpc_for_ep(in.context),
                    analysis::best_mpc_for_ee(in.context)};
      }, 2),
      paper);
  const double mismatched = dataset::kYearMismatchCount;
  add("sec1.mismatched", "§I", "results whose published year differs",
      format_fixed(mismatched, 0) + " (" +
          format_percent(mismatched / dataset::kTotalServers, 1) + ")",
      [](In in) {
        const auto r = analysis::rekeying_analysis(in.context);
        return printed(std::to_string(r.mismatched_results) + " (" +
                       format_percent(r.mismatched_share) + ")");
      },
      paper);
  add("sec1.delta_ranges", "§I",
      "hardware vs published year delta ranges: average EP; median EP; "
      "average EE; median EE",
      "-6.2% .. 8.7%; -8.6% .. 13.1%; -2.2% .. 16.6%; -5.0% .. 20.8%",
      [](In in) {
        const auto r = analysis::rekeying_analysis(in.context);
        const List lo = {r.min_avg_ep_delta, r.min_med_ep_delta,
                         r.min_avg_ee_delta, r.min_med_ee_delta};
        const List hi = {r.max_avg_ep_delta, r.max_med_ep_delta,
                         r.max_avg_ee_delta, r.max_med_ee_delta};
        std::vector<std::string> text;
        for (std::size_t i = 0; i < lo.size(); ++i) {
          text.push_back(format_percent(lo[i], 1) + " .. " +
                         format_percent(hi[i], 1));
        }
        return shape(*std::max_element(lo.begin(), lo.end()) < 0 &&
                         *std::min_element(hi.begin(), hi.end()) > 0,
                     join(text, "; "));
      },
      holds, "thin years set the extremes; each statistic moves both ways");

  // The simulated testbed (Table II, Figs.18-21) and §V.C placement.
  add("table2.servers", "Table II",
      "Table II servers whose configuration builds a power model", "4",
      print([](In) {
        const auto& servers = testbed::table2_servers();
        return List{static_cast<double>(std::count_if(
            servers.begin(), servers.end(),
            [](auto& s) { return s.power_model(s.base_memory_gb).ok(); }))};
      }, 0),
      paper);
  add("fig18_20.best_mpc", "Fig.18-20", "best GB/core, servers #1 / #2 / #4",
      "1.75 / 4 / 2.67",
      print([](In in) {
        return List{in.server1.best_mpc(), in.server2.best_mpc(),
                    in.server4.best_mpc()};
      }, 2),
      paper);
  add("fig19.ee_change", "Fig.19", "server #2 EE change 4 to 8 GB/core",
      "-10.6%",
      percent_of([](In in) { return in.server2.ee_change(4, 8); }), within(1),
      "the DRAM background-power constant sets the MPC penalty");
  add("fig20.ee_change", "Fig.20", "server #4 EE change 2.67 to 8 / 16 GB/core",
      "-4.6% / -11.1%",
      print([](In in) {
        return List{in.server4.ee_change(2.67, 8),
                    in.server4.ee_change(2.67, 16)};
      }, 2, true),
      within(7), "DRAM background power makes these 1.4-1.6x the paper's");
  add("fig18_20.frequency_ee", "Fig.18-20",
      "a lower fixed frequency never gains EE (worst step within 0.5% meter "
      "noise); ondemand within 10% of the top frequency's EE (min / max)",
      "yes", testbed_frequency, holds);
  add("fig21.peak_power", "Fig.21",
      "server #4 peak power rises with frequency and memory; at 16 GB/core, "
      "1.2 / 2.4 GHz, and ondemand within 10% of the top",
      "yes", fig21_power, holds);
  add("sec5.peak_ee_at_full_load", "§V",
      "share of testbed grid cells peaking in EE at 100% load", "100%",
      print([](In in) {
        List at_full;
        for (const auto* sweep : {&in.server1, &in.server2, &in.server4}) {
          for (const auto& cell : sweep->cells) {
            at_full.push_back(cell.peak_ee_utilization == 1.0 ? 1 : 0);
          }
        }
        return List{std::accumulate(at_full.begin(), at_full.end(), 0.0) /
                    static_cast<double>(at_full.size())};
      }, 2, true),
      paper);
  add("sec5c.placement", "§V.C",
      "32 2012+ servers: optimal-region ops/W gain over pack-to-full at "
      "10%..90% demand (min / max); throughput under a 70%-of-peak cap, "
      "pack-to-full / balanced / optimal-region",
      "EP-aware placement beats pack/balanced; more work under a cap",
      sec5c_placement, holds);

  // Extensions: what the paper cites or proposes, by section. Where the
  // paper prints no number, `paper` is the cited work's or this
  // repository's expectation and the note names it.
  add("sec1.energy_scenarios", "§I",
      "U.S. data-center energy (billion kWh): EPA 2006 trend at 2011 / NRDC "
      "current trend at 2020 / LBNL current trend at 2020",
      "107.4 / 138 / 73",
      print([](In) {
        List twh;
        for (const auto& [name, year] :
             {std::pair{"epa-2006-trend", 2011},
              std::pair{"nrdc-current", 2020},
              std::pair{"lbnl-current", 2020}}) {
          const auto* scenario = analysis::find_scenario(name);
          twh.push_back(scenario == nullptr
                            ? kNaN
                            : analysis::projected_energy_twh(*scenario, year));
        }
        return twh;
      }, 1),
      within(4),
      "the paper cites these estimates; the stock-and-efficiency model "
      "calibrated to them (analysis/national_energy.h) lands within 4");
  add("sec3b.frozen_mix", "§III.B",
      "2012-2016 mean EP, actual; with every server re-based on Sandy Bridge "
      "EP-class silicon, no year of 10+ results dips 0.01 below 2012",
      "the 2013/2014 dip is mainly the microarchitecture mix",
      [](In in) {
        const auto result = analysis::frozen_mix_counterfactual(in.context);
        if (!result.ok()) return shape(false, result.error().message);
        List actual;
        List frozen;
        for (const auto& row : result.value().rows) {
          actual.push_back(row.actual_mean_ep);
          frozen.push_back(row.counterfactual_mean_ep);
        }
        return shape(result.value().dip_removed,
                     list(actual, 3) + "; frozen " + list(frozen, 3));
      },
      holds,
      "the paper argues this without a counterfactual "
      "(analysis/counterfactual.h); 2014's 5 results stay noisy, its second "
      "reason");
  add("sec4a.peak_shift_forecast", "§IV.A",
      "first year the 2010-2016 linear trend of the mean peak-EE utilisation "
      "projects below 50%",
      "near future",
      print([](In in) {
        const int year =
            analysis::forecast_peak_shift(in.context).year_reaching_50;
        return List{year == 0 ? kNaN : static_cast<double>(year)};
      }, 0),
      band(2017, 2026),
      "the band reads 'near future' as the decade after 2016, in which the "
      "trend does not reach 40%");
  add("eq2.idle_forecast", "Eq.2",
      "Eq.2-implied EP at the projected mean idle share, 2018 / 2020 / 2022",
      "rises",
      print([](In in) {
        const auto trend = analysis::forecast_idle_fraction(in.context);
        const auto eq2 = analysis::analyze_idle_power(in.context).eq2;
        List eps;
        for (const int year : {2018, 2020, 2022}) {
          eps.push_back(eq2.predict(trend.projected_idle(year)));
        }
        return eps;
      }, 3),
      Outcome{.kind = K::kRising},
      "the paper's reading of Eq.2 as idle falls; the idle share follows its "
      "2008-2016 linear trend, floored at 2% (analysis/forecast.h)");
  add("eq2.bootstrap_ci", "Eq.2, §I",
      "corr(EP, idle%) / corr(EP, overall EE): point [95% bootstrap interval, "
      "1000 resamples], each holding the paper's point; Spearman(EP, idle%), "
      "300 resamples",
      "-0.92 / 0.741",
      [](In in) {
        const auto& snap = in.context.columnar();
        const auto eps = snap.ep();
        const auto idles = snap.idle_fraction();
        const auto scores = snap.overall_score();
        Rng rng(4242);  // one stream, drawn in this order
        const auto by_idle =
            stats::bootstrap_paired(eps, idles, stats::pearson, rng, 1000);
        const auto by_score =
            stats::bootstrap_paired(eps, scores, stats::pearson, rng, 1000);
        const auto by_rank =
            stats::bootstrap_paired(eps, idles, stats::spearman, rng, 300);
        const auto ci = [](const stats::BootstrapInterval& b) {
          return format_fixed(b.point, 3) + " [" + format_fixed(b.lo, 3) +
                 ", " + format_fixed(b.hi, 3) + "]";
        };
        return shape(by_idle.lo <= -0.92 && -0.92 <= by_idle.hi &&
                         by_score.lo <= 0.741 && 0.741 <= by_score.hi,
                     ci(by_idle) + " / " + ci(by_score) + "; Spearman " +
                         ci(by_rank));
      },
      holds);
  add("fig13.chassis_mechanism", "Fig.13",
      "EP of a chassis of 1 / 2 / 4 / 8 / 16 identical nodes sharing fans, "
      "PSUs and management",
      "rises",
      print([](In) {
        List eps;
        for (const int nodes : {1, 2, 4, 8, 16}) {
          auto chassis = power::make_chassis(two_socket_node(8, 8.0), nodes);
          eps.push_back(chassis.ok() ? metrics::energy_proportionality(
                                           chassis.value().measure(1e6))
                                     : kNaN);
        }
        return eps;
      }, 3),
      Outcome{.kind = K::kRising},
      "Fig.13's economies of scale, derived from component models with no "
      "calibration (power/chassis.h)");
  add("sec5c.daily_energy", "§V.C",
      "24 2012+ single-node servers over the diurnal day, the same work "
      "served: energy under pack-to-full / balanced / optimal-region; "
      "optimal-region against the worst",
      "EP-aware placement saves energy", sec5c_daily_energy, holds,
      "§V.C prints no daily figure; holds means optimal-region uses the "
      "least energy");
  add("sec5c.latency", "§V.C",
      "mean transaction sojourn at 70% / 80% / 90% load over that at 10% "
      "(two 6-core sockets, 20 s intervals)",
      "rises past the 70% operating point",
      print([](In) {
        auto run = simulate(two_socket_node(6, 16.0), {.total_cores = 12},
                            4.0, 20.0);
        if (!run.ok()) return List{kNaN};
        const auto& levels = run.value().levels;
        const double base = levels.front().avg_sojourn_seconds;
        return List{levels[6].avg_sojourn_seconds / base,
                    levels[7].avg_sojourn_seconds / base,
                    levels[8].avg_sojourn_seconds / base};
      }, 2),
      Outcome{.kind = K::kRising},
      "the paper prints no latency; the question is that of 'On the Energy "
      "Proportionality of Scale-Out Workloads' (PAPERS.md). The 90% sojourn "
      "has not settled at 20 s (ablation.interval_sojourn)");
  add("sec6.metric_agreement", "§VI",
      "Kendall tau against EP, sign-adjusted: linear deviation / idle power "
      "ratio / dynamic range / largest proportionality gap",
      "consistent, none perfect",
      print([](In in) {
        const auto a = analysis::metric_agreement(in.context);
        return List{a.ld_vs_ep, a.ipr_vs_ep, a.dr_vs_ep, a.gap_vs_ep};
      }, 3),
      band(0.4, 0.99),
      "Hsu & Poole [16] compare these metrics without a rank figure; 0.4 .. "
      "0.99 is this table's reading");
  add("sec6.wong_60", "§VI",
      "share of servers peaking in EE at 60% load (Wong [41]: typical for "
      "highly proportional ones)",
      "1.88%",
      percent_of([](In in) {
        return analysis::share_peaking_at_60(in.context);
      }),
      within(0.25),
      "the paper's Fig.16 value (fig16.spot_shares); 2.10% is this "
      "population's 10 servers against the paper's 9, not a second paper "
      "value");
  add("sec6.wong_top_quartile", "§VI",
      "top EP quartile: share peaking at 60% / at 100% load; under half peak "
      "at 60%",
      "not typically at 60%", sec6_top_quartile, holds,
      "the paper rebuts Wong [41] on all servers only; this is its top "
      "quartile");
  add("sec6.gap_by_era", "§VI",
      "mean proportionality gap (normalised power - load) at idle, 2004-2008 "
      "/ 2009-2011 / 2012-2013 / 2014-2016",
      "falls",
      print([](In in) {
        List at_idle;
        for (const auto& era : gap_eras(in)) at_idle.push_back(era.mean_gap[0]);
        return at_idle;
      }, 3),
      Outcome{.kind = K::kFalling, .holds = false},
      "Wong & Annavaram see the gap shrink with each generation; 2014-2016's "
      "sits above 2012-2013's at every level from idle to 70%, like Fig.3's "
      "2013/2014 dip");
  add("sec6.gap_region", "§VI",
      "load at and below which each era's mean gap exceeds 0.15; the 2012+ "
      "eras' at most 40%",
      "concentrated below ~40% load",
      [](In in) {
        List ends;
        for (const auto& era : gap_eras(in)) {
          ends.push_back(analysis::poorly_proportional_below(era, 0.15));
        }
        return shape(ends.size() == 4 && ends[2] <= 0.4 && ends[3] <= 0.4,
                     list(ends, 0, true));
      },
      holds,
      "Wong & Annavaram's region (analysis/gap_analysis.h); the older eras' "
      "reaches higher");
  add("sec6.ensemble", "§VI",
      "24 2008-2009 servers over a diurnal day (20% + 40% swing): autoscaled "
      "ensemble / best always-on policy",
      "the ensemble delivers proportionality", sec6_ensemble, holds,
      "Tolia et al. [11] give no figure for this fleet; holds means the "
      "autoscaled ensemble uses less energy");
  add("sec6.knightshift", "§VI",
      "EP gain of a 15%-capacity knight over each year's median-EP primary, "
      "2008 / 2010 / 2012 / 2016",
      "largest where EP is lowest", sec6_knightshift, holds,
      "KnightShift [17]/[40] gives no figure for these primaries; holds means "
      "the gain falls as the primary's EP rises");
  add("sec7.workloads", "§VII",
      "server #4 under the ssj / cpu-bound / memory-bound / io-bound / "
      "web-serving profiles: EP; overall EE",
      "EP and EE vary by workload", sec7_workloads, holds,
      "§VII proposes this study without numbers; holds means EP spreads by "
      "0.01 or more and EE by 10% or more");
  add("sec7.reconfigurable", "§VII",
      "server #4 ungated / default gating / aggressive / socket parking only "
      "/ self-refresh only: EP; idle watts",
      "reconfiguration raises EP at unchanged peak", sec7_reconfigurable,
      holds,
      "§VII proposes such servers and 'Towards Energy-Proportional Computing "
      "Using Subsystem-Level Power Management' (PAPERS.md) gates subsystems, "
      "neither with numbers for this server; holds means each gated one "
      "idles lower with higher EP and the same peak");

  // Ablations: the design choices DESIGN.md and docs/METHODOLOGY.md make.
  add("ablation.curve_family", "Ablation",
      "10 (EP, peak-EE spot) calibration targets hit exactly by the "
      "two-segment family / reached by the quadratic",
      "all / not all", ablation_curve_family, holds,
      "DESIGN.md §3: the quadratic family cannot express low-EP interior "
      "peaks such as EP 0.75 peaking at 80%");
  add("ablation.trapezoid", "Ablation",
      "largest gap between ten-trapezoid Eq.1 EP and a 100000-step "
      "integral: two-segment / quadratic curves",
      "exact / small",
      [](In) {
        double kinked = 0.0;
        for (const auto& [target, floor, tau] :
             {std::tuple{0.3, 0.72, 0.5}, std::tuple{0.75, 0.32, 0.7},
              std::tuple{1.05, 0.05, 0.6}}) {
          auto model = metrics::TwoSegmentPowerModel::solve(target, floor, tau);
          if (!model.ok()) return shape(false, model.error().message);
          kinked = std::max(kinked, trapezoid_error(model.value()));
        }
        double smooth = 0.0;
        for (const double b : {-0.3, 0.1, 0.3, 0.6}) {
          const metrics::QuadraticPowerModel model{.idle = 0.3, .b = b};
          if (model.monotone()) {
            smooth = std::max(smooth, trapezoid_error(model));
          }
        }
        return shape(kinked < 1e-9 && smooth <= 0.005,
                     list({kinked, smooth}, 6));
      },
      holds,
      "DESIGN.md §3 expects exactness with the kink on a measured level; "
      "0.005 is this table's bar for smooth curves");
  add("ablation.thermal", "Ablation",
      "EP of a 95 W 8-core CPU package, temperature-blind / with the "
      "thermal-leakage loop",
      "rises",
      print([](In) {
        power::CpuModel::Params params;
        params.tdp_watts = 95.0;
        params.cores = 8;
        params.min_freq_ghz = 1.2;
        params.max_freq_ghz = 2.6;
        auto base = power::CpuModel::create(params);
        if (!base.ok()) return List{kNaN};
        auto thermal = power::ThermalCpuModel::create(base.value(), {});
        if (!thermal.ok()) return List{kNaN};
        return List{package_ep(base.value()), package_ep(thermal.value())};
      }, 3),
      Outcome{.kind = K::kRising},
      "power/thermal.h expects a slight rise at constant peak; the loop also "
      "lifts peak power and cuts idle, so EP rises by 0.10");
  add("ablation.jitter", "Ablation",
      "generator curve jitter sd 0 / 0.002 / 0.004 (default) / 0.008 / "
      "0.016: mean EP within 0.002; share peaking at 100% and spot count",
      "spot quotas hold; EP absorbs the noise", ablation_jitter, holds,
      "DESIGN.md §3's peak-spot-preserving retry loop; 0.002 is this table's "
      "bar");
  add("ablation.seed_means", "Ablation",
      "over ten seeds (7919 x 1..10), the mean of: population mean EP / "
      "corr(EP, idle%) / Eq.2 alpha / share peaking at 100%",
      "~0.66 / -0.92 / 1.2969 / 0.6925",
      print([](In) {
        List means;
        for (const auto& s : seed_summaries()) means.push_back(s.mean);
        return means;
      }, 4),
      within(0.02),
      "the paper prints no population mean EP; ~0.66 is implied by its "
      "figures");
  add("ablation.seed_sd", "Ablation", "over the same ten seeds, the sd of each",
      "small",
      print([](In) {
        List sds;
        for (const auto& s : seed_summaries()) sds.push_back(s.stddev);
        return sds;
      }, 4),
      band(0, 0.02),
      "docs/METHODOLOGY.md expects the calibration to hold across seeds; "
      "0.02 is this table's bar");
  add("ablation.interval_ep", "Ablation",
      "EP of one server at 2 / 5 / 10 / 20 / 40 / 80 s SPECpower intervals "
      "(seed 33); from 10 s on within 2% of the 80 s run",
      "settles by ~10 s",
      [](In) {
        const auto eps = interval_sweep()[0];
        return shape(settled(eps, 0.02), list(eps, 3));
      },
      holds,
      "SPECpower measures 240 s; the expectation is the 8-30 s intervals "
      "this repository simulates");
  add("ablation.interval_sojourn", "Ablation",
      "the same runs' mean sojourn at 90% load (ms); from 10 s on within 10% "
      "of the 80 s run",
      "settles by ~10 s",
      [](In) {
        const auto sojourn = interval_sweep()[1];
        return shape(settled(sojourn, 0.1), list(sojourn, 2));
      },
      Outcome{.kind = K::kVerdict, .holds = false},
      "it has not settled by 80 s, so sec5c.latency's 20 s ratios depend on "
      "the interval");
  return claims;
}

/// The numbers in a text, with each one's decimals, and the text between
/// them (gaps.size() == values.size() + 1). A sign belongs to a number
/// unless it follows a digit ("2004-2012" is two numbers).
struct Numbers {
  List values;
  std::vector<int> decimals;
  std::vector<std::string> gaps{""};
};

Numbers scan(std::string_view text) {
  const auto digit = [&text](std::size_t i) {
    return i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]));
  };
  Numbers out;
  for (std::size_t i = 0; i < text.size();) {
    const bool sign = (text[i] == '-' || text[i] == '+') &&
                      (i == 0 || !digit(i - 1)) && digit(i + 1);
    if (!sign && !digit(i)) {
      out.gaps.back() += text[i++];
      continue;
    }
    std::size_t end = i + (sign ? 1 : 0);
    while (digit(end)) ++end;
    int decimals = 0;
    if (end < text.size() && text[end] == '.' && digit(end + 1)) {
      for (++end; digit(end); ++end) ++decimals;
    }
    double value = 0.0;
    std::from_chars(text.data() + i + (text[i] == '+' ? 1 : 0),
                    text.data() + end, value);
    out.values.push_back(value);
    out.decimals.push_back(decimals);
    out.gaps.emplace_back();
    i = end;
  }
  return out;
}

bool judge(const Claim& claim, const Measured& measured) {
  const Outcome& o = claim.accepted;
  if (o.kind == Outcome::Kind::kVerdict) return measured.verdict == o.holds;
  const Numbers got = scan(measured.text);
  const List& v = got.values;
  if (measured.verdict || v.empty()) return false;
  if (o.kind == Outcome::Kind::kBand) {
    return std::all_of(v.begin(), v.end(),
                       [&o](double x) { return x >= o.lo && x <= o.hi; });
  }
  if (o.kind == Outcome::Kind::kRising || o.kind == Outcome::Kind::kFalling) {
    if (v.size() < 2) return false;  // one number has no shape, either way
    bool monotone = true;
    for (std::size_t i = 1; i < v.size(); ++i) {
      monotone = monotone && (o.kind == Outcome::Kind::kRising
                                  ? v[i] > v[i - 1]
                                  : v[i] < v[i - 1]);
    }
    return monotone == o.holds;
  }
  const Numbers want = scan(claim.paper);
  if (v.size() != want.values.size()) return false;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const int d = want.decimals[i];
    if (o.kind == Outcome::Kind::kPaper
            ? format_fixed(v[i], d) != format_fixed(want.values[i], d)
            : !(std::abs(v[i] - want.values[i]) <= o.tolerance)) {
      return false;
    }
  }
  return o.kind == Outcome::Kind::kWithin || got.gaps == want.gaps;
}

}  // namespace

const std::vector<Claim>& paper_claims() {
  static const std::vector<Claim> claims = build_registry();
  return claims;
}

bool ClaimsReport::all_hold() const {
  return std::all_of(results.begin(), results.end(),
                     [](const ClaimResult& r) { return r.holds; });
}

ClaimsReport evaluate_claims(std::span<const Claim> claims, In inputs) {
  ClaimsReport report;
  for (const auto& claim : claims) {
    ClaimResult result{.claim = &claim, .measured = claim.measure(inputs)};
    result.holds = judge(claim, result.measured);
    report.results.push_back(std::move(result));
  }
  return report;
}

std::string render_outcome(const Outcome& outcome) {
  const std::string negation = outcome.holds ? "" : "not ";
  switch (outcome.kind) {
    case Outcome::Kind::kPaper:
      return "= paper";
    case Outcome::Kind::kWithin:
      return "paper ± " + format_general(outcome.tolerance, 6);
    case Outcome::Kind::kBand:
      return format_general(outcome.lo, 6) + " .. " +
             format_general(outcome.hi, 6);
    case Outcome::Kind::kRising:
      return negation + "rising";
    case Outcome::Kind::kFalling:
      return negation + "falling";
    case Outcome::Kind::kVerdict:
      return outcome.holds ? "holds" : "violated";
  }
  return {};
}

std::string render_claims_markdown(const ClaimsReport& report) {
  std::string out =
      "# EXPERIMENTS_CLAIMS — the paper's claims, measured\n\n"
      "Generated by `build/examples/epserve_exp claims --out "
      "EXPERIMENTS_CLAIMS.md` from the claims registry (`src/exp/claims.cpp`) "
      "on the default seed; never edited by hand. After the paper's own rows "
      "come its extensions, by section, and the ablations of this "
      "repository's design choices. The accepted outcome judges "
      "the measured numbers in the units printed: `= paper` at the paper's "
      "precision, `paper ± x` within x of the paper's, `a .. b` a band, "
      "`rising` / `falling` the list's shape (`not` where the paper's shape "
      "fails here), `holds` / `violated` the measure's own verdict.\n\n"
      "| id | experiment | quantity | paper | measured | accepted |\n"
      "|---|---|---|---|---|---|\n";
  std::string notes;
  for (const auto& r : report.results) {
    const Claim& c = *r.claim;
    std::string measured = r.measured.text;
    if (r.measured.verdict) {
      measured = (*r.measured.verdict ? "holds" : "violated") +
                 (measured.empty() ? "" : ": " + measured);
    }
    out += "| `" + c.id + "` | " + c.experiment + " | " + c.quantity + " | " +
           c.paper + " | " + measured + " | " + render_outcome(c.accepted) +
           " |\n";
    if (!c.note.empty()) notes += "- `" + c.id + "`: " + c.note + ".\n";
  }
  return out + "\n## Notes\n\nWhy an accepted outcome is not the paper's own "
               "value, and whose expectation an extension or ablation row "
               "tests where the paper prints none:\n\n" + notes;
}

}  // namespace epserve::exp
