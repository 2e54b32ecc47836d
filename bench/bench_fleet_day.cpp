// Fleet engine vs the pre-Fleet scalar cluster path on a full simulated day:
// three placement policies over a 24-slot diurnal trace on a 5000-server
// synthetic fleet.
//
//   scalar      — the cluster layer as it stood before the Fleet refactor,
//                 reimplemented here verbatim: every evaluate() call re-sorts
//                 the fleet with per-comparison metric calls (ee_at_level,
//                 peak_ee), recomputes every optimal region, and walks each
//                 server's power curve through scalar normalized_power().
//   fleet       — compare_policies_over_day(Fleet, trace): one Fleet build
//                 amortises the sort keys, region tops, and per-server grid
//                 rows; power lookups go through the batch kernels.
//   fleet build — Fleet::build alone (snapshot + derived columns + grid
//                 rows), rebuilt per iteration. Reported, not gated: callers
//                 build once per fleet.
//
// The batch power kernel is also timed on its own (docs/KERNELS.md): the
// whole-fleet normalized-power evaluation through the plain scalar loop
// (kScalarReference) vs the dispatched grid/SIMD kernel, byte-comparing the
// outputs, with a separate 4x gate — so end-to-end wins (dominated by the
// placement sort/fill) cannot mask a kernel regression, and vice versa.
//
// Every per-policy energy/served/efficiency number is digested and
// byte-compared between the two paths — the speedup only counts if the
// outputs are bit-identical. The timed scalar pass sums sequentially, as
// the scalar path always did; an untimed second pass takes every total as
// the exact sum of the same terms (tests/fsum_reference.h), the library's
// contract, yields the digest the fleet side is compared with, and checks
// that each sequential sum lies within the standard error bound of the
// exact one. The day simulation is additionally re-run with
// the kernel dispatch pinned to kScalarReference (what EPSERVE_FORCE_SCALAR=1
// selects) and must reproduce the same digest. Exits 1 on any digest
// mismatch, if the fleet path is below the 3x end-to-end target, or if a
// vector kernel is compiled in but below the 4x kernel target.
#include "common.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "cluster/day_simulation.h"
#include "cluster/fleet.h"
#include "cluster/placement.h"
#include "cluster/working_region.h"
#include "exp/gate.h"
#include "metrics/curve_models.h"
#include "metrics/efficiency.h"
#include "metrics/simd/kernels.h"
#include "../tests/fsum_reference.h"

namespace {

using namespace epserve;

constexpr std::size_t kFleetSize = 5000;

/// Deterministic heterogeneous fleet (same parameter cycling as the Fleet
/// equivalence tests): EP derived from idle/tau so every record is feasible.
std::vector<dataset::ServerRecord> make_fleet(std::size_t size) {
  std::vector<dataset::ServerRecord> fleet;
  fleet.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    const double idle = 0.20 + 0.05 * static_cast<double>(i % 7);
    const double tau = 0.5 + 0.1 * static_cast<double>(i % 4);
    const double ep =
        (1.0 - idle) * (tau + 0.25 + 0.1 * static_cast<double>(i % 6));
    auto model = metrics::TwoSegmentPowerModel::solve(ep, idle, tau);
    if (!model.ok()) {
      std::fprintf(stderr, "fleet synthesis failed: %s\n",
                   model.error().message.c_str());
      std::exit(1);
    }
    dataset::ServerRecord r;
    r.id = static_cast<int>(i) + 1;
    r.curve = metrics::to_power_curve(model.value(),
                                      250.0 + 10.0 * static_cast<double>(i % 9),
                                      1e6 + 1e5 * static_cast<double>(i % 11));
    fleet.push_back(std::move(r));
  }
  return fleet;
}

struct Digest {
  std::vector<double> values;
  /// Whether every sequential sum lay within its bound of the exact one.
  bool sequential_within_bound = true;
  void add(double v) { values.push_back(v); }
};

/// The timed scalar pass's running total: the sequential sum the scalar
/// path always took.
struct SequentialTotal {
  double sum = 0.0;
  void add(double x) { sum += x; }
  double value(Digest& /*digest*/) const { return sum; }
};

/// The untimed pass's total: the exact sum of the same terms, recording in
/// the digest whether their sequential sum lay within its error bound.
struct ExactTotal {
  std::vector<double> terms;
  void add(double x) { terms.push_back(x); }
  double value(Digest& digest) const {
    const double exact = fsum_reference::fsum(terms);
    digest.sequential_within_bound =
        digest.sequential_within_bound &&
        fsum_reference::within_sequential_bound(
            terms, fsum_reference::sequential_sum(terms), exact);
    return exact;
  }
};

// --- scalar side: the cluster layer before the Fleet refactor ---------------

std::vector<std::size_t> scalar_order_by(
    const std::vector<dataset::ServerRecord>& fleet,
    const std::function<double(const dataset::ServerRecord&)>& score) {
  std::vector<std::size_t> order(fleet.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double sa = score(fleet[a]);
    const double sb = score(fleet[b]);
    if (sa != sb) return sa > sb;
    return fleet[a].id < fleet[b].id;
  });
  return order;
}

void scalar_greedy_fill(const std::vector<dataset::ServerRecord>& fleet,
                        const std::vector<std::size_t>& order,
                        const std::vector<double>& cap_util,
                        std::vector<double>& util, double& remaining_ops) {
  for (const auto idx : order) {
    if (remaining_ops <= 0.0) break;
    const double headroom_util = cap_util[idx] - util[idx];
    if (headroom_util <= 0.0) continue;
    const double headroom_ops = headroom_util * fleet[idx].curve.peak_ops();
    const double take = std::min(headroom_ops, remaining_ops);
    util[idx] += take / fleet[idx].curve.peak_ops();
    remaining_ops -= take;
  }
}

template <typename Total>
std::vector<double> scalar_place(
    Digest& digest, const std::vector<dataset::ServerRecord>& fleet,
    const std::string& policy, double demand) {
  std::vector<double> util(fleet.size(), 0.0);
  if (policy == "balanced") {
    return std::vector<double>(fleet.size(), demand);
  }
  Total capacity;
  for (const auto& s : fleet) capacity.add(s.curve.peak_ops());
  double remaining = demand * capacity.value(digest);
  if (policy == "pack-to-full") {
    const auto order = scalar_order_by(fleet, [](const auto& r) {
      return metrics::ee_at_level(r.curve, metrics::kNumLoadLevels - 1);
    });
    const std::vector<double> caps(fleet.size(), 1.0);
    scalar_greedy_fill(fleet, order, caps, util, remaining);
    return util;
  }
  std::vector<double> region_top(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const cluster::Region region = cluster::optimal_region(fleet[i].curve, 0.95);
    region_top[i] = region.empty() ? 1.0 : region.hi;
  }
  const auto order = scalar_order_by(fleet, [](const auto& r) {
    return metrics::peak_ee(r.curve).value;
  });
  scalar_greedy_fill(fleet, order, region_top, util, remaining);
  if (remaining > 0.0) {
    const std::vector<double> caps(fleet.size(), 1.0);
    scalar_greedy_fill(fleet, order, caps, util, remaining);
  }
  return util;
}

template <typename Total>
Digest scalar_day(const std::vector<dataset::ServerRecord>& fleet,
                  const cluster::DemandTrace& trace) {
  Digest d;
  for (const char* policy : {"pack-to-full", "balanced", "optimal-region"}) {
    Total energy_kwh_total;
    Total served_gops_total;
    for (const double demand : trace.demand) {
      const auto util = scalar_place<Total>(d, fleet, policy, demand);
      Total total_power_watts;
      Total total_ops;
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        const double clamped = std::clamp(util[i], 0.0, 1.0);
        total_power_watts.add(fleet[i].curve.normalized_power(clamped) *
                              fleet[i].curve.peak_watts());
        total_ops.add(clamped * fleet[i].curve.peak_ops());
      }
      energy_kwh_total.add(total_power_watts.value(d) * trace.slot_hours /
                           1000.0);
      served_gops_total.add(total_ops.value(d) * trace.slot_hours * 3600.0 /
                            1e9);
    }
    const double energy_kwh = energy_kwh_total.value(d);
    const double served_gops = served_gops_total.value(d);
    const double joules = energy_kwh * 3.6e6;
    d.add(energy_kwh);
    d.add(served_gops);
    d.add(joules > 0.0 ? served_gops * 1e9 / joules : 0.0);
  }
  return d;
}

// --- fleet side --------------------------------------------------------------

Digest fleet_day(const cluster::Fleet& fleet,
                 const cluster::DemandTrace& trace) {
  auto results = cluster::compare_policies_over_day(fleet, trace);
  if (!results.ok()) {
    std::fprintf(stderr, "fleet day failed: %s\n",
                 results.error().message.c_str());
    std::exit(1);
  }
  Digest d;
  for (const auto& day : results.value()) {
    d.add(day.energy_kwh);
    d.add(day.served_gops);
    d.add(day.avg_efficiency);
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
      "fleet day simulation — batch-first Fleet vs pre-refactor scalar path",
      "3 policies x 24 diurnal slots x 5000 servers, identical outputs");
  const auto records = make_fleet(kFleetSize);
  const auto trace = cluster::make_trace("diurnal").value();
  const auto built = cluster::Fleet::build(records);
  if (!built.ok()) {
    std::fprintf(stderr, "Fleet::build failed: %s\n",
                 built.error().message.c_str());
    return 1;
  }
  constexpr int kIters = 5;

  Digest sequential_digest;
  const double scalar_s = time_iterations(kIters, [&] {
    sequential_digest = scalar_day<SequentialTotal>(records, trace);
  });
  const Digest scalar_digest = scalar_day<ExactTotal>(records, trace);
  Digest fleet_digest;
  const double fleet_s = time_iterations(
      kIters, [&] { fleet_digest = fleet_day(built.value(), trace); });
  const double build_s = time_iterations(kIters, [&] {
    const auto rebuilt = cluster::Fleet::build(records);
    if (!rebuilt.ok()) std::exit(1);
  });

  // --- batch-kernel phase: scalar loop vs the dispatched kernel -----------
  // The day simulation's inner kernel shape: normalized power of every
  // server at all 24 diurnal slots, issued as the same blocked
  // normalized_power_matrix calls evaluate_batch makes (server-major rows,
  // each server's grid row cache-resident across its slot batch).
  namespace kernels = metrics::kernels;
  const kernels::Variant dispatched = kernels::active().variant;
  const bool have_vector =
      kernels::get(kernels::Variant::kGridAvx512) != nullptr ||
      kernels::get(kernels::Variant::kGridAvx2) != nullptr ||
      kernels::get(kernels::Variant::kGridNeon) != nullptr;
  constexpr int kKernelRounds = 100;
  constexpr std::size_t kKernelBlock = 256;  // evaluate_batch's block size
  const std::size_t slots = trace.demand.size();
  // One block's worth of utilisations, reused for every block: in
  // evaluate_batch the clamp step writes the block matrix immediately before
  // the kernel reads it, so the kernel always sees a cache-hot block.
  std::vector<double> block_utils(kKernelBlock * slots);
  for (std::size_t at = 0; at < block_utils.size(); ++at) {
    block_utils[at] =
        static_cast<double>((at * 2654435761u) % 1000u) / 999.0;
  }
  // Timed passes write into a reused block-sized buffer, like
  // evaluate_batch's norm block (the full fleet x slots matrix never exists
  // on the real path); the full matrices are produced by separate untimed
  // passes purely for the bitwise cross-variant check below.
  std::vector<double> block_out(kKernelBlock * slots);
  std::vector<double> kernel_out_scalar(kFleetSize * slots);
  std::vector<double> kernel_out_simd(kFleetSize * slots);
  const auto kernel_pass = [&] {
    for (std::size_t i0 = 0; i0 < kFleetSize; i0 += kKernelBlock) {
      const std::size_t count = std::min(kKernelBlock, kFleetSize - i0);
      built.value().normalized_power_matrix(
          i0, count,
          std::span<const double>(block_utils.data(), count * slots),
          std::span<double>(block_out.data(), count * slots), slots);
    }
  };
  const auto kernel_full_matrix = [&](std::vector<double>& out) {
    for (std::size_t i0 = 0; i0 < kFleetSize; i0 += kKernelBlock) {
      const std::size_t count = std::min(kKernelBlock, kFleetSize - i0);
      built.value().normalized_power_matrix(
          i0, count,
          std::span<const double>(block_utils.data(), count * slots),
          std::span<double>(out.data() + i0 * slots, count * slots), slots);
    }
  };
  kernels::set_active_for_testing(kernels::Variant::kScalarReference);
  const double kernel_scalar_s =
      time_iterations(kKernelRounds, [&] { kernel_pass(); });
  kernel_full_matrix(kernel_out_scalar);
  kernels::set_active_for_testing(dispatched);
  const double kernel_simd_s =
      time_iterations(kKernelRounds, [&] { kernel_pass(); });
  kernel_full_matrix(kernel_out_simd);
  const double kernel_speedup = kernel_scalar_s / kernel_simd_s;
  const double kernel_points =
      static_cast<double>(kFleetSize) * static_cast<double>(slots) *
      kKernelRounds;

  // The day simulation again, with dispatch pinned to the scalar reference —
  // the exact path EPSERVE_FORCE_SCALAR=1 selects in production.
  kernels::set_active_for_testing(kernels::Variant::kScalarReference);
  const Digest forced_scalar_digest = fleet_day(built.value(), trace);
  kernels::set_active_for_testing(dispatched);

  const double speedup = scalar_s / fleet_s;
  TextTable table;
  table.columns({"day simulation path", "ms/iteration", "speedup"});
  table.row({"scalar (per-call sort + scalar power)",
             format_fixed(1000.0 * scalar_s / kIters, 3), "1.00x"});
  table.row({"fleet (cached columns + batch kernels)",
             format_fixed(1000.0 * fleet_s / kIters, 3),
             format_fixed(speedup, 2) + "x"});
  table.row({"fleet build (one-time cost)",
             format_fixed(1000.0 * build_s / kIters, 3), "amortized"});
  std::cout << table.render();

  TextTable kernel_table;
  kernel_table.columns({"batch power kernel", "ns/point", "speedup"});
  kernel_table.row({"scalar loop (scalar reference)",
                    format_fixed(1e9 * kernel_scalar_s / kernel_points, 3),
                    "1.00x"});
  kernel_table.row({std::string("dispatched (") +
                        kernels::variant_name(dispatched) + ")",
                    format_fixed(1e9 * kernel_simd_s / kernel_points, 3),
                    format_fixed(kernel_speedup, 2) + "x"});
  std::cout << kernel_table.render();

  // Machine-readable summary, harvested by bench/run_benches.sh.
  std::printf(
      "BENCH_JSON {\"servers\": %zu, \"day_ms_scalar\": %.4f, "
      "\"day_ms_fleet\": %.4f, \"fleet_build_ms\": %.4f, "
      "\"day_speedup\": %.2f, \"kernel_ns_scalar\": %.4f, "
      "\"kernel_ns_simd\": %.4f, \"kernel_speedup\": %.2f, "
      "\"kernel_variant\": \"%s\"}\n",
      kFleetSize, 1000.0 * scalar_s / kIters, 1000.0 * fleet_s / kIters,
      1000.0 * build_s / kIters, speedup,
      1e9 * kernel_scalar_s / kernel_points,
      1e9 * kernel_simd_s / kernel_points, kernel_speedup,
      kernels::variant_name(dispatched));

  exp::Gate gate("bench_fleet_day");
  gate.require("scalar sequential sums within their error bound",
               scalar_digest.sequential_within_bound);
  gate.bytes_equal("day digest: fleet vs scalar",
                   std::span<const double>(fleet_digest.values),
                   std::span<const double>(scalar_digest.values));
  gate.bytes_equal("day digest: forced-scalar vs scalar",
                   std::span<const double>(forced_scalar_digest.values),
                   std::span<const double>(scalar_digest.values));
  gate.bytes_equal("kernel matrix: dispatched vs scalar reference",
                   std::span<const double>(kernel_out_simd),
                   std::span<const double>(kernel_out_scalar));
  gate.floor("day speedup (x)", speedup, 3.0);
  if (have_vector) {
    gate.floor(std::string("kernel speedup (x, ") +
                   kernels::variant_name(dispatched) + ")",
               kernel_speedup, 4.0);
  }
  return gate.finish();
}
