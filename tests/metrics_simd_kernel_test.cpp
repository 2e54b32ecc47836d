// metrics/simd contract tests (docs/KERNELS.md):
//
//  * every compiled-in vector variant (AVX2/AVX-512/NEON) is bitwise
//    identical to the scalar loops on both kernels, row_matrix and
//    split_accumulate, with unaligned sizes that exercise the tails, and
//    every variant rejects an out-of-range utilisation in a vector and in
//    its tail;
//  * dispatch honours EPSERVE_FORCE_SCALAR and the set_active_for_testing
//    seam, and every variant, kScalarReference included, evaluates a
//    Fleet's grid rows bitwise equal to the knot walk, on the knot band too;
//  * the whole stack is data-race-free when many threads share one Fleet
//    (run under -DEPSERVE_SANITIZE=thread via `ctest -L parallel`; the simd
//    label also re-runs this binary with EPSERVE_FORCE_SCALAR=1).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/placement.h"
#include "metrics/curve_models.h"
#include "metrics/load_level.h"
#include "metrics/power_curve.h"
#include "metrics/simd/kernels.h"
#include "util/contracts.h"

namespace epserve::metrics {
namespace {

namespace kernels = epserve::metrics::kernels;

/// Restores the dispatched kernel set on scope exit, so tests that pin a
/// variant cannot leak it into later tests.
class KernelGuard {
 public:
  KernelGuard() : saved_(kernels::active().variant) {}
  ~KernelGuard() { kernels::set_active_for_testing(saved_); }

 private:
  kernels::Variant saved_;
};

PowerCurve make_curve(double ep, double idle, double tau, double peak_watts,
                      double peak_ops) {
  auto model = TwoSegmentPowerModel::solve(ep, idle, tau);
  EXPECT_TRUE(model.ok()) << model.error().message;
  return to_power_curve(model.value(), peak_watts, peak_ops);
}

std::vector<dataset::ServerRecord> make_fleet_records(std::size_t size) {
  std::vector<dataset::ServerRecord> fleet;
  fleet.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    const double idle = 0.20 + 0.05 * static_cast<double>(i % 7);
    const double tau = 0.5 + 0.1 * static_cast<double>(i % 4);
    const double ep =
        (1.0 - idle) * (tau + 0.25 + 0.1 * static_cast<double>(i % 6));
    dataset::ServerRecord r;
    r.id = static_cast<int>(i) + 1;
    r.curve = make_curve(ep, idle, tau,
                         250.0 + 10.0 * static_cast<double>(i % 9),
                         1e6 + 1e5 * static_cast<double>(i % 11));
    fleet.push_back(std::move(r));
  }
  return fleet;
}

std::vector<double> random_utils(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  std::vector<double> utils(n);
  for (auto& u : utils) u = dist(rng);
  // Make sure every segment boundary and both endpoints are represented.
  for (std::size_t k = 0; k <= 10 && k < n; ++k) {
    utils[k] = static_cast<double>(k) / 10.0;
  }
  return utils;
}

/// Every knot 0.0, 0.1, ..., 1.0 and the 4 doubles either side of it (the
/// steps clamp at 0 and 1): the band where segment selection is most
/// fragile.
std::vector<double> knot_band() {
  std::vector<double> band;
  for (std::size_t k = 0; k <= kNumLoadLevels; ++k) {
    const double knot = k == 0 ? 0.0 : kLoadLevels[k - 1];
    band.push_back(knot);
    double lo = knot;
    double hi = knot;
    for (int step = 0; step < 4; ++step) {
      lo = std::nextafter(lo, 0.0);
      hi = std::nextafter(hi, 1.0);
      band.push_back(lo);
      band.push_back(hi);
    }
  }
  return band;
}

// --- Vector variants vs the scalar loops ----------------------------------

std::vector<kernels::Variant> compiled_vector_variants() {
  std::vector<kernels::Variant> variants;
  for (const auto v : {kernels::Variant::kGridAvx2,
                       kernels::Variant::kGridAvx512,
                       kernels::Variant::kGridNeon}) {
    if (kernels::get(v) != nullptr) variants.push_back(v);
  }
  return variants;
}

// One point per server across the whole fleet: row_matrix with one slot.
TEST(SimdKernels, VectorFleetBatchBitwiseEqualsScalar) {
  const auto records = make_fleet_records(1003);
  auto fleet = cluster::Fleet::build(records);
  ASSERT_TRUE(fleet.ok());
  const auto view = fleet.value().grid_view();
  const std::size_t servers = fleet.value().size();
  const auto utils = random_utils(servers, 11);
  std::vector<double> expected(servers);
  std::vector<double> actual(servers);
  kernels::get(kernels::Variant::kGridScalar)
      ->row_matrix(view, 0, servers, utils.data(), expected.data(), 1);
  for (const auto variant : compiled_vector_variants()) {
    const kernels::Kernels* vec = kernels::get(variant);
    vec->row_matrix(view, 0, servers, utils.data(), actual.data(), 1);
    for (std::size_t i = 0; i < servers; ++i) {
      ASSERT_EQ(actual[i], expected[i]) << vec->name << " server " << i;
    }
  }
}

TEST(SimdKernels, VectorRowKernelsBitwiseEqualScalar) {
  const auto records = make_fleet_records(37);
  auto fleet = cluster::Fleet::build(records);
  ASSERT_TRUE(fleet.ok());
  const auto view = fleet.value().grid_view();
  const std::size_t servers = fleet.value().size();
  const kernels::Kernels* scalar =
      kernels::get(kernels::Variant::kGridScalar);
  // Slot counts straddling the vector widths and the 2x-unrolled main loop.
  for (const std::size_t slots :
       {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{24},
        std::size_t{27}}) {
    const auto utils = random_utils(servers * slots, 17);
    std::vector<double> expected(utils.size());
    std::vector<double> actual(utils.size());
    scalar->row_matrix(view, 0, servers, utils.data(), expected.data(), slots);
    for (const auto variant : compiled_vector_variants()) {
      const kernels::Kernels* vec = kernels::get(variant);
      // Whole matrix in one call...
      vec->row_matrix(view, 0, servers, utils.data(), actual.data(), slots);
      for (std::size_t at = 0; at < utils.size(); ++at) {
        ASSERT_EQ(actual[at], expected[at])
            << vec->name << " slots=" << slots << " at=" << at;
      }
      // ...one row at a time (count = 1 at each row offset)...
      std::vector<double> row_out(slots);
      for (std::size_t i = 0; i < servers; ++i) {
        vec->row_matrix(view, i, 1, utils.data() + i * slots, row_out.data(),
                        slots);
        for (std::size_t d = 0; d < slots; ++d) {
          ASSERT_EQ(row_out[d], expected[i * slots + d])
              << vec->name << " slots=" << slots << " server=" << i;
        }
      }
      // ...and a block that starts at a nonzero offset.
      const std::size_t tail = servers / 2;
      vec->row_matrix(view, tail, servers - tail, utils.data() + tail * slots,
                      actual.data(), slots);
      for (std::size_t at = 0; at < (servers - tail) * slots; ++at) {
        ASSERT_EQ(actual[at], expected[tail * slots + at])
            << vec->name << " slots=" << slots << " offset block at=" << at;
      }
    }
  }
}

TEST(SimdKernels, RowKernelsRejectOutOfRange) {
  const auto records = make_fleet_records(5);
  auto fleet = cluster::Fleet::build(records);
  ASSERT_TRUE(fleet.ok());
  const auto view = fleet.value().grid_view();
  std::vector<kernels::Variant> variants = {kernels::Variant::kGridScalar};
  for (const auto v : compiled_vector_variants()) variants.push_back(v);
  for (const auto variant : variants) {
    const kernels::Kernels* k = kernels::get(variant);
    // Violations in the vector body and in the scalar tail: above 1, below
    // 0 and NaN.
    for (const double bad :
         {1.5, -0.001, std::numeric_limits<double>::quiet_NaN()}) {
      for (const std::size_t bad_at : {std::size_t{2}, std::size_t{8}}) {
        std::vector<double> utils(9, 0.5);
        utils[bad_at] = bad;
        std::vector<double> out(utils.size());
        EXPECT_THROW(
            k->row_matrix(view, 1, 1, utils.data(), out.data(), utils.size()),
            ContractViolation)
            << k->name << " bad=" << bad << " bad_at=" << bad_at;
        EXPECT_THROW(k->row_matrix(view, 0, 3, utils.data(), out.data(), 3),
                     ContractViolation)
            << k->name << " bad=" << bad << " matrix bad_at=" << bad_at;
      }
    }
  }
}

// split_accumulate over lane counts around each vector width, shared and
// per-row lane values (stride 0 and n), and terms that are zero, -0.0,
// NaN, infinite, subnormal, or outside their lane's window; one lane has no
// window yet (all zero). Both accumulators and the left-out flag must
// match the scalar loop bit for bit.
TEST(SimdKernels, VectorSplitAccumulateBitwiseEqualsScalar) {
  const kernels::Kernels* scalar =
      kernels::get(kernels::Variant::kGridScalar);
  std::mt19937_64 rng(29);
  std::uniform_real_distribution<double> value(1.0, 2.0);
  std::uniform_int_distribution<int> binade(-30, 30);
  std::uniform_int_distribution<int> pick(0, 15);
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             -1e300};
  for (const std::size_t n : {1, 3, 4, 5, 8, 9, 17}) {
    std::vector<double> split(n, 0.0);
    std::vector<double> lo(n, 0.0);
    std::vector<double> hi(n, 0.0);
    for (std::size_t k = 1; k < n; ++k) {
      const int e = binade(rng) / 3;
      lo[k] = std::ldexp(1.0, e - 18);
      hi[k] = std::ldexp(1.0, e + 19);
      split[k] = std::ldexp(1.5, e + 27);
    }
    for (const std::size_t rows : {0, 1, 7, 256}) {
      for (const std::size_t stride : {std::size_t{0}, n}) {
        std::vector<double> x(std::max<std::size_t>(rows * stride, 1) + n);
        for (double& v : x) {
          const int which = pick(rng);
          v = which < 6 ? specials[which]
                        : std::ldexp(value(rng), binade(rng)) *
                              (which % 2 == 0 ? 1.0 : -1.0);
        }
        std::vector<double> s(rows);
        for (double& v : s) v = std::ldexp(value(rng), binade(rng) / 4);
        if (rows > 2) s[1] = -s[1];
        std::vector<double> want_hi(n, 0.25);
        std::vector<double> want_lo(n, -0.5);
        const bool want_left_out = scalar->split_accumulate(
            kernels::SplitLanes{want_hi.data(), want_lo.data(), split.data(),
                                lo.data(), hi.data()},
            x.data(), stride, s.data(), rows, n);
        for (const auto variant : compiled_vector_variants()) {
          const kernels::Kernels* vec = kernels::get(variant);
          std::vector<double> got_hi(n, 0.25);
          std::vector<double> got_lo(n, -0.5);
          const bool got_left_out = vec->split_accumulate(
              kernels::SplitLanes{got_hi.data(), got_lo.data(), split.data(),
                                  lo.data(), hi.data()},
              x.data(), stride, s.data(), rows, n);
          EXPECT_EQ(got_left_out, want_left_out)
              << vec->name << " n=" << n << " rows=" << rows;
          for (std::size_t k = 0; k < n; ++k) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got_hi[k]),
                      std::bit_cast<std::uint64_t>(want_hi[k]))
                << vec->name << " hi n=" << n << " rows=" << rows
                << " stride=" << stride << " k=" << k;
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got_lo[k]),
                      std::bit_cast<std::uint64_t>(want_lo[k]))
                << vec->name << " lo n=" << n << " rows=" << rows
                << " stride=" << stride << " k=" << k;
          }
        }
      }
    }
  }
}

// --- Dispatch --------------------------------------------------------------

TEST(KernelDispatch, DetectHonorsForceScalarEnvironment) {
  const char* before = std::getenv("EPSERVE_FORCE_SCALAR");
  const std::string saved = before != nullptr ? before : "";
  ::setenv("EPSERVE_FORCE_SCALAR", "1", 1);
  EXPECT_EQ(kernels::detect(), kernels::Variant::kScalarReference);
  ::setenv("EPSERVE_FORCE_SCALAR", "0", 1);
  EXPECT_NE(kernels::detect(), kernels::Variant::kScalarReference);
  if (before != nullptr) {
    ::setenv("EPSERVE_FORCE_SCALAR", saved.c_str(), 1);
  } else {
    ::unsetenv("EPSERVE_FORCE_SCALAR");
  }
}

// Run both with and without EPSERVE_FORCE_SCALAR=1 by the simd ctest label:
// active() must agree with whatever the environment says.
TEST(KernelDispatch, ActiveRespectsForceScalar) {
  const char* force = std::getenv("EPSERVE_FORCE_SCALAR");
  const bool forced = force != nullptr && std::string(force) != "0" &&
                      std::string(force) != "";
  // Another test may have pinned a variant; active() still answers, and
  // detect() reflects the environment.
  if (forced) {
    EXPECT_EQ(kernels::detect(), kernels::Variant::kScalarReference);
  } else {
    EXPECT_NE(kernels::detect(), kernels::Variant::kScalarReference);
  }
  EXPECT_NE(kernels::active().name, nullptr);
}

TEST(KernelDispatch, SetActiveForTestingRoundTrips) {
  KernelGuard guard;
  ASSERT_TRUE(
      kernels::set_active_for_testing(kernels::Variant::kScalarReference));
  EXPECT_EQ(kernels::active().variant, kernels::Variant::kScalarReference);
  ASSERT_TRUE(kernels::set_active_for_testing(kernels::Variant::kGridScalar));
  EXPECT_EQ(kernels::active().variant, kernels::Variant::kGridScalar);
}

TEST(KernelDispatch, VariantNamesAreStable) {
  EXPECT_STREQ(kernels::variant_name(kernels::Variant::kScalarReference),
               "scalar-reference");
  EXPECT_STREQ(kernels::variant_name(kernels::Variant::kGridScalar),
               "grid-scalar");
  EXPECT_STREQ(kernels::variant_name(kernels::Variant::kGridAvx2),
               "grid-avx2");
  EXPECT_STREQ(kernels::variant_name(kernels::Variant::kGridAvx512),
               "grid-avx512");
  EXPECT_STREQ(kernels::variant_name(kernels::Variant::kGridNeon),
               "grid-neon");
}

// --- Fleet integration -----------------------------------------------------

TEST(FleetKernels, EveryVariantMatchesPowerCurveReference) {
  const auto records = make_fleet_records(257);
  auto built = cluster::Fleet::build(records);
  ASSERT_TRUE(built.ok());
  const cluster::Fleet& fleet = built.value();
  const auto utils = random_utils(fleet.size(), 23);

  std::vector<double> reference(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    reference[i] = records[i].curve.normalized_power(utils[i]);
  }

  KernelGuard guard;
  std::vector<kernels::Variant> variants = {
      kernels::Variant::kScalarReference, kernels::Variant::kGridScalar};
  for (const auto v : compiled_vector_variants()) variants.push_back(v);
  for (const auto variant : variants) {
    ASSERT_TRUE(kernels::set_active_for_testing(variant));
    // One point per server: the matrix form with one slot.
    std::vector<double> out(fleet.size());
    fleet.normalized_power_matrix(0, fleet.size(), utils, out, 1);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      ASSERT_EQ(out[i], reference[i])
          << kernels::variant_name(variant) << " server " << i;
    }
    // One server against many utilisations: count = 1 at row offset 5.
    const auto point_utils = random_utils(97, 31);
    std::vector<double> batch(point_utils.size());
    fleet.normalized_power_matrix(5, 1, point_utils, batch,
                                  point_utils.size());
    for (std::size_t k = 0; k < point_utils.size(); ++k) {
      ASSERT_EQ(batch[k], records[5].curve.normalized_power(point_utils[k]))
          << kernels::variant_name(variant) << " k=" << k;
    }
    // The knot band through every shape, for every server: each call must
    // equal the curve's own knot walk bit for bit.
    const auto band = knot_band();
    std::vector<double> band_out(band.size());
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      fleet.normalized_power_matrix(i, 1, band, band_out, band.size());
      for (std::size_t k = 0; k < band.size(); ++k) {
        ASSERT_EQ(band_out[k], records[i].curve.normalized_power(band[k]))
            << kernels::variant_name(variant) << " batch server " << i
            << " u = " << band[k];
      }
    }
    std::vector<double> band_matrix_utils;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      band_matrix_utils.insert(band_matrix_utils.end(), band.begin(),
                               band.end());
    }
    std::vector<double> band_matrix(band_matrix_utils.size());
    fleet.normalized_power_matrix(0, fleet.size(), band_matrix_utils,
                                  band_matrix, band.size());
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      for (std::size_t k = 0; k < band.size(); ++k) {
        ASSERT_EQ(band_matrix[i * band.size() + k],
                  records[i].curve.normalized_power(band[k]))
            << kernels::variant_name(variant) << " matrix server " << i
            << " u = " << band[k];
      }
    }
    std::vector<double> rotated(fleet.size());
    for (std::size_t shift = 0; shift < band.size(); ++shift) {
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        rotated[i] = band[(i + shift) % band.size()];
      }
      fleet.normalized_power_matrix(0, fleet.size(), rotated, out, 1);
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        ASSERT_EQ(out[i], records[i].curve.normalized_power(rotated[i]))
            << kernels::variant_name(variant) << " per-server server " << i
            << " u = " << rotated[i];
      }
    }
    // Blocked matrix API: every (server, slot) cell equals the one-row
    // result at that row offset, including a block that does not start at
    // server 0.
    constexpr std::size_t kSlots = 11;
    constexpr std::size_t kFirst = 3;
    const std::size_t count = fleet.size() - kFirst;
    const auto matrix_utils = random_utils(count * kSlots, 41);
    std::vector<double> matrix(count * kSlots);
    fleet.normalized_power_matrix(kFirst, count, matrix_utils, matrix, kSlots);
    std::vector<double> row(kSlots);
    for (std::size_t r = 0; r < count; ++r) {
      fleet.normalized_power_matrix(
          kFirst + r, 1,
          std::span<const double>(matrix_utils.data() + r * kSlots, kSlots),
          row, kSlots);
      for (std::size_t d = 0; d < kSlots; ++d) {
        ASSERT_EQ(matrix[r * kSlots + d], row[d])
            << kernels::variant_name(variant) << " row " << r << " slot " << d;
      }
    }
  }
}

TEST(FleetKernels, EvaluateBatchIdenticalAcrossVariants) {
  const auto records = make_fleet_records(400);
  auto built = cluster::Fleet::build(records);
  ASSERT_TRUE(built.ok());
  const cluster::Fleet& fleet = built.value();
  const std::vector<double> demands = {0.0, 0.15, 0.33, 0.5, 0.72, 0.9, 1.0};
  const cluster::OptimalRegionPolicy policy;

  KernelGuard guard;
  ASSERT_TRUE(kernels::set_active_for_testing(
      kernels::Variant::kScalarReference));
  auto reference = cluster::evaluate_batch(policy, fleet, demands);
  ASSERT_TRUE(reference.ok());

  std::vector<kernels::Variant> variants = {kernels::Variant::kGridScalar};
  for (const auto v : compiled_vector_variants()) variants.push_back(v);
  for (const auto variant : variants) {
    ASSERT_TRUE(kernels::set_active_for_testing(variant));
    auto result = cluster::evaluate_batch(policy, fleet, demands);
    ASSERT_TRUE(result.ok());
    for (std::size_t d = 0; d < demands.size(); ++d) {
      ASSERT_EQ(result.value()[d].total_power_watts,
                reference.value()[d].total_power_watts)
          << kernels::variant_name(variant) << " demand " << demands[d];
      ASSERT_EQ(result.value()[d].total_ops, reference.value()[d].total_ops)
          << kernels::variant_name(variant) << " demand " << demands[d];
    }
  }
}

TEST(FleetKernels, SharedFleetIsRaceFreeAcrossThreads) {
  const auto records = make_fleet_records(512);
  auto built = cluster::Fleet::build(records);
  ASSERT_TRUE(built.ok());
  const cluster::Fleet& fleet = built.value();
  constexpr int kThreads = 8;
  std::vector<std::vector<double>> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&fleet, &results, t] {
        const auto utils =
            random_utils(fleet.size(), static_cast<std::uint32_t>(100 + t));
        std::vector<double> out(fleet.size());
        for (int round = 0; round < 16; ++round) {
          fleet.normalized_power_matrix(0, fleet.size(), utils, out, 1);
        }
        results[static_cast<std::size_t>(t)] = std::move(out);
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    const auto utils =
        random_utils(fleet.size(), static_cast<std::uint32_t>(100 + t));
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      ASSERT_EQ(results[static_cast<std::size_t>(t)][i],
                fleet.normalized_power(i, utils[i]))
          << "thread " << t << " server " << i;
    }
  }
}

}  // namespace
}  // namespace epserve::metrics
