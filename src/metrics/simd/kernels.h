// metrics/simd — batch power kernels with one-time runtime dispatch.
//
// The cluster layer's batch paths (placement accounting, the day
// simulator, the autoscaler) bottom out in the same normalized-power
// interpolation. This layer provides that interpolation as branch-free
// batch kernels over the Fleet's native 10-bin rows (one bin per SPECpower
// knot segment), with explicit AVX2, AVX-512 (x86-64) and NEON (arm64)
// implementations selected once per process by kernels::active():
//
//   kScalarReference  forcible with EPSERVE_FORCE_SCALAR=1: the same plain
//                     scalar loops as kGridScalar, so a forced-scalar run
//                     uses no vector ISA and prints the same bytes (the row
//                     expression is the knot walk of
//                     PowerCurve::normalized_power);
//   kGridScalar       the row expression as a plain scalar loop — the
//                     portable fallback and the bitwise reference the vector
//                     variants are tested against;
//   kGridAvx2         AVX2 intrinsics, 4 lanes/vector, lane-wise bin
//                     loads. Compiled with -mavx2 in its own TU only
//                     (CMake EPSERVE_SIMD); never called unless CPUID
//                     reports AVX2.
//   kGridAvx512       AVX-512F/DQ intrinsics, 8 lanes/vector; a row's ten
//                     bins are held in register pairs and looked up with
//                     vpermi2pd. Preferred over AVX2 when CPUID reports
//                     both avx512f and avx512dq.
//   kGridNeon         NEON intrinsics, 2 lanes/vector (arm64 baseline ISA).
//
// A table holds two entries, each kept for the caller that uses it
// (docs/KERNELS.md):
//
//   row_matrix        Fleet::normalized_power_matrix: account_batch's and
//                     the autoscaler's blocks of servers;
//   split_accumulate  the exact per-level sums of a balanced batch and of
//                     the autoscaler's levels (cluster/lane_sums.h).
//
// Bitwise policy (docs/KERNELS.md): every variant evaluates the exact
// scalar expression `(w0[idx] + (u - u0[idx]) * m[idx]) * inv_peak` with
// round-to-nearest IEEE ops and no FMA contraction, on the bin the knot
// walk picks (u * 10 truncated, clamped to [0, 9]), so every vector variant
// matches kGridScalar bit-for-bit and all of them match the knot-walk
// reference at every utilisation.
#pragma once

#include <cstddef>
#include <cstdint>

namespace epserve::metrics::kernels {

enum class Variant : std::uint8_t {
  kScalarReference = 0,
  kGridScalar = 1,
  kGridAvx2 = 2,
  kGridNeon = 3,
  kGridAvx512 = 4,
};

/// Whole-fleet grid at native resolution: per-server rows of kRowBins bins
/// (the ten SPECpower knot segments), index-aligned with the fleet. u0 is
/// the shared kRowU0 array — identical for every server, so it is not
/// replicated per row. Callers bound the row indices they pass by the
/// fleet's size.
struct FleetGridView {
  static constexpr std::int32_t kRowBins = 10;
  const double* w0 = nullptr;        // [servers * kRowBins], row i at i*10
  const double* m = nullptr;         // [servers * kRowBins]
  const double* inv_peak = nullptr;  // [servers]
};

/// Left-knot utilisations of the native grid's ten segments:
/// {0.0, 0.1, ..., 0.9}, bitwise equal to InterpolationTable::knot_u[0..9].
extern const double kRowU0[FleetGridView::kRowBins];

/// The lanes of split_accumulate, n entries each: lane k's two running
/// accumulators and its window (split, lo, hi).
struct SplitLanes {
  double* hi_acc = nullptr;
  double* lo_acc = nullptr;
  const double* split = nullptr;
  const double* lo = nullptr;
  const double* hi = nullptr;
};

/// One selected kernel set. Function pointers, not virtuals: the table is
/// immutable after dispatch and the calls sit inside per-batch loops.
struct Kernels {
  Variant variant = Variant::kGridScalar;
  const char* name = "";  // wire/CLI name, e.g. "grid-avx2"

  /// Blocked rows of the fleet grid, the batch accounting's loop: for
  /// servers i0..i0+count-1, out[r*slots + d] = normalized power of server
  /// i0+r at utils[r*slots + d], bitwise the knot walk of that server's
  /// curve. Precondition: every utilisation in [0, 1]; violations raise
  /// ContractViolation, checked per vector, not per point, in the SIMD
  /// variants. One call amortises all dispatch and setup cost across the
  /// whole block.
  void (*row_matrix)(const FleetGridView& fleet, std::size_t i0,
                     std::size_t count, const double* utils, double* out,
                     std::size_t slots) = nullptr;

  /// The inner loop of an exact sum per lane (cluster/lane_sums.h, behind
  /// the uniform batch's and the autoscaler's level totals): for every row
  /// r < rows and lane k < n, with p = x[r * stride + k] * s[r] (one
  /// rounded multiply), a term that is zero or has lo[k] <= |p| < hi[k]
  /// adds h = (p + split[k]) - split[k] to hi_acc[k] and p - h to
  /// lo_acc[k]; any other term (NaN included) adds nothing. Returns whether
  /// any term was left out. Plain round-to-nearest ops in that order, each
  /// lane's rows in turn, so every variant writes the same bits; the
  /// caller's windows make each add exact.
  bool (*split_accumulate)(const SplitLanes& lanes, const double* x,
                           std::size_t stride, const double* s,
                           std::size_t rows, std::size_t n) = nullptr;
};

/// The process-wide kernel set, chosen on first call and cached:
/// EPSERVE_FORCE_SCALAR=1 (any value other than "0") forces
/// kScalarReference; otherwise the best ISA the CPU reports (AVX-512, then
/// AVX2, via CPUID on x86-64; NEON on arm64), falling back to kGridScalar.
/// Publishes the `kernel.dispatch` telemetry gauge (the Variant value) when
/// telemetry is enabled at selection time. Thread-safe.
const Kernels& active();

/// What active() would select given the current environment and CPU,
/// re-evaluated on every call (active() itself never re-reads the env).
Variant detect();

/// Kernel set for an explicit variant, or nullptr when it was compiled out
/// (EPSERVE_SIMD=OFF / wrong architecture) or the CPU lacks the ISA.
/// kScalarReference and kGridScalar are always available.
const Kernels* get(Variant variant);

/// Replaces the active kernel set (test/bench seam — benches byte-compare
/// end-to-end runs across variants in one process). Fails (returns false,
/// active unchanged) when get(variant) is unavailable.
bool set_active_for_testing(Variant variant);

/// Wire/CLI name of a variant ("scalar-reference", "grid-scalar",
/// "grid-avx2", "grid-avx512", "grid-neon").
const char* variant_name(Variant variant);

}  // namespace epserve::metrics::kernels
