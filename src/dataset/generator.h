// PopulationGenerator: produces the calibrated synthetic 477-server
// population the analysis layer studies (the stand-in for SPEC's published
// result set — see DESIGN.md for the substitution argument).
//
// Generation pipeline per server:
//   1. Pick a (hardware-availability year, codename) cohort slot from the
//      calibration plan; pinned exemplars claim their slots first.
//   2. Sample a target EP around the cohort mean; apply the chip-count,
//      node-count, and memory-per-core shifts from the plan.
//   3. Assign a peak-EE utilisation spot from the year's Fig.16 quota —
//      interior spots go to the highest-EP servers of the year, matching the
//      paper's observation that high EP and early ideal-curve intersection
//      travel together.
//   4. Choose an idle fraction inside the feasibility window of the
//      two-segment curve model (peak-at-tau requires idle > (1-EP)/tau;
//      peak-at-100% requires idle < (1-EP)/tau_shape) near the codename's
//      typical idle fraction.
//   5. Solve the TwoSegmentPowerModel for the exact EP, discretise to the
//      eleven SPECpower levels, apply monotonicity-preserving jitter, and
//      re-check that the peak spot survived.
//   6. Scale watts to the form-factor's absolute power and ops to the
//      year's overall-score target (Fig.4).
//   7. After all servers exist, mark 74 of them with published-year offsets
//      (every pre-2007 machine must publish late; one 2016 machine
//      publishes early, reproducing the paper's §I examples).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "dataset/record.h"
#include "metrics/power_curve.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace epserve::dataset {

struct GeneratorConfig {
  std::uint64_t seed = 20160930;  // dataset cut: 2016Q3
  /// Relative per-level jitter applied to the analytic curve.
  double curve_jitter_sd = 0.004;
  /// Relative spread of absolute peak power around the form-factor estimate.
  double power_spread = 0.08;
  /// Threads for the per-server curve-synthesis phase. 0 = auto
  /// (EPSERVE_THREADS env var, else hardware concurrency); 1 = plain serial
  /// loop (no pool, no atomics). Output is byte-identical for every value:
  /// each server draws from Rng::substream(server_index), never from a
  /// shared sequential stream (see docs/PARALLELISM.md).
  int threads = 0;
};

/// Generates the full population. Fails only if the calibration plan is
/// internally inconsistent (which the tests also assert directly).
epserve::Result<std::vector<ServerRecord>> generate_population(
    const GeneratorConfig& config = {});

/// One population per seed, for multi-seed stability studies. Members are
/// generated concurrently on `pool` (nullptr = serial); each member runs the
/// generator's internal serial path, and substream discipline makes every
/// member byte-identical to a standalone generate_population() call with
/// that seed, whatever the pool size. `base` supplies every config field
/// except the seed. Returns the first failing seed's error, if any.
epserve::Result<std::vector<std::vector<ServerRecord>>> generate_ensemble(
    std::span<const std::uint64_t> seeds, const GeneratorConfig& base = {},
    ThreadPool* pool = nullptr);

// --- Scaled (2007-2023) population -----------------------------------------
//
// The 477-server plan above is quota-driven: phases 1-3 consume global pools
// sequentially, so the population cannot be generated out of order. The
// scaled path instead samples each server's cohort from the calibration
// weights independently (calibration.h scaled_year_plans()): every record is
// a pure function of (seed, index) via Rng::substream, so generation chunks
// and shards freely and the output is byte-identical for every chunk size
// and thread count. On its substream a server draws its cohort draft, then
// its curve, then its identity (vendor, model number, form factor,
// published-year offset), so its curve is known before any identity draw.

struct ScaledConfig {
  std::uint64_t seed = 20230930;  // scaled dataset cut: 2023Q3
  /// Population size. Record ids are 1..servers in index order.
  std::uint64_t servers = 1'000'000;
  double curve_jitter_sd = 0.004;
  double power_spread = 0.08;
  /// Threads for in-chunk record synthesis, and the lanes of
  /// cluster::Fleet::generate's one pass; same contract as
  /// GeneratorConfig::threads (0 = auto, 1 = plain serial loop).
  int threads = 0;
};

/// The scaled population's per-server sampler, built once per config: it
/// holds the calibration's weight tables and the seed's base stream, and
/// only reads them, so any lane may call curve() and record() on one
/// sampler at once.
class ScaledSampler {
 public:
  /// Fails when the scaled cohort plan is internally inconsistent
  /// (kFailedPrecondition) or when config.servers reaches past the int32
  /// record-id space (kOutOfRange; record ids are index + 1).
  static epserve::Result<ScaledSampler> create(const ScaledConfig& config);

  ScaledSampler(ScaledSampler&&) noexcept;
  ~ScaledSampler();

  /// Server `index`'s measurement sheet: its cohort draft and curve
  /// synthesis, without the identity draws that follow them. Bitwise equal
  /// to record(index).curve.
  [[nodiscard]] epserve::Result<metrics::PowerCurve> curve(
      std::uint64_t index) const;

  /// Server `index`'s whole record (id index + 1).
  [[nodiscard]] epserve::Result<ServerRecord> record(
      std::uint64_t index) const;

 private:
  struct Tables;  // the weight tables (generator.cpp)
  ScaledSampler(const ScaledConfig& config,
                std::unique_ptr<const Tables> tables);

  std::unique_ptr<const Tables> tables_;
  Rng base_;
  double curve_jitter_sd_;
  double power_spread_;
};

/// Receives consecutive record chunks in ascending index order.
/// `first_index` is the population index of chunk.front() (its record id is
/// first_index + 1). The span is only valid for the duration of the call.
using ChunkSink =
    std::function<void(std::span<const ServerRecord> chunk,
                       std::uint64_t first_index)>;

/// Streams the scaled population through `sink` in `chunk_size`-row chunks
/// (the last chunk may be short), each filled from one ScaledSampler on
/// config.threads lanes. Peak memory is one chunk of records. Returns the
/// number of records emitted; fails as ScaledSampler::create() fails.
epserve::Result<std::uint64_t> generate_population_chunked(
    const ScaledConfig& config, std::size_t chunk_size, const ChunkSink& sink);

/// Convenience wrapper materializing the whole scaled population (reference
/// path for digest byte-compares and small populations). Byte-identical to
/// concatenating generate_population_chunked() chunks of any size.
epserve::Result<std::vector<ServerRecord>> generate_scaled_population(
    const ScaledConfig& config);

}  // namespace epserve::dataset
