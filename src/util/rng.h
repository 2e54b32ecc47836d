// Deterministic random number generation for reproducible population
// synthesis. All experiment outputs must be bit-identical across runs given
// the same seed, so we avoid std::default_random_engine / std::*_distribution
// (implementation-defined streams) and implement the samplers ourselves.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace epserve {

/// SplitMix64: used to expand a single seed into generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// xoshiro256** — fast, high-quality 64-bit PRNG with a tiny state.
/// Deterministic across platforms; the sole randomness source in epserve.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Raw 64 uniform bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box-Muller. Each pair of uniforms yields two
  /// variates; the second is cached and returned by the next call without
  /// consuming generator state. The cache is private to this Rng object:
  /// fork() and substream() children always start with a COLD cache (see
  /// the substream() contract below), so a parent's half-consumed Box-Muller
  /// pair can never leak into a child stream and shift its draws by one.
  double normal();

  /// Normal with the given mean / standard deviation (sd >= 0).
  double normal(double mean, double sd);

  /// Normal truncated by rejection to [lo, hi]; requires lo < hi and a
  /// non-degenerate overlap (falls back to clamping after many rejections so
  /// pathological inputs cannot loop forever). When the window lies wholly
  /// on one side of the mean, at least half an sd away, a fresh Box-Muller
  /// pair whose radius already puts both draws outside it is rejected from
  /// its uniforms alone, without the log, sqrt, sin and cos: every returned
  /// value and the generator state afterwards are those of the plain
  /// rejection loop.
  double truncated_normal(double mean, double sd, double lo, double hi);

  /// Samples an index proportionally to `weights` (non-negative, not all 0).
  std::size_t categorical(std::span<const double> weights);

  /// Exponential variate with the given rate (rate > 0).
  double exponential(double rate);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_index(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Derives an independent child stream (for per-cohort generators).
  /// Advances this generator by one draw; the child starts with a cold
  /// normal() cache.
  Rng fork();

  /// Derives the `task_index`-th child stream WITHOUT advancing this
  /// generator: a pure function of (current state, task_index), so the
  /// streams handed to parallel tasks are independent of the order — or the
  /// thread — in which they are requested. Distinct indices give distinct,
  /// decorrelated streams (SplitMix64 scrambling of state ⊕ index·φ64).
  /// Children always start with a cold normal() cache, even when this
  /// generator holds a cached Box-Muller variate — serial and parallel
  /// consumers of a substream therefore see identical draw sequences.
  [[nodiscard]] Rng substream(std::uint64_t task_index) const;

 private:
  /// Box-Muller on one fresh pair of uniforms (u1 in (0, 1]): returns the
  /// cosine variate and caches the sine one, as normal() does.
  double box_muller(double u1, double u2);

  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace epserve
