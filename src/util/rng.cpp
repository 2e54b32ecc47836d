#include "util/rng.h"

#include <cmath>
#include <numbers>

#include "util/contracts.h"

namespace epserve {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
  // xoshiro's all-zero state is invalid; splitmix cannot emit four zeros for
  // any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  EPSERVE_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  EPSERVE_EXPECTS(n > 0);
  const std::uint64_t bound = n * ((~std::uint64_t{0}) / n);
  std::uint64_t x = next_u64();
  while (x >= bound) x = next_u64();
  return x % n;
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to keep log finite.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  return box_muller(u1, u2);
}

double Rng::box_muller(double u1, double u2) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double sd) {
  EPSERVE_EXPECTS(sd >= 0.0);
  return mean + sd * normal();
}

double Rng::truncated_normal(double mean, double sd, double lo, double hi) {
  EPSERVE_EXPECTS(lo < hi);
  if (sd == 0.0) {
    return mean < lo ? lo : (mean > hi ? hi : mean);
  }
  EPSERVE_EXPECTS(sd >= 0.0);
  constexpr int kMaxRejections = 256;
  // A fresh pair's draws are r cos(theta) and r sin(theta) with
  // r = sqrt(-2 log u1), so both lie within r of zero. With the window at
  // least d sd from the mean on one side, u1 > exp(-(d (1 - eps))^2 / 2)
  // means r < d (1 - eps): both draws miss it, and the pair is rejected
  // from its uniforms. The relative margin eps = 2^-20 outweighs the
  // rounding of the log, the sqrt, d itself and mean + sd * z; the gap
  // bounds keep it above the spacing of doubles near the window's edge.
  // u1 never exceeds 1.0, so a threshold of 1.0 dooms no pair.
  double doomed_above = 1.0;
  const double gap = lo > mean ? lo - mean : mean - hi;
  const double edge = lo > mean ? lo : hi;
  const double d = gap / sd;
  if (d >= 0.5 && gap > 0x1p-28 * std::abs(edge) && gap > 0x1p-960) {
    const double margin = d * (1.0 - 0x1p-20);
    doomed_above = std::exp(-0.5 * margin * margin);
  }
  for (int draws = 0; draws < kMaxRejections;) {
    double x = 0.0;
    // A pending cached variate, or a single remaining draw, is one draw:
    // the plain path.
    if (has_cached_normal_ || draws + 1 == kMaxRejections) {
      x = normal(mean, sd);
    } else {
      const double u1 = 1.0 - uniform();
      const double u2 = uniform();
      if (u1 > doomed_above) {
        draws += 2;
        continue;
      }
      x = mean + sd * box_muller(u1, u2);
    }
    ++draws;
    if (x >= lo && x <= hi) return x;
  }
  // Distribution barely overlaps the window; clamp rather than spin.
  const double x = normal(mean, sd);
  return x < lo ? lo : (x > hi ? hi : x);
}

std::size_t Rng::categorical(std::span<const double> weights) {
  EPSERVE_EXPECTS(!weights.empty());
  double total = 0.0;
  for (const double w : weights) {
    EPSERVE_EXPECTS(w >= 0.0);
    total += w;
  }
  EPSERVE_EXPECTS(total > 0.0);
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // fp rounding fell off the end
}

double Rng::exponential(double rate) {
  EPSERVE_EXPECTS(rate > 0.0);
  return -std::log(1.0 - uniform()) / rate;
}

Rng Rng::fork() { return Rng(next_u64()); }

Rng Rng::substream(std::uint64_t task_index) const {
  // Collapse the 256-bit state into one word (rotations keep the four lanes
  // from cancelling), then offset by task_index times the 64-bit golden
  // ratio — a bijection over u64, so distinct indices can never collide for
  // a fixed parent state. The Rng constructor re-expands the combined seed
  // through SplitMix64, decorrelating neighbouring indices.
  const std::uint64_t state_digest =
      s_[0] ^ rotl(s_[1], 17) ^ rotl(s_[2], 31) ^ rotl(s_[3], 47);
  // Constructing from a seed leaves has_cached_normal_ == false: children
  // start with a cold Box-Muller cache regardless of this object's cache.
  return Rng(state_digest + (task_index + 1) * 0x9E3779B97F4A7C15ULL);
}

}  // namespace epserve
