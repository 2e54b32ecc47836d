// Test-local exact summation reference, independent of util/exact_sum.h:
// Shewchuk's non-overlapping partials with the half-even correction across
// partials that Python's math.fsum uses. Tests compare library totals
// against it bit for bit, and bound the old sequential sums by it.
//
// Rule, matching util::ExactSum: any NaN, or both infinities, gives NaN;
// otherwise an infinity wins; otherwise the correctly rounded exact sum,
// with an exact zero read as +0.0. The partials must not overflow: inputs
// whose running partial sums pass the largest double are out of scope.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace epserve::fsum_reference {

inline double fsum(std::span<const double> terms) {
  bool nan = false;
  bool pos_inf = false;
  bool neg_inf = false;
  std::vector<double> partials;
  for (double x : terms) {
    if (std::isnan(x)) {
      nan = true;
      continue;
    }
    if (std::isinf(x)) {
      (x > 0.0 ? pos_inf : neg_inf) = true;
      continue;
    }
    std::size_t kept = 0;
    for (double y : partials) {
      if (std::fabs(x) < std::fabs(y)) std::swap(x, y);
      const double hi = x + y;
      const double lo = y - (hi - x);
      if (lo != 0.0) partials[kept++] = lo;
      x = hi;
    }
    partials.resize(kept);
    if (x != 0.0) partials.push_back(x);
  }
  if (nan || (pos_inf && neg_inf)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (pos_inf) return std::numeric_limits<double>::infinity();
  if (neg_inf) return -std::numeric_limits<double>::infinity();
  if (partials.empty()) return 0.0;
  std::size_t n = partials.size();
  double hi = partials[--n];
  double lo = 0.0;
  while (n > 0) {
    const double x = hi;
    const double y = partials[--n];
    hi = x + y;
    lo = y - (hi - x);
    if (lo != 0.0) break;
  }
  if (n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) ||
                (lo > 0.0 && partials[n - 1] > 0.0))) {
    const double y = lo * 2.0;
    const double x = hi + y;
    if (y == x - hi) hi = x;
  }
  return hi == 0.0 ? 0.0 : hi;
}

inline double fsum(const std::vector<double>& terms) {
  return fsum(std::span<const double>(terms));
}

/// The old sequential reduction of the same terms, 0.0 + t0 + t1 + ...
inline double sequential_sum(std::span<const double> terms) {
  double sum = 0.0;
  for (const double t : terms) sum += t;
  return sum;
}

/// Whether a sequential sum of `terms` lies within the standard bound of
/// the exact one: |seq - exact| <= gamma_{n-1} * sum |t|, with
/// gamma_k = k u / (1 - k u) and u = 2^-53 (Higham, "Accuracy and
/// Stability of Numerical Algorithms", 4.2). The bound is evaluated with a
/// little slack for its own rounding.
inline bool within_sequential_bound(std::span<const double> terms,
                                    double sequential, double exact) {
  if (!std::isfinite(exact)) return std::isnan(exact) == std::isnan(sequential);
  const double u = std::ldexp(1.0, -53);
  const double k = terms.empty() ? 0.0 : static_cast<double>(terms.size() - 1);
  const double gamma = k * u / (1.0 - k * u);
  double magnitude = 0.0;
  for (const double t : terms) magnitude += std::fabs(t);
  return std::fabs(sequential - exact) <= gamma * magnitude * (1.0 + 1e-6);
}

}  // namespace epserve::fsum_reference
