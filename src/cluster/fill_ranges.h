// Exact sums of per-server columns over ranges of fill positions — the
// engine behind a staged placement day's idle charges (its level totals
// come from the staged state's prefix snapshots, cluster/staged_state.h).
//
// A staged batch's plans put each server at a fill position, and every
// quantity the day needs is a sum of one per-server term over a range of
// positions between two fill points. FillRanges cuts the positions at every
// range end a caller will ask for, keeps one util::ExactSum per (column,
// segment between adjacent cuts), and is fed server by server in index
// order, so the per-server columns stream sequentially and only the small
// table of segment sums is touched at random. finish() turns the segment
// sums into exact prefix sums; a range sum is then the difference of two,
// exactly, so no total depends on the order its terms arrived in.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/contracts.h"
#include "util/exact_sum.h"

namespace epserve::cluster {

class FillRanges {
 public:
  /// Positions 0..servers-1 cut at every value of `cuts` (each <= servers),
  /// for `columns` per-server columns.
  FillRanges(std::size_t servers, std::vector<std::size_t> cuts,
             std::size_t columns)
      : cuts_(std::move(cuts)), columns_(columns) {
    cuts_.push_back(0);
    cuts_.push_back(servers);
    std::sort(cuts_.begin(), cuts_.end());
    cuts_.erase(std::unique(cuts_.begin(), cuts_.end()), cuts_.end());
    segment_of_.resize(servers);
    for (std::size_t t = 0; t + 1 < cuts_.size(); ++t) {
      std::fill(segment_of_.begin() + static_cast<std::ptrdiff_t>(cuts_[t]),
                segment_of_.begin() + static_cast<std::ptrdiff_t>(cuts_[t + 1]),
                static_cast<std::uint32_t>(t));
    }
    sums_.resize(columns_ * cuts_.size());
  }

  /// Adds one server's term to `column`, at fill position `pos`.
  void add(std::size_t column, std::size_t pos, double term) {
    sums_[column * cuts_.size() + segment_of_[pos] + 1].add(term);
  }

  /// Turns the segment sums into prefix sums: call once, after every add.
  void finish() {
    for (std::size_t c = 0; c < columns_; ++c) {
      for (std::size_t k = 1; k < cuts_.size(); ++k) {
        sums_[c * cuts_.size() + k].merge(sums_[c * cuts_.size() + k - 1]);
      }
    }
  }

  /// Adds `sign` (+1 or -1) times the exact sum of `column` over positions
  /// [lo, hi) to `target`. Both ends must be cuts; finish() must have run.
  void fold(std::size_t column, std::size_t lo, std::size_t hi, int sign,
            util::ExactSum& target) const {
    const util::ExactSum& upper = prefix(column, hi);
    const util::ExactSum& lower = prefix(column, lo);
    if (sign > 0) {
      target.merge(upper);
      target.subtract(lower);
    } else {
      target.subtract(upper);
      target.merge(lower);
    }
  }

 private:
  [[nodiscard]] const util::ExactSum& prefix(std::size_t column,
                                             std::size_t cut) const {
    const auto it = std::lower_bound(cuts_.begin(), cuts_.end(), cut);
    EPSERVE_EXPECTS(it != cuts_.end() && *it == cut);
    return sums_[column * cuts_.size() +
                 static_cast<std::size_t>(it - cuts_.begin())];
  }

  std::vector<std::size_t> cuts_;  // sorted, unique, from 0 to servers
  std::size_t columns_;
  std::vector<std::uint32_t> segment_of_;  // by fill position
  // sums_[c * cuts + k]: before finish(), column c over segment k - 1;
  // after it, column c over positions [0, cuts_[k]).
  std::vector<util::ExactSum> sums_;
};

}  // namespace epserve::cluster
