#include "dataset/group_index.h"

#include <algorithm>

#include "util/contracts.h"
#include "util/telemetry.h"

namespace epserve::dataset {

namespace {

/// kAuto picks radix while the counting array stays proportional to the
/// input (interned key columns have tiny ranges; arbitrary int32 data could
/// demand a 16 GiB histogram, which is when the comparison sort wins).
bool radix_range_ok(std::int64_t range, std::size_t rows) {
  return range <= static_cast<std::int64_t>(
                      std::max<std::size_t>(1024, 2 * rows));
}

}  // namespace

GroupIndex GroupIndex::over(std::span<const std::int32_t> keys,
                            Strategy strategy) {
  EPSERVE_EXPECTS(keys.size() <= kMaxRows);
  std::vector<std::uint32_t> perm(keys.size());
  for (std::uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
  return build_dispatch(std::move(perm), keys, strategy);
}

GroupIndex GroupIndex::over_masked(std::span<const std::int32_t> keys,
                                   std::span<const std::uint8_t> mask,
                                   Strategy strategy) {
  EPSERVE_EXPECTS(mask.size() == keys.size());
  EPSERVE_EXPECTS(keys.size() <= kMaxRows);
  std::vector<std::uint32_t> perm;
  perm.reserve(keys.size());
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    if (mask[i] != 0) perm.push_back(i);
  }
  return build_dispatch(std::move(perm), keys, strategy);
}

std::optional<std::size_t> GroupIndex::find(std::int32_t key) const {
  const auto it = std::lower_bound(
      bounds_.begin(), bounds_.end(), key,
      [](const Bounds& b, std::int32_t k) { return b.key < k; });
  if (it == bounds_.end() || it->key != key) return std::nullopt;
  return static_cast<std::size_t>(it - bounds_.begin());
}

GroupIndex GroupIndex::build_dispatch(std::vector<std::uint32_t> perm,
                                      std::span<const std::int32_t> keys,
                                      Strategy strategy) {
  if (strategy == Strategy::kComparison || perm.empty()) {
    telemetry::count("groupindex.comparison_builds");
    return build_comparison(std::move(perm), keys);
  }
  std::int64_t key_min = keys[perm.front()];
  std::int64_t key_max = key_min;
  for (const std::uint32_t idx : perm) {
    const std::int64_t k = keys[idx];
    key_min = std::min(key_min, k);
    key_max = std::max(key_max, k);
  }
  const std::int64_t range = key_max - key_min + 1;
  if (strategy == Strategy::kAuto && !radix_range_ok(range, perm.size())) {
    telemetry::count("groupindex.comparison_builds");
    return build_comparison(std::move(perm), keys);
  }
  // kRadix is an explicit caller promise that the range is bounded.
  EPSERVE_EXPECTS(radix_range_ok(range, perm.size()));
  telemetry::count("groupindex.radix_builds");
  return build_radix(std::move(perm), keys, key_min, key_max);
}

GroupIndex GroupIndex::build_comparison(std::vector<std::uint32_t> perm,
                                        std::span<const std::int32_t> keys) {
  // Sort by (key, index): ascending keys across groups, ascending record
  // index within a group — std::map insertion order, which the byte-identity
  // contract depends on. std::sort is fine because the index tiebreak makes
  // the ordering total.
  std::sort(perm.begin(), perm.end(),
            [&keys](std::uint32_t a, std::uint32_t b) {
              if (keys[a] != keys[b]) return keys[a] < keys[b];
              return a < b;
            });

  GroupIndex out;
  out.perm_ = std::move(perm);
  for (std::uint32_t pos = 0; pos < out.perm_.size();) {
    const std::int32_t key = keys[out.perm_[pos]];
    std::uint32_t end = pos + 1;
    while (end < out.perm_.size() && keys[out.perm_[end]] == key) ++end;
    out.bounds_.push_back({key, pos, end});
    pos = end;
  }
  return out;
}

GroupIndex GroupIndex::build_radix(std::vector<std::uint32_t> perm,
                                   std::span<const std::int32_t> keys,
                                   std::int64_t key_min,
                                   std::int64_t key_max) {
  // Counting sort on the shifted key. Scattering the participating indices
  // in ascending order makes the sort stable, which IS the ordering
  // contract: ascending keys across groups (bucket order), ascending record
  // index within a group (scatter order).
  const std::size_t range = static_cast<std::size_t>(key_max - key_min + 1);
  std::vector<std::uint32_t> counts(range, 0);
  for (const std::uint32_t idx : perm) {
    ++counts[static_cast<std::size_t>(keys[idx] - key_min)];
  }

  // Exclusive prefix sum -> first slot of each bucket; collect the group
  // bounds in the same pass (buckets with zero rows produce no group).
  GroupIndex out;
  std::vector<std::uint32_t> next(range, 0);
  std::uint32_t offset = 0;
  for (std::size_t bucket = 0; bucket < range; ++bucket) {
    next[bucket] = offset;
    if (counts[bucket] != 0) {
      out.bounds_.push_back(
          {static_cast<std::int32_t>(key_min +
                                     static_cast<std::int64_t>(bucket)),
           offset, offset + counts[bucket]});
      offset += counts[bucket];
    }
  }

  std::vector<std::uint32_t> sorted(perm.size());
  for (const std::uint32_t idx : perm) {
    sorted[next[static_cast<std::size_t>(keys[idx] - key_min)]++] = idx;
  }
  out.perm_ = std::move(sorted);
  return out;
}

}  // namespace epserve::dataset
