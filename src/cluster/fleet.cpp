#include "cluster/fleet.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "cluster/staged_state.h"
#include "cluster/working_region.h"
#include "dataset/generator.h"
#include "metrics/derived.h"
#include "metrics/efficiency.h"
#include "metrics/load_level.h"
#include "metrics/simd/grid_eval.h"
#include "util/contracts.h"
#include "util/parallel.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace epserve::cluster {

namespace {

constexpr std::size_t kRowBins =
    static_cast<std::size_t>(metrics::kernels::FleetGridView::kRowBins);
static_assert(kRowBins == metrics::kNumLoadLevels,
              "a grid row holds one knot per load level below 100%, plus idle");

/// Rows per fill block: the unit of work one lane takes at a time.
constexpr std::size_t kBlockRows = 2048;

/// The error a row whose curve fails PowerCurve::validate() reports.
Error bad_curve(std::int32_t id, const Error& invalid) {
  return Error{invalid.code, std::string("server ")
                                 .append(std::to_string(id))
                                 .append(": ")
                                 .append(invalid.message)};
}

/// Server indices by score descending, record id ascending. Each server is
/// one word: the high bits a prefix of a key that falls as the score rises
/// (-0.0 keyed as +0.0, which it equals), the low bits its index. A stable
/// LSD radix sort on the prefix bits leaves equal prefixes in index order,
/// and each run of them is then sorted by the comparison itself, so the
/// result is the permutation that comparison defines. The words become the
/// order in place; with one scatter buffer that is 16 bytes per server.
std::vector<std::size_t> sort_by_score(std::span<const double> score,
                                       std::span<const std::int32_t> ids) {
  static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
                "a word packs a 64-bit key prefix above the index");
  const std::size_t n = score.size();
  std::vector<std::size_t> words(n);
  if (n < 2) {
    std::iota(words.begin(), words.end(), std::size_t{0});
    return words;
  }
  const auto index_bits = static_cast<unsigned>(std::bit_width(n - 1));
  const std::size_t index_mask = (std::size_t{1} << index_bits) - 1;
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  for (std::size_t i = 0; i < n; ++i) {
    const double s = score[i] == 0.0 ? 0.0 : score[i];
    const auto bits = std::bit_cast<std::uint64_t>(s);
    const std::uint64_t rising = (bits & kSign) != 0 ? ~bits : bits | kSign;
    words[i] = (~rising & ~index_mask) | i;
  }

  constexpr unsigned kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  const unsigned digits = (64 - index_bits + kDigitBits - 1) / kDigitBits;
  // Every pass's histogram from one read: a stable pass only reorders.
  std::vector<std::uint32_t> counts(digits * kBuckets, 0);
  for (const std::size_t word : words) {
    for (unsigned d = 0; d < digits; ++d) {
      ++counts[d * kBuckets +
               ((word >> (index_bits + d * kDigitBits)) & (kBuckets - 1))];
    }
  }
  std::vector<std::size_t> scattered(n);
  for (unsigned d = 0; d < digits; ++d) {
    const unsigned shift = index_bits + d * kDigitBits;
    std::uint32_t* const count = counts.data() + d * kBuckets;
    // A digit every word shares moves nothing.
    if (std::find(count, count + kBuckets, n) != count + kBuckets) continue;
    std::uint32_t next = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      next += std::exchange(count[b], next);
    }
    for (const std::size_t word : words) {
      scattered[count[(word >> shift) & (kBuckets - 1)]++] = word;
    }
    words.swap(scattered);
  }

  for (std::size_t lo = 0; lo < n;) {
    const std::size_t prefix = words[lo] & ~index_mask;
    std::size_t hi = lo + 1;
    while (hi < n && (words[hi] & ~index_mask) == prefix) ++hi;
    for (std::size_t k = lo; k < hi; ++k) words[k] &= index_mask;
    if (hi - lo > 1) {
      std::sort(words.begin() + static_cast<std::ptrdiff_t>(lo),
                words.begin() + static_cast<std::ptrdiff_t>(hi),
                [&](std::size_t a, std::size_t b) {
                  if (score[a] != score[b]) return score[a] > score[b];
                  return ids[a] < ids[b];
                });
    }
    lo = hi;
  }
  return words;
}

}  // namespace

template <typename Fn>
void Fleet::for_each_column(Fn&& fn) {
  fn(ids_, 1);
  fn(ops_, metrics::kNumLoadLevels);
  for (auto* column : {&peak_ops_, &peak_watts_, &idle_watts_, &ep_,
                       &overall_score_, &peak_ee_value_, &peak_ee_utilization_,
                       &ee_at_full_, &grid_inv_peak_}) {
    fn(*column, 1);
  }
  fn(grid_w0_, kRowBins);
  fn(grid_m_, kRowBins);
}

epserve::Result<bool> Fleet::Builder::append(
    std::span<const dataset::ServerRecord> chunk) {
  return append_rows(chunk, /*validate=*/true);
}

void Fleet::Builder::resize(std::size_t rows) {
  fleet_.for_each_column([rows](auto& column, std::size_t width) {
    column.resize(rows * width);
  });
}

void Fleet::Builder::write_row(std::size_t i, std::int32_t id,
                               const metrics::PowerCurve& curve,
                               Totals& totals) {
  Fleet& f = fleet_;
  f.ids_[i] = id;
  f.peak_ops_[i] = curve.peak_ops();
  f.peak_watts_[i] = curve.peak_watts();
  f.idle_watts_[i] = curve.idle_watts();
  const metrics::DerivedCurveMetrics derived =
      metrics::derive_curve_metrics(curve);
  f.ep_[i] = derived.ep;
  f.overall_score_[i] = derived.overall_score;
  f.peak_ee_value_[i] = derived.peak_ee.value;
  f.peak_ee_utilization_[i] = derived.peak_ee_utilization;
  // The grid row is the interpolation table's own knot watts and slopes,
  // copied bit for bit, so grid evaluation and the knot walk run the
  // identical expression on identical inputs.
  const auto table = curve.interpolation_table();
  for (std::size_t seg = 0; seg < kRowBins; ++seg) {
    f.grid_w0_[i * kRowBins + seg] = table.knot_watts[seg];
    f.grid_m_[i * kRowBins + seg] = table.slope[seg];
  }
  f.grid_inv_peak_[i] = table.inv_peak;
  for (std::size_t level = 0; level < metrics::kNumLoadLevels; ++level) {
    f.ops_[i * metrics::kNumLoadLevels + level] = curve.ops_at_level(level);
  }
  f.ee_at_full_[i] = metrics::ee_at_level(curve, metrics::kNumLoadLevels - 1);
  totals.capacity_ops.add(curve.peak_ops());
  totals.idle_watts.add(curve.idle_watts());
}

void Fleet::Builder::merge(std::span<const Totals> totals) {
  for (const Totals& block : totals) {
    capacity_ops_.merge(block.capacity_ops);
    idle_watts_.merge(block.idle_watts);
  }
}

epserve::Result<bool> Fleet::Builder::append_rows(
    std::span<const dataset::ServerRecord> chunk, bool validate) {
  const telemetry::Span span("fleet.append");
  // The lanes live for this chunk only. Joined before the append returns,
  // they never run beside the next stage's own threads (the generator's,
  // the exp runner's); a pool kept for the whole build did, and the extra
  // per-thread malloc arenas in rotation raised a 250k sweep's peak RSS
  // above a serial build's.
  const auto lanes = chunk.size() >= kParallelRows
                         ? make_worker_pool(resolve_thread_count(0))
                         : nullptr;
  ThreadPool* const pool = lanes.get();
  const std::size_t blocks = block_count(chunk.size(), kBlockRows);

  if (validate) {
    // Each block stops at its own first bad curve; the lowest block with
    // one names the lowest bad server, whichever lane found it first.
    std::vector<std::optional<Error>> errors(blocks);
    parallel_for_blocks(pool, chunk.size(), kBlockRows,
                        [&](std::size_t b, std::size_t lo, std::size_t hi) {
      for (std::size_t k = lo; k < hi; ++k) {
        if (auto valid = chunk[k].curve.validate(); !valid.ok()) {
          errors[b] = bad_curve(chunk[k].id, valid.error());
          return;
        }
      }
    });
    for (auto& error : errors) {
      if (error) return *std::move(error);
    }
  }

  const std::size_t first = fleet_.size();
  resize(first + chunk.size());
  std::vector<Totals> totals(blocks);
  parallel_for_blocks(pool, chunk.size(), kBlockRows,
                      [&](std::size_t b, std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      write_row(first + k, chunk[k].id, chunk[k].curve, totals[b]);
    }
  });
  merge(totals);
  return true;
}

Fleet Fleet::Builder::take() {
  telemetry::count("fleet.builds");
  telemetry::count("fleet.servers", fleet_.size());
  fleet_.capacity_ops_ = capacity_ops_.value();
  fleet_.total_idle_watts_ = idle_watts_.value();
  return std::move(fleet_);
}

epserve::Result<Fleet> Fleet::Builder::finish() {
  if (fleet_.empty()) {
    return Error::invalid_argument("fleet is empty");
  }
  telemetry::Span span("fleet.build");
  return take();
}

epserve::Result<Fleet> Fleet::generate(const dataset::ScaledConfig& config) {
  auto sampler = dataset::ScaledSampler::create(config);
  if (!sampler.ok()) return sampler.error();
  if (config.servers == 0) {
    return Error::invalid_argument("fleet is empty");
  }
  const telemetry::Span span("fleet.generate");
  telemetry::count("generate.scaled_records", config.servers);
  const auto rows = static_cast<std::size_t>(config.servers);
  const std::size_t blocks = block_count(rows, kBlockRows);
  Builder builder;
  builder.resize(rows);
  std::vector<Builder::Totals> totals(blocks);
  // Each block stops at its own first failure, so the lowest block with
  // one names the lowest failing server.
  std::vector<std::optional<Error>> errors(blocks);
  // A lane past the block count would have nothing to fill.
  const auto lanes = make_worker_pool(
      std::min(resolve_thread_count(config.threads), blocks));
  parallel_for_blocks(lanes.get(), rows, kBlockRows,
                      [&](std::size_t b, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      auto curve = sampler.value().curve(i);
      if (!curve.ok()) {
        errors[b] = curve.error();
        return;
      }
      const auto id = static_cast<std::int32_t>(i + 1);
      if (auto valid = curve.value().validate(); !valid.ok()) {
        errors[b] = bad_curve(id, valid.error());
        return;
      }
      builder.write_row(i, id, curve.value(), totals[b]);
    }
  });
  for (auto& error : errors) {
    if (error) return *std::move(error);
  }
  builder.merge(totals);
  return builder.take();
}

epserve::Result<Fleet> Fleet::build(
    std::span<const dataset::ServerRecord> servers) {
  if (servers.empty()) {
    return Error::invalid_argument("fleet is empty");
  }
  telemetry::Span span("fleet.build");
  Builder builder;
  if (auto appended = builder.append(servers); !appended.ok()) {
    return appended.error();
  }
  return builder.take();
}

Fleet Fleet::from_records(std::span<const dataset::ServerRecord> servers) {
  telemetry::Span span("fleet.build");
  Builder builder;
  // Without validation an append cannot fail.
  const auto appended = builder.append_rows(servers, /*validate=*/false);
  EPSERVE_EXPECTS(appended.ok());
  return builder.take();
}

metrics::PowerCurve Fleet::curve(std::size_t i) const {
  // Knot k of a grid row is the curve's idle watts (k = 0) or its watts at
  // load level k - 1, so the row holds every level but 100%.
  std::array<double, metrics::kNumLoadLevels> watts{};
  std::array<double, metrics::kNumLoadLevels> ops{};
  const double* knots = grid_w0_.data() + i * kRowBins;
  std::copy(knots + 1, knots + kRowBins, watts.begin());
  watts.back() = peak_watts()[i];
  std::copy_n(ops_.data() + i * metrics::kNumLoadLevels,
              metrics::kNumLoadLevels, ops.begin());
  return metrics::PowerCurve(watts, ops, knots[0]);
}

metrics::kernels::FleetGridView Fleet::grid_view() const {
  metrics::kernels::FleetGridView view;
  view.w0 = grid_w0_.data();
  view.m = grid_m_.data();
  view.inv_peak = grid_inv_peak_.data();
  return view;
}

double Fleet::normalized_power(std::size_t i, double utilization) const {
  return metrics::kernels::detail::fleet_eval_checked(grid_view(), i,
                                                      utilization);
}

void Fleet::normalized_power_matrix(std::size_t i0, std::size_t count,
                                    std::span<const double> utils,
                                    std::span<double> out,
                                    std::size_t slots) const {
  EPSERVE_EXPECTS(i0 + count <= size());
  EPSERVE_EXPECTS(utils.size() == count * slots && out.size() == utils.size());
  metrics::kernels::active().row_matrix(grid_view(), i0, count, utils.data(),
                                        out.data(), slots);
  telemetry::count("kernel.batch_points", utils.size());
}

std::span<const double> Fleet::default_optimal_region_tops() const {
  std::call_once(orders_->default_tops_once, [this] {
    std::vector<double>& tops = orders_->default_tops;
    tops.reserve(size());
    for (std::size_t i = 0; i < size(); ++i) {
      const Region region = optimal_region(curve(i), kDefaultEeThreshold);
      tops.push_back(region.empty() ? 1.0 : region.hi);
    }
  });
  return orders_->default_tops;
}

std::span<const std::size_t> Fleet::sorted_order(
    LazyOrder& lazy, std::span<const double> score) const {
  std::call_once(lazy.once, [&] {
    const telemetry::Span span("fleet.sort_order");
    lazy.order = sort_by_score(score, ids_);
  });
  return lazy.order;
}

std::span<const std::size_t> Fleet::order_by_ee_at_full() const {
  return sorted_order(orders_->ee_at_full, ee_at_full());
}

std::span<const std::size_t> Fleet::order_by_peak_ee_value() const {
  return sorted_order(orders_->peak_ee_value, peak_ee_value());
}

std::span<const std::size_t> Fleet::order_by_overall_score() const {
  return sorted_order(orders_->overall_score, overall_score());
}

std::shared_ptr<const StagedState> Fleet::staged_state(
    StagedPolicy policy) const {
  LazyStaged& lazy = orders_->staged[static_cast<std::size_t>(policy)];
  std::call_once(lazy.once, [&] {
    lazy.state = StagedState::build(*this, stages_of(*this, policy));
  });
  return lazy.state;
}

std::uint64_t Fleet::digest() const {
  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a offset basis
  const auto mix_u64 = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffULL;
      hash *= 1099511628211ULL;  // FNV prime
    }
  };
  const auto mix_column = [&mix_u64](std::span<const double> column) {
    for (const double value : column) {
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(value));
      std::memcpy(&bits, &value, sizeof(bits));
      mix_u64(bits);
    }
  };
  mix_u64(size());
  for (const std::int32_t id : ids_) {
    mix_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(id)));
  }
  mix_column(peak_ops());
  mix_column(peak_watts());
  mix_column(idle_watts());
  mix_column(ep());
  return hash;
}

}  // namespace epserve::cluster
