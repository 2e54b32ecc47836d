#include "cluster/fleet.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>

#include "cluster/working_region.h"
#include "dataset/generator.h"
#include "metrics/efficiency.h"
#include "metrics/load_level.h"
#include "util/contracts.h"
#include "util/telemetry.h"

namespace epserve::cluster {

namespace {

constexpr std::size_t kRowBins =
    static_cast<std::size_t>(metrics::kernels::FleetGridView::kRowBins);

/// Appends one server's native-resolution grid row: the interpolation
/// table's own knot watts and slopes, copied bit-for-bit, so grid evaluation
/// and the knot walk run the identical expression on identical inputs.
void append_grid_row(util::AlignedVector<double>& w0,
                     util::AlignedVector<double>& m,
                     util::AlignedVector<double>& inv_peak,
                     const metrics::PowerCurve::InterpolationTable& table) {
  for (std::size_t seg = 0; seg < kRowBins; ++seg) {
    w0.push_back(table.knot_watts[seg]);
    m.push_back(table.slope[seg]);
  }
  inv_peak.push_back(table.inv_peak);
}

}  // namespace

Fleet Fleet::make(std::span<const dataset::ServerRecord> servers) {
  telemetry::Span span("fleet.build");
  telemetry::count("fleet.builds");
  telemetry::count("fleet.servers", servers.size());

  Fleet fleet;
  fleet.servers_ = servers;
  fleet.snapshot_ = dataset::ColumnarSnapshot::build(servers);
  fleet.ids_.reserve(servers.size());
  fleet.tables_.reserve(servers.size());
  fleet.ee_at_full_.reserve(servers.size());
  fleet.grid_w0_.reserve(servers.size() * kRowBins);
  fleet.grid_m_.reserve(servers.size() * kRowBins);
  fleet.grid_inv_peak_.reserve(servers.size());
  for (const auto& server : servers) {
    fleet.ids_.push_back(server.id);
    fleet.tables_.push_back(server.curve.interpolation_table());
    append_grid_row(fleet.grid_w0_, fleet.grid_m_, fleet.grid_inv_peak_,
                    fleet.tables_.back());
    fleet.ee_at_full_.push_back(
        metrics::ee_at_level(server.curve, metrics::kNumLoadLevels - 1));
    fleet.capacity_ops_ += server.curve.peak_ops();
    fleet.total_idle_watts_ += server.curve.idle_watts();
  }
  return fleet;
}

epserve::Result<bool> Fleet::Builder::append(
    std::span<const dataset::ServerRecord> chunk) {
  for (const auto& server : chunk) {
    if (auto valid = server.curve.validate(); !valid.ok()) {
      return Error{valid.error().code, "server " + std::to_string(server.id) +
                                           ": " + valid.error().message};
    }
  }
  if (auto appended = snapshot_builder_.append(chunk); !appended.ok()) {
    return appended.error();
  }
  for (const auto& server : chunk) {
    ids_.push_back(server.id);
    curves_.push_back(server.curve);
    tables_.push_back(server.curve.interpolation_table());
    append_grid_row(grid_w0_, grid_m_, grid_inv_peak_, tables_.back());
    ee_at_full_.push_back(
        metrics::ee_at_level(server.curve, metrics::kNumLoadLevels - 1));
    capacity_ops_ += server.curve.peak_ops();
    total_idle_watts_ += server.curve.idle_watts();
  }
  return true;
}

epserve::Result<Fleet> Fleet::Builder::finish() {
  if (ids_.empty()) {
    return Error::invalid_argument("fleet is empty");
  }
  telemetry::Span span("fleet.build");
  telemetry::count("fleet.builds");
  telemetry::count("fleet.servers", ids_.size());

  Fleet fleet;
  fleet.snapshot_ = snapshot_builder_.finish();
  fleet.ids_ = std::move(ids_);
  fleet.curves_ = std::move(curves_);
  fleet.tables_ = std::move(tables_);
  fleet.ee_at_full_ = std::move(ee_at_full_);
  fleet.grid_w0_ = std::move(grid_w0_);
  fleet.grid_m_ = std::move(grid_m_);
  fleet.grid_inv_peak_ = std::move(grid_inv_peak_);
  fleet.capacity_ops_ = capacity_ops_;
  fleet.total_idle_watts_ = total_idle_watts_;
  return fleet;
}

epserve::Result<Fleet> Fleet::generate(const dataset::ScaledConfig& config,
                                       std::size_t chunk_rows) {
  Builder builder;
  std::optional<Error> append_error;
  auto emitted = dataset::generate_population_chunked(
      config, chunk_rows,
      [&](std::span<const dataset::ServerRecord> chunk, std::uint64_t) {
        if (append_error) return;
        if (auto appended = builder.append(chunk); !appended.ok()) {
          append_error = appended.error();
        }
      });
  if (!emitted.ok()) return emitted.error();
  if (append_error) return *append_error;
  return builder.finish();
}

epserve::Result<Fleet> Fleet::build(
    std::span<const dataset::ServerRecord> servers) {
  if (servers.empty()) {
    return Error::invalid_argument("fleet is empty");
  }
  for (const auto& server : servers) {
    if (auto valid = server.curve.validate(); !valid.ok()) {
      return Error{valid.error().code, "server " + std::to_string(server.id) +
                                           ": " + valid.error().message};
    }
  }
  return make(servers);
}

Fleet Fleet::from_records(std::span<const dataset::ServerRecord> servers) {
  return make(servers);
}

metrics::kernels::FleetGridView Fleet::grid_view() const {
  metrics::kernels::FleetGridView view;
  view.w0 = grid_w0_.data();
  view.m = grid_m_.data();
  view.inv_peak = grid_inv_peak_.data();
  view.servers = grid_inv_peak_.size();
  return view;
}

metrics::kernels::GridView Fleet::grid_row(std::size_t i) const {
  metrics::kernels::GridView view;
  view.u0 = metrics::kernels::kRowU0;
  view.w0 = grid_w0_.data() + i * kRowBins;
  view.m = grid_m_.data() + i * kRowBins;
  view.inv_peak = grid_inv_peak_[i];
  view.scale = 10.0;
  view.last_bin = static_cast<std::int32_t>(kRowBins) - 1;
  return view;
}

void Fleet::normalized_power_batch(std::size_t i, std::span<const double> utils,
                                   std::span<double> out) const {
  EPSERVE_EXPECTS(utils.size() == out.size());
  const metrics::kernels::Kernels& kernel = metrics::kernels::active();
  if (kernel.variant == metrics::kernels::Variant::kScalarReference) {
    metrics::PowerCurve::normalized_power_batch_from_table(tables_[i], utils,
                                                           out);
    return;
  }
  kernel.row_batch(grid_view(), i, utils.data(), out.data(), utils.size());
  telemetry::count("kernel.batch_points", utils.size());
}

void Fleet::normalized_power_matrix(std::size_t i0, std::size_t count,
                                    std::span<const double> utils,
                                    std::span<double> out,
                                    std::size_t slots) const {
  EPSERVE_EXPECTS(i0 + count <= size());
  EPSERVE_EXPECTS(utils.size() == count * slots && out.size() == utils.size());
  const metrics::kernels::Kernels& kernel = metrics::kernels::active();
  if (kernel.variant == metrics::kernels::Variant::kScalarReference) {
    for (std::size_t r = 0; r < count; ++r) {
      metrics::PowerCurve::normalized_power_batch_from_table(
          tables_[i0 + r], utils.subspan(r * slots, slots),
          out.subspan(r * slots, slots));
    }
    return;
  }
  kernel.row_matrix(grid_view(), i0, count, utils.data(), out.data(), slots);
  telemetry::count("kernel.batch_points", utils.size());
}

void Fleet::normalized_power_per_server(std::span<const double> utils,
                                        std::span<double> out) const {
  EPSERVE_EXPECTS(utils.size() == size() && out.size() == size());
  const metrics::kernels::Kernels& kernel = metrics::kernels::active();
  if (kernel.variant == metrics::kernels::Variant::kScalarReference) {
    for (std::size_t i = 0; i < size(); ++i) {
      out[i] = metrics::PowerCurve::normalized_power_from_table(tables_[i],
                                                                utils[i]);
    }
    return;
  }
  kernel.fleet_batch(grid_view(), utils.data(), out.data());
  telemetry::count("kernel.batch_points", utils.size());
}

std::vector<double> Fleet::optimal_region_tops(double ee_threshold) const {
  std::vector<double> tops;
  tops.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    const Region region = optimal_region(curve(i), ee_threshold);
    tops.push_back(region.empty() ? 1.0 : region.hi);
  }
  return tops;
}

std::span<const std::size_t> Fleet::sorted_order(
    LazyOrder& lazy, std::span<const double> score) const {
  std::call_once(lazy.once, [&] {
    lazy.order.resize(size());
    std::iota(lazy.order.begin(), lazy.order.end(), std::size_t{0});
    std::sort(lazy.order.begin(), lazy.order.end(),
              [&](std::size_t a, std::size_t b) {
                if (score[a] != score[b]) return score[a] > score[b];
                return server_id(a) < server_id(b);
              });
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

const epserve::Result<Fleet>& LazyFleet::get() const {
  std::call_once(once_, [this] { fleet_.emplace(Fleet::build(servers_)); });
  return *fleet_;
}

}  // namespace epserve::cluster
