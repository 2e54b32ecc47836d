// Everything a built cluster::Fleet holds, as bit patterns by column name,
// for tests that compare two ways of building the same fleet column for
// column: the ids, every sheet curve(i) rebuilds, the seven per-server
// columns, ee_at_full, the grid rows and the two aggregates, plus the
// digest. A mismatch stops at its first differing value.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "cluster/fleet.h"
#include "metrics/load_level.h"
#include "metrics/power_curve.h"

namespace epserve::fleet_check {

struct FleetImage {
  std::map<std::string, std::vector<std::uint64_t>> columns;
  std::uint64_t digest = 0;
};

inline std::uint64_t image_bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}
inline std::uint64_t image_bits(std::int32_t value) {
  return static_cast<std::uint32_t>(value);
}

template <typename T>
void add_image_column(FleetImage& image, const std::string& name,
                      std::span<const T> column) {
  auto& out = image.columns[name];
  for (const T value : column) out.push_back(image_bits(value));
}

inline FleetImage fleet_image(const cluster::Fleet& fleet) {
  FleetImage image;
  add_image_column(image, "peak_ops", fleet.peak_ops());
  add_image_column(image, "peak_watts", fleet.peak_watts());
  add_image_column(image, "idle_watts", fleet.idle_watts());
  add_image_column(image, "ep", fleet.ep());
  add_image_column(image, "overall_score", fleet.overall_score());
  add_image_column(image, "peak_ee_value", fleet.peak_ee_value());
  add_image_column(image, "peak_ee_utilization", fleet.peak_ee_utilization());
  add_image_column(image, "ee_at_full", fleet.ee_at_full());
  const auto grid = fleet.grid_view();
  const std::size_t bins =
      fleet.size() *
      static_cast<std::size_t>(metrics::kernels::FleetGridView::kRowBins);
  add_image_column(image, "grid_w0", std::span<const double>(grid.w0, bins));
  add_image_column(image, "grid_m", std::span<const double>(grid.m, bins));
  add_image_column(image, "grid_inv_peak",
                   std::span<const double>(grid.inv_peak, fleet.size()));
  auto& ids = image.columns["server_id"];
  auto& sheets = image.columns["curve"];
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    ids.push_back(image_bits(fleet.server_id(i)));
    const metrics::PowerCurve curve = fleet.curve(i);
    sheets.push_back(image_bits(curve.idle_watts()));
    for (std::size_t level = 0; level < metrics::kNumLoadLevels; ++level) {
      sheets.push_back(image_bits(curve.watts_at_level(level)));
      sheets.push_back(image_bits(curve.ops_at_level(level)));
    }
  }
  image.columns["capacity_ops"] = {image_bits(fleet.capacity_ops())};
  image.columns["total_idle_watts"] = {image_bits(fleet.total_idle_watts())};
  image.digest = fleet.digest();
  return image;
}

inline void expect_same_fleet(const FleetImage& expected,
                              const FleetImage& actual) {
  ASSERT_EQ(expected.columns.size(), actual.columns.size());
  for (const auto& [name, column] : expected.columns) {
    const auto& other = actual.columns.at(name);
    ASSERT_EQ(column.size(), other.size()) << name;
    for (std::size_t i = 0; i < column.size(); ++i) {
      // Stop at the first difference: a shifted row would flood the log.
      ASSERT_EQ(column[i], other[i]) << name << "[" << i << "]";
    }
  }
  EXPECT_EQ(expected.digest, actual.digest);
}

}  // namespace epserve::fleet_check
