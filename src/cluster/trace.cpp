#include "cluster/trace.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>

#include "util/contracts.h"
#include "util/strings.h"
#include "util/telemetry.h"

namespace epserve::cluster {
namespace {

/// The shared shifted-sine day profile: trough around 04:00, peak around
/// 20:00.
double diurnal_value(int hour, double base, double amplitude) {
  const double phase =
      2.0 * std::numbers::pi * (static_cast<double>(hour) - 10.0) / 24.0;
  return base + amplitude * 0.5 * (1.0 + std::sin(phase));
}

DemandTrace gen_diurnal(double base, double amplitude) {
  DemandTrace trace;
  trace.slot_hours = 1.0;
  trace.demand.resize(24);
  for (int h = 0; h < 24; ++h) {
    trace.demand[static_cast<std::size_t>(h)] =
        diurnal_value(h, base, amplitude);
  }
  return trace;
}

// Flat baseline with a sudden sustained burst over lunchtime: slots are
// half-hour so the burst edge lands mid-hour and wake latency is a visible
// fraction of a slot. Burst peak = base + amplitude.
DemandTrace gen_flash_crowd(double base, double amplitude) {
  DemandTrace trace;
  trace.slot_hours = 0.5;
  trace.demand.assign(48, base);
  // Burst 12:00–15:00 (slots 24..29), one half-slot shoulder each side.
  trace.demand[23] = base + amplitude * 0.5;
  for (std::size_t s = 24; s < 30; ++s) trace.demand[s] = base + amplitude;
  trace.demand[30] = base + amplitude * 0.5;
  return trace;
}

// Seven chained diurnal days; weekend days swing at 55% of the weekday
// amplitude (batch/backfill floor without the interactive peak).
DemandTrace gen_weekly(double base, double amplitude) {
  DemandTrace trace;
  trace.slot_hours = 1.0;
  trace.demand.resize(168);
  for (int d = 0; d < 7; ++d) {
    const double damp = d < 5 ? 1.0 : 0.55;
    for (int h = 0; h < 24; ++h) {
      trace.demand[static_cast<std::size_t>(d * 24 + h)] =
          diurnal_value(h, base, damp * amplitude);
    }
  }
  return trace;
}

// Latency-critical scale-out profile: high floor, shallow swing, and a
// per-slot cap on parked servers' idle-state depth — busy slots allow C1
// only (wake must be near-instant), quiet slots allow C3. Deep package
// states and suspend are off-limits around the clock, per "On the Energy
// Proportionality of Scale-Out Workloads".
DemandTrace gen_scale_out(double base, double amplitude) {
  DemandTrace trace = gen_diurnal(base, amplitude);
  trace.max_idle_state.resize(24);
  for (std::size_t h = 0; h < 24; ++h) {
    trace.max_idle_state[h] = trace.demand[h] >= base + amplitude * 0.5 ? 1 : 2;
  }
  return trace;
}

using Generator = DemandTrace (*)(double base, double amplitude);

struct TraceEntry {
  TraceInfo info;
  Generator generate;
};

constexpr std::size_t kTraceCount = 4;

const std::array<TraceEntry, kTraceCount>& registry() {
  static const std::array<TraceEntry, kTraceCount> entries = {{
      {{"diurnal", "trough-at-night / evening-peak sine",
        24, 1.0, 0.25, 0.45, false},
       &gen_diurnal},
      {{"flash_crowd", "flat baseline with a sudden sustained midday burst",
        48, 0.5, 0.15, 0.75, false},
       &gen_flash_crowd},
      {{"weekly", "seven chained diurnal days, weekend amplitude damped",
        168, 1.0, 0.25, 0.45, false},
       &gen_weekly},
      {{"scale_out",
        "latency-critical floor + shallow swing; caps idle-state depth",
        24, 1.0, 0.45, 0.25, true},
       &gen_scale_out},
  }};
  return entries;
}

std::string known_names_list() {
  std::string out;
  for (const auto& entry : registry()) {
    if (!out.empty()) out += ", ";
    out += entry.info.name;
  }
  return out;
}

}  // namespace

int DemandTrace::idle_state_cap(std::size_t slot, int deepest) const {
  if (max_idle_state.empty()) return deepest;
  EPSERVE_EXPECTS(slot < max_idle_state.size());
  return std::min(deepest, max_idle_state[slot]);
}

std::span<const TraceInfo> trace_catalog() {
  static const std::array<TraceInfo, kTraceCount> infos = [] {
    std::array<TraceInfo, kTraceCount> out{};
    for (std::size_t i = 0; i < kTraceCount; ++i) out[i] = registry()[i].info;
    return out;
  }();
  return infos;
}

std::vector<std::string_view> trace_names() {
  std::vector<std::string_view> names;
  names.reserve(kTraceCount);
  for (const auto& info : trace_catalog()) names.push_back(info.name);
  return names;
}

Result<DemandTrace> make_trace(const TraceSpec& spec) {
  for (const auto& entry : registry()) {
    if (entry.info.name != spec.name) continue;
    const double base =
        std::isnan(spec.base) ? entry.info.default_base : spec.base;
    const double amplitude = std::isnan(spec.amplitude)
                                 ? entry.info.default_amplitude
                                 : spec.amplitude;
    DemandTrace trace = entry.generate(base, amplitude);
    for (std::size_t s = 0; s < trace.demand.size(); ++s) {
      const double d = trace.demand[s];
      if (!(d >= 0.0 && d <= 1.0)) {
        return Error::invalid_argument(
            "trace '" + spec.name + "': demand " + format_fixed(d, 4) +
            " at slot " + std::to_string(s) +
            " is outside [0, 1] (base=" + format_fixed(base, 4) +
            ", amplitude=" + format_fixed(amplitude, 4) + ")");
      }
    }
    telemetry::count("cluster.trace.made", 1);
    return trace;
  }
  return Error::not_found("unknown trace '" + spec.name +
                          "' (known traces: " + known_names_list() + ")");
}

Result<DemandTrace> make_trace(std::string_view name) {
  TraceSpec spec;
  spec.name = std::string(name);
  return make_trace(spec);
}

}  // namespace epserve::cluster
