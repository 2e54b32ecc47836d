// The benchmark's workloads and layer probes (perfbench/README.md).
//
// A workload run with trace off adds the end-to-end metrics; with trace on
// it adds the metrics only the workload itself can measure (tracing
// overhead, open-loop lateness, ...), after which main.cpp runs every layer
// probe at the workload's scale. All timing is from outside the library,
// around calls into its public functions.
#pragma once

#include <cstdint>
#include <string>

#include "cluster/fleet.h"
#include "harness.h"
#include "util/result.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

// --- Workloads ---------------------------------------------------------------

void run_sweep(const Options& options, Outcome& outcome);
/// serve_read (swaps = false) and serve_swap (swaps = true).
void run_serve(const Options& options, bool swaps, Outcome& outcome);
void run_report(const Options& options, Outcome& outcome);

// --- Layer probes (traced runs) ------------------------------------------------

/// Batch-path layers over a scaled fleet of `servers`: dataset, cluster.fleet,
/// metrics.kernel, cluster.placement, cluster.day, cluster.autoscaler and
/// exp.runner.
void probe_batch_layers(std::uint64_t servers, std::uint64_t seed,
                        Tracer& tracer, Outcome& outcome);

/// Serve-path layers over the serve fleet: serve.protocol, serve.handler,
/// the cluster calls behind each request type, serve.transport and
/// serve.admin, the last two also under a short paced stats + swap load.
void probe_serve_layers(std::uint64_t seed, Tracer& tracer, Outcome& outcome);

/// Analysis layers over the calibrated population of `seed`: population
/// generation, each registry pass alone, all passes, text and JSON render.
void probe_analysis_layers(std::uint64_t seed, Tracer& tracer,
                           Outcome& outcome);

// --- Shared helpers ------------------------------------------------------------

/// Streams the scaled population of (seed, servers) into a Fleet the way
/// exp::run_experiment does (65536-row chunks, generation threads auto).
epserve::Result<epserve::cluster::Fleet> build_scaled_fleet(
    std::uint64_t seed, std::uint64_t servers);

/// Fleet size each workload's batch-layer probe uses.
std::uint64_t batch_probe_servers(const std::string& workload);

}  // namespace perfbench
