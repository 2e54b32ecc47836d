// perfbench — the repository benchmark program (perfbench/README.md).
//
//   perfbench --workload <sweep|serve_read|serve_swap|report> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Run from the checkout root: BENCHMARK.json there names the metrics a run
// must print. With --trace 0 the run measures the workload with the
// library's telemetry off and prints its end-to-end metrics; with --trace 1
// it prints the per-layer metrics: the workload's own traced figures, then
// every layer probe at the workload's scale, and writes its spans plus the
// telemetry snapshot to <trace-dir>/<workload>-<seed>.json. The last stdout
// line is the JSON result; any usage or consistency error exits non-zero
// without one.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/json_parser.h"
#include "util/telemetry.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<sweep|serve_read|serve_swap|report> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>]\n",
               why);
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

/// (name, unit) of every metric BENCHMARK.json declares in `section`.
bool declared_metrics(const std::string& section,
                      std::vector<std::pair<std::string, std::string>>& out) {
  std::ifstream file("BENCHMARK.json");
  if (!file) {
    std::fprintf(stderr, "perfbench: BENCHMARK.json not found in the working "
                         "directory\n");
    return false;
  }
  std::stringstream text;
  text << file.rdbuf();
  auto doc = epserve::parse_json(text.str());
  const epserve::JsonValue* list = doc.ok() ? doc.value().find(section) : nullptr;
  if (list == nullptr || !list->is_array()) {
    std::fprintf(stderr, "perfbench: BENCHMARK.json has no %s list\n",
                 section.c_str());
    return false;
  }
  for (const auto& item : list->items()) {
    auto name = item.string_member("name");
    auto unit = item.string_member("unit");
    if (!name.ok() || !unit.ok()) return false;
    out.emplace_back(name.value(), unit.value());
  }
  return true;
}

/// The run printed exactly the declared metrics, with the declared units.
bool matches_declaration(const Outcome& outcome, const std::string& section) {
  std::vector<std::pair<std::string, std::string>> declared;
  if (!declared_metrics(section, declared)) return false;
  bool ok = true;
  std::set<std::string> printed;
  for (const Metric& m : outcome.metrics) {
    if (!valid_metric_name(m.name) || !printed.insert(m.name).second) {
      std::fprintf(stderr, "perfbench: bad or repeated metric name '%s'\n",
                   m.name.c_str());
      ok = false;
    }
  }
  std::set<std::string> names;
  for (const auto& [name, unit] : declared) {
    names.insert(name);
    bool found = false;
    for (const Metric& m : outcome.metrics) {
      if (m.name != name) continue;
      found = true;
      if (m.unit != unit) {
        std::fprintf(stderr, "perfbench: %s has unit %s, declared %s\n",
                     name.c_str(), m.unit.c_str(), unit.c_str());
        ok = false;
      }
    }
    if (!found) {
      std::fprintf(stderr, "perfbench: declared metric %s was not measured\n",
                   name.c_str());
      ok = false;
    }
  }
  for (const Metric& m : outcome.metrics) {
    if (names.count(m.name) == 0) {
      std::fprintf(stderr, "perfbench: metric %s is not declared in %s\n",
                   m.name.c_str(), section.c_str());
      ok = false;
    }
  }
  return ok;
}

void write_trace(const std::string& dir, const Options& options,
                 const Tracer& tracer, const std::string& telemetry_json) {
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  const std::string path =
      dir + "/" + options.workload + "-" + std::to_string(options.seed) + ".json";
  std::ofstream out(path);
  out << "{\"workload\": \"" << options.workload << "\", \"seed\": "
      << options.seed << ",\n\"spans\": " << tracer.render_json()
      << ",\n\"telemetry\": " << telemetry_json << "}\n";
  if (!out) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string trace_dir = ".bench_build/traces";
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, number)) {
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && parse_u64(value, number) && number > 0) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      return usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (!have_workload || !have_seed) return usage("--workload and --seed are required");

  Outcome outcome;
  const std::string& w = options.workload;
  if (w == "sweep") {
    run_sweep(options, outcome);
  } else if (w == "serve_read" || w == "serve_swap") {
    run_serve(options, w == "serve_swap", outcome);
  } else if (w == "report") {
    run_report(options, outcome);
  } else {
    return usage(("unknown workload " + w).c_str());
  }

  if (options.trace) {
    // The workload's last traced pass ran with telemetry on; keep its view.
    const std::string telemetry_json =
        epserve::telemetry::snapshot().render_json();
    epserve::telemetry::reset();
    Tracer tracer;
    probe_batch_layers(batch_probe_servers(w), options.seed, tracer, outcome);
    probe_serve_layers(options.seed, tracer, outcome);
    probe_analysis_layers(options.seed, tracer, outcome);
    write_trace(trace_dir, options, tracer, telemetry_json);
  }

  if (!matches_declaration(outcome, options.trace ? "per_layer" : "end_to_end")) {
    return 1;
  }
  std::printf("%s\n", render_result_line(outcome).c_str());
  return 0;
}
