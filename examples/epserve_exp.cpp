// epserve_exp — the declarative experiment harness (ROADMAP item 4,
// docs/EXPERIMENTS_HARNESS.md):
//
//   epserve_exp list                        the built-in spec registry
//   epserve_exp run <spec.json|name>        expand + execute an experiment
//               [--out result.json]         matrix; the result document is
//               [--threads N]               byte-identical at any --threads
//   epserve_exp render <result.json>        regenerate the sweep report
//               [--out EXPERIMENTS_SWEEPS.md]  (byte-for-byte reproducible)
//   epserve_exp gate [--build-dir D]        run the perf-gating bench suite,
//               [--out BENCH_baseline.json] write baseline + dated snapshot
//                                           (bench/run_benches.sh wraps this)
//   epserve_exp claims                      check the paper's claims on the
//               [--out EXPERIMENTS_CLAIMS.md]  default seed; exit 1 when one
//                                           falls outside its accepted outcome
//
// Conventions shared with epserve_cli: strict util/args.h parsing (unknown
// flags and malformed numbers exit 2; an unknown spec name exits 2 listing
// the known names), and the global `--trace[=json]` flag prints a telemetry
// snapshot to stderr while stdout stays byte-identical.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/claims.h"
#include "exp/gate.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/spec.h"
#include "util/args.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/telemetry.h"

namespace {

using namespace epserve;

int usage() {
  std::fprintf(stderr,
               "usage: epserve_exp <list|run|render|gate|claims> [args] "
               "[--trace[=json]]\n"
               "  see the header comment of examples/epserve_exp.cpp\n");
  return 2;
}

int parse_failure(const ArgParser& parser, const Error& error) {
  std::fprintf(stderr, "%s\n%s", error.message.c_str(),
               parser.usage().c_str());
  return 2;
}

Result<std::string> read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Error::io("cannot read " + path);
  std::ostringstream text;
  text << file.rdbuf();
  if (file.bad()) return Error::io("cannot read " + path);
  return std::move(text).str();
}

Result<bool> write_file(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Error::io("cannot write " + path);
  file << text;
  if (!file.good()) return Error::io("cannot write " + path);
  return true;
}

/// Spec resolution: anything that looks like a path (a '/' or a .json
/// suffix) is parsed as a spec document; everything else is a registry
/// name. Both failure modes are usage errors (exit 2) — the registry's
/// kNotFound diagnostic lists the known names.
Result<exp::Spec> resolve_spec(const std::string& arg) {
  const bool is_path = arg.find('/') != std::string::npos ||
                       (arg.size() > 5 &&
                        arg.compare(arg.size() - 5, 5, ".json") == 0);
  if (is_path) {
    auto text = read_file(arg);
    if (!text.ok()) return text.error();
    return exp::spec_from_json(text.value());
  }
  return exp::named_spec(arg);
}

int cmd_list(int argc, const char* const* argv) {
  ArgParser parser("list");
  if (auto parsed = parser.parse(argc, argv); !parsed.ok()) {
    return parse_failure(parser, parsed.error());
  }
  TextTable table;
  table.columns({"spec", "cells", "description"},
                {Align::kLeft, Align::kRight, Align::kLeft});
  for (const auto name : exp::spec_names()) {
    auto spec = exp::named_spec(name);
    if (!spec.ok()) continue;
    table.row({spec.value().name,
               std::to_string(exp::cell_count(spec.value())),
               spec.value().description});
  }
  std::cout << table.render();
  return 0;
}

int cmd_run(int argc, const char* const* argv) {
  std::string spec_arg;
  std::string out_path;
  bool out_given = false;
  std::string threads_text;
  bool threads_given = false;
  ArgParser parser("run");
  parser.positional("spec", &spec_arg, "spec.json path or registry name")
      .value_flag("--out", &out_path, &out_given,
                  "result document destination (default: stdout)")
      .value_flag("--threads", &threads_text, &threads_given,
                  "cell-sweep worker threads (0 = auto); the result is "
                  "byte-identical at any value");
  if (auto parsed = parser.parse(argc, argv); !parsed.ok()) {
    return parse_failure(parser, parsed.error());
  }
  exp::RunnerOptions options;
  if (threads_given) {
    auto threads = parse_u64(threads_text);
    if (!threads.ok()) return parse_failure(parser, threads.error());
    options.threads = static_cast<int>(threads.value());
  }
  auto spec = resolve_spec(spec_arg);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.error().message.c_str());
    return 2;
  }
  auto result = exp::run_experiment(spec.value(), options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.error().message.c_str());
    return 1;
  }
  const std::string document = exp::render_result_json(result.value()) + "\n";
  if (!out_given) {
    std::cout << document;
    return 0;
  }
  if (auto wrote = write_file(out_path, document); !wrote.ok()) {
    std::fprintf(stderr, "%s\n", wrote.error().message.c_str());
    return 1;
  }
  std::size_t eligible = 0;
  for (const auto& cell : result.value().cells) {
    if (cell.eligible) eligible += 1;
  }
  std::cout << "wrote " << out_path << " (" << result.value().cells.size()
            << " cells, " << eligible << " eligible)\n";
  return 0;
}

int cmd_render(int argc, const char* const* argv) {
  std::string in_path;
  std::string out_path;
  bool out_given = false;
  ArgParser parser("render");
  parser.positional("result.json", &in_path, "result document to render")
      .value_flag("--out", &out_path, &out_given,
                  "markdown destination (default: stdout)");
  if (auto parsed = parser.parse(argc, argv); !parsed.ok()) {
    return parse_failure(parser, parsed.error());
  }
  auto text = read_file(in_path);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.error().message.c_str());
    return 1;
  }
  auto result = exp::result_from_json(text.value());
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.error().message.c_str());
    return 1;
  }
  const std::string report = exp::render_sweep_markdown(result.value());
  if (!out_given) {
    std::cout << report;
    return 0;
  }
  if (auto wrote = write_file(out_path, report); !wrote.ok()) {
    std::fprintf(stderr, "%s\n", wrote.error().message.c_str());
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

int cmd_gate(int argc, const char* const* argv) {
  exp::GateSuiteOptions options;
  std::string build_dir;
  bool build_dir_given = false;
  std::string out_path;
  bool out_given = false;
  ArgParser parser("gate");
  parser
      .value_flag("--build-dir", &build_dir, &build_dir_given,
                  "CMake build directory (default: build)")
      .value_flag("--out", &out_path, &out_given,
                  "baseline document path (default: BENCH_baseline.json); "
                  "the dated BENCH_<YYYYMMDD>.json snapshot lands next to "
                  "it");
  if (auto parsed = parser.parse(argc, argv); !parsed.ok()) {
    return parse_failure(parser, parsed.error());
  }
  if (build_dir_given) options.build_dir = build_dir;
  if (out_given) options.out = out_path;
  auto status = exp::run_gate_suite(options);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.error().message.c_str());
    return 1;
  }
  return status.value();
}

int cmd_claims(int argc, const char* const* argv) {
  std::string out_path;
  bool out_given = false;
  ArgParser parser("claims");
  parser.value_flag("--out", &out_path, &out_given,
                    "markdown destination (default: stdout)");
  if (auto parsed = parser.parse(argc, argv); !parsed.ok()) {
    return parse_failure(parser, parsed.error());
  }
  auto inputs = exp::build_claim_inputs();
  if (!inputs.ok()) {
    std::fprintf(stderr, "%s\n", inputs.error().message.c_str());
    return 1;
  }
  const auto report =
      exp::evaluate_claims(exp::paper_claims(), *inputs.value());
  for (const auto& result : report.results) {
    if (result.holds) continue;
    std::fprintf(stderr, "claim %s fails: measured '%s', accepted %s\n",
                 result.claim->id.c_str(), result.measured.text.c_str(),
                 exp::render_outcome(result.claim->accepted).c_str());
  }
  const std::string table = exp::render_claims_markdown(report);
  if (!out_given) {
    std::cout << table;
  } else if (auto wrote = write_file(out_path, table); !wrote.ok()) {
    std::fprintf(stderr, "%s\n", wrote.error().message.c_str());
    return 1;
  } else {
    std::cout << "wrote " << out_path << " (" << report.results.size()
              << " claims)\n";
  }
  return report.all_hold() ? 0 : 1;
}

/// Same global flag contract as epserve_cli: a bare `--trace` or
/// `--trace=json` anywhere in argv enables telemetry; other --trace=
/// values stay with the subcommand parser (none defines one here).
void extract_trace_flag(std::vector<const char*>& args, bool& trace,
                        bool& trace_json) {
  std::vector<const char*> kept;
  for (const char* arg : args) {
    const std::string_view view = arg;
    if (view == "--trace") {
      trace = true;
    } else if (view == "--trace=json") {
      trace = true;
      trace_json = true;
    } else {
      kept.push_back(arg);
    }
  }
  args = std::move(kept);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const char*> args(argv + 1, argv + argc);
  bool trace = false;
  bool trace_json = false;
  extract_trace_flag(args, trace, trace_json);
  if (args.empty()) return usage();
  if (trace) telemetry::set_enabled(true);

  const std::string command = args[0];
  const int sub_argc = static_cast<int>(args.size()) - 1;
  const char* const* sub_argv = args.data() + 1;
  int exit_code;
  if (command == "list") {
    exit_code = cmd_list(sub_argc, sub_argv);
  } else if (command == "run") {
    exit_code = cmd_run(sub_argc, sub_argv);
  } else if (command == "render") {
    exit_code = cmd_render(sub_argc, sub_argv);
  } else if (command == "gate") {
    exit_code = cmd_gate(sub_argc, sub_argv);
  } else if (command == "claims") {
    exit_code = cmd_claims(sub_argc, sub_argv);
  } else {
    return usage();
  }

  if (trace) {
    // stderr, so the command's stdout is byte-identical with tracing off.
    const auto snap = telemetry::snapshot();
    std::fputs((trace_json ? snap.render_json() + "\n" : snap.render_text())
                   .c_str(),
               stderr);
  }
  return exit_code;
}
