// Figure-data exporter: writes every population figure's data series to CSV
// files for external plotting (gnuplot / matplotlib / spreadsheets). One file
// per figure under the output directory. A malformed seed exits 2.
//
//   ./build/examples/export_figures [out_dir] [seed]
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "analysis/context.h"
#include "analysis/envelope.h"
#include "analysis/memory_analysis.h"
#include "analysis/peak_shift.h"
#include "analysis/scale_analysis.h"
#include "analysis/trends.h"
#include "analysis/uarch_analysis.h"
#include "core/epserve.h"
#include "util/args.h"
#include "util/csv.h"
#include "util/strings.h"

namespace {

using namespace epserve;

bool write(const std::filesystem::path& dir, const std::string& name,
           const CsvDocument& doc) {
  const auto path = (dir / name).string();
  const auto result = write_csv_file(path, doc);
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 result.error().message.c_str());
    return false;
  }
  std::cout << "wrote " << path << " (" << doc.rows.size() << " rows)\n";
  return true;
}

std::string num(double v) { return format_fixed(v, 6); }

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = "figures";
  dataset::GeneratorConfig config;
  ArgParser parser("export_figures");
  // The directory is optional too, so it is declared only when given.
  if (argc > 1) parser.positional("out_dir", &out_dir, "output directory");
  parser.optional_u64("seed", &config.seed, "population seed");
  if (auto parsed = parser.parse(argc - 1, argv + 1); !parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.error().message.c_str(),
                 parser.usage().c_str());
    return 2;
  }
  const std::filesystem::path dir = out_dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.string().c_str(),
                 ec.message().c_str());
    return 1;
  }

  auto population = dataset::generate_population(config);
  if (!population.ok()) {
    std::fprintf(stderr, "%s\n", population.error().message.c_str());
    return 1;
  }
  const dataset::ResultRepository repo(std::move(population).take());
  const analysis::AnalysisContext ctx(repo);

  // Fig.2/3/4: per-year EP and EE statistics.
  {
    CsvDocument doc;
    doc.header = {"year",    "count",  "ep_avg", "ep_med", "ep_min",
                  "ep_max",  "ee_avg", "ee_med", "ee_min", "ee_max",
                  "peak_ee_avg"};
    for (const auto& row : analysis::year_trends(ctx)) {
      doc.rows.push_back({std::to_string(row.year),
                          std::to_string(row.count), num(row.ep.mean),
                          num(row.ep.median), num(row.ep.min),
                          num(row.ep.max), num(row.score.mean),
                          num(row.score.median), num(row.score.min),
                          num(row.score.max), num(row.peak_ee.mean)});
    }
    if (!write(dir, "fig02_04_trends.csv", doc)) return 1;
  }

  // Fig.5: one row per server, with its codename and family (Figs.6, 8) and
  // normalised power curve (Figs.1, 10, 12; normalised EE is u / power).
  {
    CsvDocument doc;
    doc.header = {"server_id", "hw_year", "ep", "idle_fraction",
                  "overall_ee", "codename", "family", "power_idle"};
    for (const double u : metrics::kLoadLevels) {
      doc.header.push_back("power_" + format_fixed(u * 100.0, 0));
    }
    const auto& snap = ctx.columnar();
    for (std::size_t i = 0; i < repo.size(); ++i) {
      const auto& r = repo.records()[i];
      const auto* uarch = power::find_uarch(r.cpu_codename);
      doc.rows.push_back(
          {std::to_string(r.id), std::to_string(r.hw_year), num(snap.ep()[i]),
           num(snap.idle_fraction()[i]), num(snap.overall_score()[i]),
           r.cpu_codename,
           uarch != nullptr ? std::string(power::family_name(uarch->family))
                            : ""});
      for (const double p : analysis::normalized_power_points(r)) {
        doc.rows.back().push_back(num(p));
      }
    }
    if (!write(dir, "fig05_ep_points.csv", doc)) return 1;
  }

  // Fig.9/11: envelopes.
  {
    const auto power_env = analysis::power_envelope(ctx);
    const auto ee_env = analysis::ee_envelope(ctx);
    CsvDocument doc;
    doc.header = {"utilization", "power_lower", "power_upper", "ee_lower",
                  "ee_upper"};
    for (std::size_t i = 0; i < analysis::kEnvelopePoints; ++i) {
      const double u = i == 0 ? 0.0 : metrics::kLoadLevels[i - 1];
      doc.rows.push_back(
          {num(u), num(power_env.lower[i]), num(power_env.upper[i]),
           i == 0 ? "0" : num(ee_env.lower[i - 1]),
           i == 0 ? "0" : num(ee_env.upper[i - 1])});
    }
    if (!write(dir, "fig09_11_envelopes.csv", doc)) return 1;
  }

  // Fig.7: per-codename EP.
  {
    CsvDocument doc;
    doc.header = {"codename", "count", "mean_ep", "median_ep"};
    for (const auto& row : analysis::codename_ep_ranking(ctx)) {
      doc.rows.push_back({row.codename, std::to_string(row.count),
                          num(row.mean_ep), num(row.median_ep)});
    }
    if (!write(dir, "fig07_codename_ep.csv", doc)) return 1;
  }

  // Fig.8: the 2012-2016 mix decomposition (§III.B).
  {
    CsvDocument doc;
    doc.header = {"year", "actual_mean_ep", "mix_predicted_ep"};
    for (const auto& row :
         analysis::composition_decomposition(ctx, 2012, 2016)) {
      doc.rows.push_back({std::to_string(row.year), num(row.actual_mean_ep),
                          num(row.composition_predicted_ep)});
    }
    if (!write(dir, "fig08_composition.csv", doc)) return 1;
  }

  // Fig.13/14: scale analyses.
  {
    CsvDocument doc;
    doc.header = {"group", "key", "count", "ep_avg", "ep_med", "ee_avg"};
    for (const auto& row : analysis::ep_ee_by_nodes(ctx)) {
      doc.rows.push_back({"nodes", std::to_string(row.key),
                          std::to_string(row.count), num(row.ep.mean),
                          num(row.ep.median), num(row.score.mean)});
    }
    for (const auto& row : analysis::ep_ee_by_chips(ctx)) {
      doc.rows.push_back({"chips", std::to_string(row.key),
                          std::to_string(row.count), num(row.ep.mean),
                          num(row.ep.median), num(row.score.mean)});
    }
    if (!write(dir, "fig13_14_scale.csv", doc)) return 1;
  }

  // Fig.16: per-year peak-EE spot distribution.
  {
    CsvDocument doc;
    doc.header = {"year", "servers", "at60", "at70", "at80", "at90", "at100"};
    for (const auto& row : analysis::peak_spot_by_year(ctx)) {
      const auto count = [&](double u) {
        const auto it = row.spots.find(u);
        return std::to_string(it == row.spots.end() ? 0 : it->second);
      };
      doc.rows.push_back({std::to_string(row.year),
                          std::to_string(row.servers), count(0.6), count(0.7),
                          count(0.8), count(0.9), count(1.0)});
    }
    if (!write(dir, "fig16_peak_spots.csv", doc)) return 1;
  }

  // Fig.17 / Table I: MPC distribution.
  {
    CsvDocument doc;
    doc.header = {"gb_per_core", "count", "mean_ep", "mean_ee"};
    for (const auto& row : analysis::mpc_distribution(ctx, 0)) {
      doc.rows.push_back({num(row.gb_per_core), std::to_string(row.count),
                          num(row.mean_ep), num(row.mean_score)});
    }
    if (!write(dir, "fig17_table1_mpc.csv", doc)) return 1;
  }

  std::cout << "done; plot with any CSV-reading tool.\n";
  return 0;
}
