// The `serve_read` and `serve_swap` workloads — open-loop load against an
// in-process FleetServer over loopback TCP — and the serve-layer probes.
//
// Load model: one generator thread sends requests on a fixed, seeded
// Poisson schedule (independent users, so an open loop), round-robin over
// the query connections, without waiting for answers; one receiver thread
// per connection reads the answers in order. Every latency is timed from
// the request's due time. serve_swap adds an admin thread that issues
// add/retire swaps at a fixed rate on its own connection.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/operating_guide.h"
#include "cluster/placement.h"
#include "cluster/power_cap.h"
#include "dataset/generator.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/json_parser.h"
#include "util/rng.h"
#include "util/socket.h"
#include "util/telemetry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace epserve;

constexpr std::uint64_t kServeServers = 2000;
constexpr std::size_t kQueryConnections = 2;
constexpr int kSetupReps = 25;

// The nominal rate and the probe's rate ladder (requests/s), derived from
// the measured capacity of this mix (README.md, "Rate ladder"). Nominal
// load is light, ~10% of capacity, so that latency tracks the service time
// rather than queueing, which a slower machine would amplify.
constexpr double kNominalRate = 200;
constexpr double kNominalShare = 0.8;  // of --seconds, spent at nominal
const std::vector<double> kLadder = {1200, 1600, 2000, 2300, 2600, 2900, 3200};
/// Latency figures are per-window percentiles averaged over due-time
/// windows (windowed_ms). Ladder windows hold enough requests for a p99
/// with at least ten samples beyond it.
constexpr std::size_t kNominalWindows = 8;
constexpr std::size_t kRungWindows = 2;
constexpr double kWindowRequests = 1050;
/// The p99 limit a ladder rate must meet to count as sustainable.
constexpr double kLatencyLimitMs = 50.0;
/// A run whose generator was later than this at the median fell behind its
/// schedule and is invalid. (Single late wake-ups are charged to latency by
/// the due-time accounting; gen.late_p99_us reports them.)
constexpr double kMaxLateP50Us = 1000.0;
constexpr double kSwapRate = 20.0;  // swaps/s in serve_swap

constexpr std::uint64_t kPlaceSampleEvery = 40;
constexpr std::size_t kMaxPlaceSamples = 50;
constexpr int kSyntheticIdBase = 100'000'000;

const std::vector<std::string> kPolicies = {"pack-to-full", "balanced",
                                            "optimal-region"};

enum class Kind { kPlace, kStats, kPowercap, kGuide };
constexpr const char* kKindNames[] = {"place", "stats", "powercap", "guide"};

/// Request-type shares; guide takes the remainder.
struct Mix {
  double place = 0.0;
  double stats = 0.0;
  double powercap = 0.0;
};
constexpr Mix kReadMix{0.6, 0.2, 0.1};
constexpr Mix kStatsOnly{0.0, 1.0, 0.0};

/// Fleet power range read from the daemon itself: idle from a stats
/// response, peak from a place response at demand 1.
struct FleetFacts {
  double idle_watts = 0.0;
  double peak_watts = 0.0;
  std::uint64_t digest = 0;
};

/// Seeded request payloads. Every request is valid by construction: demands
/// lie inside (0, 1) and power caps strictly between fleet idle and peak
/// power, so any failure counted is a real one.
class RequestGen {
 public:
  RequestGen(std::uint64_t seed, const FleetFacts& facts, const Mix& mix)
      : rng_(seed), facts_(facts), mix_(mix) {}

  std::string next(Kind& kind) {
    const double r = rng_.uniform();
    const std::string& policy = kPolicies[count_++ % kPolicies.size()];
    char buf[192];
    if (r < mix_.place) {
      kind = Kind::kPlace;
      std::snprintf(buf, sizeof(buf),
                    R"({"type":"place","demand":%.17g,"policy":"%s"})",
                    rng_.uniform(0.02, 0.98), policy.c_str());
    } else if (r < mix_.place + mix_.stats) {
      kind = Kind::kStats;
      return R"({"type":"stats"})";
    } else if (r < mix_.place + mix_.stats + mix_.powercap) {
      kind = Kind::kPowercap;
      const double cap =
          facts_.idle_watts +
          (facts_.peak_watts - facts_.idle_watts) * rng_.uniform(0.02, 0.98);
      std::snprintf(buf, sizeof(buf),
                    R"({"type":"powercap","cap_watts":%.17g,"policy":"%s"})",
                    cap, policy.c_str());
    } else {
      kind = Kind::kGuide;
      std::snprintf(buf, sizeof(buf),
                    R"({"type":"guide","ee_threshold":%.17g,)"
                    R"("ep_bucket_width":0.1})",
                    rng_.uniform(0.90, 0.97));
    }
    return buf;
  }

 private:
  Rng rng_;
  FleetFacts facts_;
  Mix mix_;
  std::uint64_t count_ = 0;
};

bool is_ok(const std::string& payload) {
  return payload.rfind(R"({"ok":true)", 0) == 0;
}

/// The unsigned number after `"key":` in a response, or 0.
std::uint64_t number_after(const std::string& payload, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const auto at = payload.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(payload.c_str() + at + needle.size(), nullptr, 10);
}

/// One closed-loop request/response on `socket`.
Result<std::string> round_trip(const net::Socket& socket,
                               std::string_view payload) {
  if (auto sent = net::write_frame(socket, payload); !sent.ok()) {
    return sent.error();
  }
  auto frame = net::read_frame(socket);
  if (!frame.ok()) return frame.error();
  if (frame.value().eof) return Error::io("connection closed");
  return std::move(frame.value().payload);
}

/// Sleeps until `due_ns`. A plain sleep: spinning here would take a CPU
/// from the daemon's workers, and the lateness it saves is measured anyway.
void sleep_until_ns(std::uint64_t due_ns) {
  const std::uint64_t now = now_ns();
  if (due_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

/// A sampled place request and the response it got, for the offline check.
struct PlaceSample {
  std::string request;
  std::string response;
};

struct InFlight {
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  Kind kind = Kind::kStats;
  std::size_t sample = 0;  // 1-based index into the samples, 0 = none
};

/// A query connection: its socket plus the requests sent but not answered.
struct Connection {
  net::Socket socket;
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<InFlight> in_flight;  // guarded by mutex
  bool closing = false;            // guarded by mutex
  std::uint64_t last_epoch = 0;    // receiver thread only
};

/// What one rung of load observed.
struct RungResult {
  double rate = 0.0;
  DueTimeLog reads;
  DueTimeLog swaps;
  std::uint64_t swaps_ok = 0;
  std::uint64_t epoch_regressions = 0;
  std::uint64_t max_active_epochs = 0;
};

/// Per-receiver tallies, merged after the rung.
struct ReceiverResult {
  DueTimeLog log;
  std::uint64_t epoch_regressions = 0;
  std::uint64_t max_active_epochs = 0;
};

void receive(Connection& conn, std::vector<PlaceSample>* samples,
             ReceiverResult& out) {
  for (;;) {
    InFlight request;
    {
      std::unique_lock<std::mutex> lock(conn.mutex);
      conn.ready.wait(lock,
                      [&] { return !conn.in_flight.empty() || conn.closing; });
      if (conn.in_flight.empty()) return;
      request = conn.in_flight.front();
      conn.in_flight.pop_front();
    }
    auto frame = net::read_frame(conn.socket);
    const std::uint64_t done = now_ns();
    const bool ok = frame.ok() && !frame.value().eof && is_ok(frame.value().payload);
    out.log.record(request.due_ns, request.sent_ns, done, ok);
    if (!ok) {
      std::fprintf(stderr, "perfbench: %s request failed: %s\n",
                   kKindNames[static_cast<int>(request.kind)],
                   frame.ok() ? frame.value().payload.substr(0, 200).c_str()
                              : frame.error().message.c_str());
      continue;
    }
    const std::string& payload = frame.value().payload;
    const std::uint64_t epoch = number_after(payload, "epoch");
    if (epoch < conn.last_epoch) ++out.epoch_regressions;
    conn.last_epoch = epoch;
    if (request.kind == Kind::kStats) {
      out.max_active_epochs = std::max(
          out.max_active_epochs, number_after(payload, "active_epochs"));
    }
    if (request.sample != 0) (*samples)[request.sample - 1].response = payload;
  }
}

/// Admin swaps at a fixed rate: add a copy of `donor` under a fresh id,
/// then retire it, alternating, each timed from its due time.
struct Swapper {
  const net::Socket* socket = nullptr;
  dataset::ServerRecord donor;
  double rate = 0.0;
  int next_id = kSyntheticIdBase;
  std::uint64_t last_epoch = 0;
};

void drive_swaps(Swapper& swapper, std::uint64_t t0, std::uint64_t end_ns,
                 RungResult& out) {
  const auto interval = static_cast<std::uint64_t>(1e9 / swapper.rate);
  for (std::uint64_t due = t0; due < end_ns; due += interval) {
    sleep_until_ns(due);
    std::string payload;
    if (swapper.next_id % 2 == 0) {
      dataset::ServerRecord record = swapper.donor;
      record.id = swapper.next_id;
      payload = R"({"type":"admin","action":"add","servers":[)" +
                serve::render_server_record(record) + "]}";
    } else {
      payload = R"({"type":"admin","action":"retire","ids":[)" +
                std::to_string(swapper.next_id - 1) + "]}";
    }
    ++swapper.next_id;
    const std::uint64_t sent = now_ns();
    auto answer = round_trip(*swapper.socket, payload);
    const bool ok = answer.ok() && is_ok(answer.value());
    out.swaps.record(due, sent, now_ns(), ok);
    if (!ok) {
      std::fprintf(stderr, "perfbench: swap failed: %s\n",
                   answer.ok() ? answer.value().substr(0, 200).c_str()
                               : answer.error().message.c_str());
      continue;
    }
    // Admins are serialized, so each swap publishes the next epoch.
    const std::uint64_t epoch = number_after(answer.value(), "epoch");
    if (swapper.last_epoch != 0 && epoch != swapper.last_epoch + 1) {
      ++out.epoch_regressions;
    }
    swapper.last_epoch = epoch;
    ++out.swaps_ok;
  }
}

/// Runs `seconds` of open-loop load at `rate` over `conns`, plus swaps when
/// `swaps` is set. Place requests are sampled into `samples`.
RungResult run_rung(std::vector<Connection*>& conns, Swapper* swaps,
                    double rate, double seconds, RequestGen& gen,
                    std::uint64_t schedule_seed,
                    std::vector<PlaceSample>* samples) {
  RungResult result;
  result.rate = rate;

  // Pre-build the schedule and payloads so sending costs only the write.
  Rng schedule(schedule_seed);
  std::vector<std::uint64_t> offsets;
  std::vector<std::string> payloads;
  std::vector<Kind> kinds;
  std::vector<std::size_t> sample_ids;
  std::uint64_t places = 0;
  for (double t = schedule.exponential(rate); t < seconds;
       t += schedule.exponential(rate)) {
    offsets.push_back(static_cast<std::uint64_t>(t * 1e9));
    Kind kind = Kind::kStats;
    payloads.push_back(gen.next(kind));
    kinds.push_back(kind);
    std::size_t sample = 0;
    if (samples != nullptr && kind == Kind::kPlace &&
        places++ % kPlaceSampleEvery == 0 &&
        samples->size() < kMaxPlaceSamples) {
      samples->push_back(PlaceSample{payloads.back(), {}});
      sample = samples->size();
    }
    sample_ids.push_back(sample);
  }
  // Receivers write responses into samples by index; no reallocation from
  // here on (the caller reserved kMaxPlaceSamples).

  std::vector<ReceiverResult> received(conns.size());
  std::vector<std::thread> receivers;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    conns[c]->closing = false;
    receivers.emplace_back(
        [&, c] { receive(*conns[c], samples, received[c]); });
  }
  const std::uint64_t t0 = now_ns() + 2'000'000;
  const auto end_ns = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::thread admin;
  if (swaps != nullptr) {
    admin = std::thread([&] { drive_swaps(*swaps, t0, end_ns, result); });
  }

  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const std::uint64_t due = t0 + offsets[i];
    sleep_until_ns(due);
    Connection& conn = *conns[i % conns.size()];
    {
      const std::lock_guard<std::mutex> lock(conn.mutex);
      conn.in_flight.push_back(InFlight{due, now_ns(), kinds[i], sample_ids[i]});
    }
    conn.ready.notify_one();
    (void)net::write_frame(conn.socket, payloads[i]);  // a failure shows as a
                                                       // failed read
  }
  for (Connection* conn : conns) {
    {
      const std::lock_guard<std::mutex> lock(conn->mutex);
      conn->closing = true;
    }
    conn->ready.notify_one();
  }
  for (auto& receiver : receivers) receiver.join();
  if (admin.joinable()) admin.join();
  for (const ReceiverResult& r : received) {
    result.reads.merge(r.log);
    result.epoch_regressions += r.epoch_regressions;
    result.max_active_epochs =
        std::max(result.max_active_epochs, r.max_active_epochs);
  }
  return result;
}

/// The 2000-server serve fleet's records for `seed`.
Result<std::vector<dataset::ServerRecord>> serve_records(std::uint64_t seed) {
  dataset::ScaledConfig config;
  config.seed = seed;
  config.servers = kServeServers;
  return dataset::generate_scaled_population(config);
}

/// Reads the fleet's power range through the daemon (stats + place at 1).
Result<FleetFacts> read_fleet_facts(const net::Socket& socket) {
  auto stats = round_trip(socket, R"({"type":"stats"})");
  if (!stats.ok()) return stats.error();
  auto stats_doc = parse_json(stats.value());
  if (!stats_doc.ok()) return stats_doc.error();
  auto idle = stats_doc.value().number_member("total_idle_watts");
  if (!idle.ok()) return idle.error();
  auto digest = stats_doc.value().string_member("digest");
  if (!digest.ok()) return digest.error();
  auto full = round_trip(socket, R"({"type":"place","demand":1})");
  if (!full.ok()) return full.error();
  auto full_doc = parse_json(full.value());
  if (!full_doc.ok()) return full_doc.error();
  auto peak = full_doc.value().number_member("total_power_watts");
  if (!peak.ok()) return peak.error();
  FleetFacts facts;
  facts.idle_watts = idle.value();
  facts.peak_watts = peak.value();
  facts.digest = std::strtoull(digest.value().c_str(), nullptr, 16);
  return facts;
}

/// Checks sampled place responses against the offline render of the same
/// request on the same fleet. Samples answered by another fleet snapshot
/// (mid-swap in serve_swap) are skipped; returns how many were compared.
std::size_t check_place_samples(const std::vector<PlaceSample>& samples,
                                const cluster::Fleet& fleet,
                                Outcome& outcome) {
  std::size_t compared = 0;
  const std::string digest_field =
      "\"digest\":\"" + serve::hex_u64(fleet.digest()) + "\"";
  for (const PlaceSample& sample : samples) {
    if (sample.response.find(digest_field) == std::string::npos) continue;
    auto request = serve::parse_request(sample.request);
    if (!request.ok()) {
      outcome.fail_check("sample request does not parse: " + sample.request);
      continue;
    }
    const auto& place = std::get<serve::PlaceRequest>(request.value().payload);
    auto policy = cluster::make_placement_policy(place.policy);
    auto assignment = cluster::evaluate(*policy.value(), fleet, place.demand);
    if (!assignment.ok()) {
      outcome.fail_check("offline evaluate failed: " +
                         assignment.error().message);
      continue;
    }
    const std::string expected = serve::render_place_response(
        number_after(sample.response, "epoch"), fleet.digest(), place,
        assignment.value());
    if (expected != sample.response) {
      outcome.fail_check("place response differs from the offline render "
                         "for " + sample.request);
    }
    ++compared;
  }
  return compared;
}

/// Highest sustainable rate: the highest passing rung, interpolated toward
/// the next rung by where the limit falls between their p99s.
double sustainable_rate(const std::vector<RungResult>& rungs,
                        const std::vector<double>& p99s,
                        const std::vector<bool>& passed) {
  std::size_t best = rungs.size();
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (passed[i]) best = i;
  }
  if (best == rungs.size()) return 0.0;
  const double rate = rungs[best].rate;
  if (best + 1 == rungs.size()) return rate;
  const double next_p99 = p99s[best + 1];
  if (!std::isfinite(next_p99) || next_p99 <= kLatencyLimitMs) {
    return rate;  // the next rung failed on errors or backlog
  }
  const double frac =
      (kLatencyLimitMs - p99s[best]) / (next_p99 - p99s[best]);
  return rate + (rungs[best + 1].rate - rate) * std::clamp(frac, 0.0, 1.0);
}

/// The p-th percentile of each of `windows` due-time windows, averaged
/// over the windows (trimmed_mean), in ms.
double windowed_ms(const DueTimeLog& log, std::size_t windows, double p) {
  std::vector<double> values;
  for (const DueTimeLog& window : log.split(windows)) {
    values.push_back(window.latency_ms(p));
  }
  return trimmed_mean(values);
}

void print_rung(const RungResult& rung, double p99, bool passed) {
  std::fprintf(stderr,
               "perfbench: rate %6.0f/s  n=%6zu  p50 %7.3f ms  p99 %8.3f ms  "
               "late p99 %7.1f us  backlog %s  %s\n",
               rung.rate, rung.reads.size(),
               windowed_ms(rung.reads, kRungWindows, 50.0), p99,
               rung.reads.late_us(99.0),
               rung.reads.backlog_grew(kLatencyLimitMs) ? "grew" : "flat",
               passed ? "ok" : "over limit");
}

/// The rate ladder: each rate in turn until two rungs in a row miss the
/// limit. Returns the highest sustainable rate.
double run_ladder(std::vector<Connection*>& conns, RequestGen& gen,
                  std::uint64_t seed, Outcome& outcome) {
  std::vector<RungResult> rungs;
  std::vector<double> p99s;
  std::vector<bool> passed;
  for (std::size_t i = 0; i < kLadder.size(); ++i) {
    const double rate = kLadder[i];
    rungs.push_back(run_rung(conns, nullptr, rate,
                             kRungWindows * kWindowRequests / rate, gen,
                             seed * 31 + i, nullptr));
    const RungResult& rung = rungs.back();
    outcome.attempted += rung.reads.size();
    outcome.failed += rung.reads.failed();
    const double p99 = windowed_ms(rung.reads, kRungWindows, 99.0);
    const bool ok = rung.reads.failed() == 0 && p99 <= kLatencyLimitMs &&
                    !rung.reads.backlog_grew(kLatencyLimitMs);
    p99s.push_back(p99);
    passed.push_back(ok);
    print_rung(rung, p99, ok);
    if (i > 0 && !ok && !passed[i - 1]) break;
  }
  return sustainable_rate(rungs, p99s, passed);
}

/// Opens `count` query connections to `port`; empty on failure.
std::vector<std::unique_ptr<Connection>> connect_all(std::uint16_t port,
                                                     std::size_t count) {
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < count; ++c) {
    auto socket = net::connect_tcp(port);
    if (!socket.ok()) return {};
    conns.push_back(std::make_unique<Connection>());
    conns.back()->socket = std::move(socket).take();
  }
  return conns;
}

}  // namespace

void run_serve(const Options& options, bool swaps, Outcome& outcome) {
  auto records = serve_records(options.seed);
  if (!records.ok()) {
    outcome.fail_check("serve fleet: " + records.error().message);
    return;
  }
  serve::ServeOptions serve_options;
  serve_options.threads = kQueryConnections + (swaps ? 1 : 0);

  // Setup: generate the fleet and start the daemon, several times over.
  std::vector<double> setup_s;
  std::unique_ptr<serve::FleetServer> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    const std::uint64_t start = now_ns();
    auto generated = serve_records(options.seed);
    if (!generated.ok()) {
      outcome.fail_check("serve fleet: " + generated.error().message);
      return;
    }
    auto started =
        serve::FleetServer::start(std::move(generated).take(), serve_options);
    setup_s.push_back(seconds_since(start));
    if (!started.ok()) {
      outcome.fail_check("server start: " + started.error().message);
      return;
    }
    server = std::move(started).take();
  }

  auto fleet = cluster::Fleet::build(records.value());
  if (!fleet.ok()) {
    outcome.fail_check("offline fleet: " + fleet.error().message);
    return;
  }
  auto owned = connect_all(server->port(), kQueryConnections);
  if (owned.empty()) {
    outcome.fail_check("connect to the daemon failed");
    return;
  }
  std::vector<Connection*> conns;
  for (const auto& conn : owned) conns.push_back(conn.get());
  auto facts = read_fleet_facts(conns.front()->socket);
  if (!facts.ok()) {
    outcome.fail_check("fleet facts: " + facts.error().message);
    return;
  }
  if (facts.value().digest != fleet.value().digest()) {
    outcome.fail_check("daemon digest differs from the offline fleet");
  }
  std::optional<net::Socket> admin_socket;
  Swapper swapper;
  if (swaps) {
    auto socket = net::connect_tcp(server->port());
    if (!socket.ok()) {
      outcome.fail_check("admin connect: " + socket.error().message);
      return;
    }
    admin_socket.emplace(std::move(socket).take());
    swapper.socket = &*admin_socket;
    swapper.donor = records.value().front();
    swapper.rate = kSwapRate;
  }

  RequestGen gen(options.seed * 7919 + 17, facts.value(), kReadMix);
  std::vector<PlaceSample> samples;
  samples.reserve(kMaxPlaceSamples);

  if (options.trace) {
    // Tracing overhead: the nominal rate with telemetry off and on.
    std::vector<double> off_ms;
    std::vector<double> on_ms;
    DueTimeLog untraced;
    for (int rep = 0; rep < 2; ++rep) {
      for (const bool on : {false, true}) {
        telemetry::reset();
        telemetry::set_enabled(on);
        const RungResult rung =
            run_rung(conns, swaps ? &swapper : nullptr, kNominalRate,
                     0.2 * options.seconds, gen,
                     options.seed + 101 + static_cast<std::uint64_t>(rep),
                     &samples);
        outcome.attempted += rung.reads.size() + rung.swaps.size();
        outcome.failed += rung.reads.failed() + rung.swaps.failed();
        (on ? on_ms : off_ms).push_back(rung.reads.latency_ms(50.0));
        if (!on) untraced.merge(rung.reads);
      }
    }
    telemetry::set_enabled(false);
    outcome.add("trace.overhead_pct",
                100.0 * (median(on_ms) / median(off_ms) - 1.0), "%");
    outcome.add("op.tail_ms",
                untraced.latency_ms(tail_percentile_for(untraced.size())), "ms");
    return;
  }

  // Measurement: open-loop load at the nominal rate (plus swaps).
  const RungResult rung =
      run_rung(conns, swaps ? &swapper : nullptr, kNominalRate,
               kNominalShare * options.seconds, gen, options.seed * 31,
               &samples);
  outcome.attempted += rung.reads.size() + rung.swaps.size();
  outcome.failed += rung.reads.failed() + rung.swaps.failed();
  const double p99 = windowed_ms(rung.reads, kNominalWindows, 99.0);
  print_rung(rung, p99, p99 <= kLatencyLimitMs);
  if (rung.reads.late_us(50.0) > kMaxLateP50Us) {
    outcome.fail_check("generator fell behind its schedule (late p50 " +
                       std::to_string(rung.reads.late_us(50.0)) + " us)");
  }

  // Correctness: per-connection epochs never regress; sampled place answers
  // equal the offline render; every swap landed (final epoch = swaps + 1).
  if (rung.epoch_regressions != 0) {
    outcome.fail_check("epochs regressed within a connection");
  }
  const std::size_t compared =
      check_place_samples(samples, fleet.value(), outcome);
  if (compared == 0) outcome.fail_check("no place response was checked");
  auto final_stats = round_trip(conns.front()->socket, R"({"type":"stats"})");
  const std::uint64_t final_epoch =
      final_stats.ok() ? number_after(final_stats.value(), "epoch") : 0;
  if (final_epoch != rung.swaps_ok + 1 || rung.swaps_ok != rung.swaps.size()) {
    outcome.fail_check("swaps did not all land: epoch " +
                       std::to_string(final_epoch) + " after " +
                       std::to_string(rung.swaps_ok) + " of " +
                       std::to_string(rung.swaps.size()) + " swaps");
  }
  std::fprintf(stderr,
               "perfbench: %zu reads in %zu windows; %zu place samples "
               "checked; %llu swaps\n",
               rung.reads.size(), kNominalWindows, compared,
               static_cast<unsigned long long>(rung.swaps_ok));

  outcome.add("setup_s", median(setup_s), "s");
  outcome.add("latency_p50_ms",
              windowed_ms(rung.reads, kNominalWindows, 50.0), "ms");
  outcome.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void probe_serve_layers(std::uint64_t seed, Tracer& tracer, Outcome& outcome) {
  const Tracer::Scope layer(tracer, "probe.serve");
  auto records = serve_records(seed);
  if (!records.ok()) {
    outcome.fail_check("serve probe: " + records.error().message);
    return;
  }
  auto fleet = cluster::Fleet::build(records.value());
  serve::ServeOptions serve_options;
  serve_options.threads = kQueryConnections + 1;  // + one admin connection
  auto started = serve::FleetServer::start(records.value(), serve_options);
  if (!fleet.ok() || !started.ok()) {
    outcome.fail_check("serve probe: fleet or server failed to start");
    return;
  }
  const auto server = std::move(started).take();
  const cluster::Fleet& f = fleet.value();

  FleetFacts facts;
  facts.idle_watts = f.total_idle_watts();
  facts.digest = f.digest();
  {
    auto policy = cluster::make_placement_policy("optimal-region");
    facts.peak_watts =
        cluster::evaluate(*policy.value(), f, 1.0).value().total_power_watts;
  }

  // serve.protocol + serve.handler: a fixed count of each request type,
  // parsed and handled in-process (no socket).
  constexpr int kPerKind = 40;
  RequestGen gen(seed * 7919 + 17, facts, kReadMix);
  int counts[4] = {0, 0, 0, 0};
  double response_bytes = 0.0;
  int handled = 0;
  while (std::min({counts[0], counts[1], counts[2], counts[3]}) < kPerKind) {
    Kind kind = Kind::kStats;
    const std::string payload = gen.next(kind);
    if (counts[static_cast<int>(kind)]++ >= kPerKind) continue;
    {
      const Tracer::Scope span(tracer, "serve.protocol.parse");
      (void)serve::parse_request(payload);
    }
    std::string response;
    {
      const Tracer::Scope span(tracer, std::string("serve.handler.") +
                                           kKindNames[static_cast<int>(kind)]);
      response = server->handle_payload(payload);
    }
    if (!is_ok(response)) outcome.fail_check("serve probe: " + response);
    response_bytes += static_cast<double>(response.size());
    ++handled;
  }
  for (const char* kind : kKindNames) {
    outcome.add(std::string("handler.") + kind + "_us",
                1e3 * tracer.median_ms(std::string("serve.handler.") + kind),
                "us");
  }
  outcome.add("protocol.parse_us", 1e3 * tracer.median_ms("serve.protocol.parse"),
              "us");
  outcome.add("response.bytes_per_req", response_bytes / handled, "B");

  // The cluster calls behind each request type, and the place render.
  Rng rng(seed);
  for (const auto& name : kPolicies) {
    auto policy = cluster::make_placement_policy(name);
    for (int i = 0; i < kPerKind; ++i) {
      const double demand = rng.uniform(0.02, 0.98);
      std::optional<cluster::Assignment> assignment;
      {
        const Tracer::Scope span(tracer, "cluster.evaluate." + name);
        assignment = cluster::evaluate(*policy.value(), f, demand).value();
      }
      serve::PlaceRequest request;
      request.demand = demand;
      request.policy = name;
      const Tracer::Scope span(tracer, "serve.protocol.render_place");
      (void)serve::render_place_response(1, facts.digest, request, *assignment);
    }
    outcome.add("cluster.evaluate." + name + "_us",
                1e3 * tracer.median_ms("cluster.evaluate." + name), "us");
  }
  outcome.add("protocol.render_place_us",
              1e3 * tracer.median_ms("serve.protocol.render_place"), "us");
  for (int i = 0; i < kPerKind / 2; ++i) {
    {
      const Tracer::Scope span(tracer, "cluster.guide");
      (void)cluster::build_operating_guide(f, rng.uniform(0.90, 0.97), 0.1);
    }
    const double cap = facts.idle_watts + (facts.peak_watts - facts.idle_watts) *
                                              rng.uniform(0.02, 0.98);
    auto policy = cluster::make_placement_policy(
        kPolicies[static_cast<std::size_t>(i) % kPolicies.size()]);
    const Tracer::Scope span(tracer, "cluster.powercap");
    (void)cluster::max_throughput_under_cap(*policy.value(), f, cap);
  }
  outcome.add("cluster.guide_us", 1e3 * tracer.median_ms("cluster.guide"), "us");
  outcome.add("cluster.powercap_us", 1e3 * tracer.median_ms("cluster.powercap"),
              "us");

  // serve.transport: a closed-loop stats round trip minus its handler time.
  auto owned = connect_all(server->port(), kQueryConnections);
  auto admin = net::connect_tcp(server->port());
  if (owned.empty() || !admin.ok()) {
    outcome.fail_check("serve probe: connect failed");
    return;
  }
  for (int i = 0; i < 400; ++i) {
    const Tracer::Scope span(tracer, "serve.transport.stats_rtt");
    if (!round_trip(owned.front()->socket, R"({"type":"stats"})").ok()) {
      outcome.fail_check("serve probe: stats round trip failed");
      break;
    }
  }
  outcome.add("transport.rtt_us",
              1e3 * (tracer.median_ms("serve.transport.stats_rtt") -
                     tracer.median_ms("serve.handler.stats")),
              "us");

  // serve.admin: in-process swaps (add then retire a copy of one server)
  // and the FleetState::create inside each.
  for (int i = 0; i < kPerKind; ++i) {
    dataset::ServerRecord record = records.value().front();
    record.id = kSyntheticIdBase - 1 - i;
    const std::string add = R"({"type":"admin","action":"add","servers":[)" +
                            serve::render_server_record(record) + "]}";
    const std::string retire = R"({"type":"admin","action":"retire","ids":[)" +
                               std::to_string(record.id) + "]}";
    for (const std::string* payload : {&add, &retire}) {
      const Tracer::Scope span(tracer, "serve.admin.swap");
      if (!is_ok(server->handle_payload(*payload))) {
        outcome.fail_check("serve probe: in-process swap failed");
      }
    }
    std::vector<dataset::ServerRecord> copy = records.value();
    const Tracer::Scope span(tracer, "serve.fleet_state.create");
    (void)serve::FleetState::create(std::move(copy));
  }
  const double swap_us = 1e3 * tracer.median_ms("serve.admin.swap");
  const double create_us = 1e3 * tracer.median_ms("serve.fleet_state.create");
  outcome.add("admin.swap_us", swap_us, "us");
  outcome.add("fleet_state.create_us", create_us, "us");
  outcome.add("admin.copy_scan_us", swap_us - create_us, "us");

  // A light paced load over the wire: stats on one connection, swaps on
  // another — generator lateness, live epochs, and swap round trips.
  std::vector<Connection*> one = {owned.front().get()};
  Swapper swapper;
  swapper.socket = &admin.value();
  swapper.donor = records.value().front();
  swapper.rate = 200.0;
  RequestGen stats_gen(seed, facts, kStatsOnly);
  const RungResult rung =
      run_rung(one, &swapper, 1000.0, 0.6, stats_gen, seed + 5, nullptr);
  if (rung.reads.failed() + rung.swaps.failed() != 0) {
    outcome.fail_check("serve probe: paced load had failures");
  }
  const double swap_tail = tail_percentile_for(rung.swaps.size());
  outcome.add("gen.late_p99_us", rung.reads.late_us(99.0), "us");
  outcome.add("serve.active_epochs_max",
              static_cast<double>(rung.max_active_epochs), "count");
  outcome.add("swap.p50_ms", rung.swaps.latency_ms(50.0), "ms");
  outcome.add("swap.tail_ms", rung.swaps.latency_ms(swap_tail), "ms");

  // The rate ladder with the serve workloads' request mix.
  std::vector<Connection*> conns;
  for (const auto& conn : owned) conns.push_back(conn.get());
  RequestGen ladder_gen(seed * 7919 + 29, facts, kReadMix);
  outcome.add("serve.max_rate_rps", run_ladder(conns, ladder_gen, seed, outcome),
              "1/s");
}

}  // namespace perfbench
