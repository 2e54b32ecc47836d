// FleetServer: the epserve_serve daemon — a long-running TCP service
// answering place / guide / powercap / stats queries against a live
// cluster::Fleet at high QPS (ROADMAP item 1; docs/SERVING.md).
//
// Concurrency model:
//  * one dedicated accept thread; each accepted connection becomes a task
//    on the shared util ThreadPool and is served request-at-a-time
//    (length-prefixed JSON frames, serve/protocol.h);
//  * the live fleet lives behind an EpochPtr<FleetState> (util/epoch_ptr.h).
//    Query handlers pin the current snapshot once per request and answer
//    entirely from that pin, so a response is always internally consistent
//    with exactly one epoch — the response's epoch/digest pair proves it;
//  * admin requests (add/retire servers) build the *next* FleetState on the
//    handling thread — readers keep answering from the old snapshot the
//    whole time — then publish it with one atomic swap. A build rejected by
//    Fleet::build (invalid record, emptied fleet) leaves the old snapshot
//    live and queryable; nothing is ever swapped in unvalidated.
//
// Telemetry (inert unless the host enabled it): every request runs under a
// `serve/request/<type>` root span with `serve.queue_wait` (accept →
// handler start) and `serve.request.handle` timers; counters
// `serve.requests`, `serve.errors`, `serve.swaps`, `serve.swap_rejects`;
// gauge `serve.active_epochs` (snapshots not yet reclaimed, sampled at each
// swap).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/fleet.h"
#include "dataset/record.h"
#include "serve/protocol.h"
#include "util/epoch_ptr.h"
#include "util/result.h"
#include "util/socket.h"
#include "util/thread_pool.h"

namespace epserve::serve {

/// One immutable fleet snapshot: the records plus the validated Fleet built
/// from them. The records stay because admin add/retire rebuilds the next
/// snapshot from them; instances are created only by FleetState::create and
/// never mutated afterwards.
class FleetState {
 public:
  /// Builds a validated snapshot; fails exactly like cluster::Fleet::build
  /// (empty fleet, per-server curve validation with id context).
  static Result<std::unique_ptr<const FleetState>> create(
      std::vector<dataset::ServerRecord> records);

  [[nodiscard]] const std::vector<dataset::ServerRecord>& records() const {
    return records_;
  }
  [[nodiscard]] const cluster::Fleet& fleet() const { return *fleet_; }
  /// Cached Fleet::digest() (computed once at build).
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

 private:
  FleetState() = default;

  std::vector<dataset::ServerRecord> records_;
  std::optional<cluster::Fleet> fleet_;
  std::uint64_t digest_ = 0;
};

struct ServeOptions {
  std::uint16_t port = 0;        // 0 = kernel-assigned (read back via port())
  std::size_t threads = 0;       // pool workers; 0 = auto
  std::size_t max_request_bytes = net::kMaxFrameBytes;
};

class FleetServer {
 public:
  /// Validates the initial fleet, binds the listener, and starts serving.
  static Result<std::unique_ptr<FleetServer>> start(
      std::vector<dataset::ServerRecord> initial, const ServeOptions& options);

  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// The bound TCP port (useful with options.port == 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Stops accepting, unblocks every in-flight connection, and joins all
  /// workers. Idempotent; also run by the destructor.
  void stop();

  // --- Introspection (the stats request reports the same values) ----------
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t swaps() const {
    return swaps_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t active_epochs() const {
    return state_->active_epochs();
  }
  [[nodiscard]] std::uint64_t epoch() const { return state_->epoch(); }

  /// Handles one already-parsed-off-the-wire payload and returns the
  /// response bytes — the full request path minus the socket (exposed for
  /// the protocol tests; the TCP path calls exactly this).
  [[nodiscard]] std::string handle_payload(std::string_view payload);

 private:
  FleetServer(std::unique_ptr<const FleetState> initial,
              const ServeOptions& options, net::Socket listener,
              std::uint16_t port);

  void accept_loop();
  void serve_connection(const std::shared_ptr<net::Socket>& socket,
                        std::uint64_t accepted_ns);

  std::string handle_request(const Request& request);
  std::string handle_admin(const AdminRequest& request);

  ServeOptions options_;
  std::unique_ptr<EpochPtr<FleetState>> state_;
  net::Socket listener_;
  std::uint16_t port_ = 0;

  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> swaps_{0};

  /// Serializes admin request handling (publishes are additionally
  /// serialized inside EpochPtr; this mutex makes the read-modify-write of
  /// records -> new records atomic across concurrent admins).
  std::mutex admin_mutex_;

  /// Connections currently being served; stop() shuts each down so blocked
  /// reads return. Sockets are shared with their connection task, so a
  /// racing stop never touches a dead fd.
  std::mutex connections_mutex_;
  std::vector<std::weak_ptr<net::Socket>> connections_;

  std::unique_ptr<ThreadPool> pool_;
  std::thread accept_thread_;
};

}  // namespace epserve::serve
