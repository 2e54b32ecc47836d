#include "serve/server.h"

#include <algorithm>
#include <utility>

#include "cluster/operating_guide.h"
#include "cluster/power_cap.h"
#include "metrics/simd/kernels.h"
#include "util/telemetry.h"

namespace epserve::serve {

Result<std::unique_ptr<const FleetState>> FleetState::create(
    std::vector<dataset::ServerRecord> records) {
  auto fleet = cluster::Fleet::build(records);
  if (!fleet.ok()) return fleet.error();
  std::unique_ptr<FleetState> state(new FleetState());
  state->records_ = std::move(records);
  state->fleet_.emplace(std::move(fleet).take());
  state->digest_ = state->fleet_->digest();
  return std::unique_ptr<const FleetState>(std::move(state));
}

Result<std::unique_ptr<FleetServer>> FleetServer::start(
    std::vector<dataset::ServerRecord> initial, const ServeOptions& options) {
  auto state = FleetState::create(std::move(initial));
  if (!state.ok()) return state.error();
  auto listener = net::listen_tcp(options.port);
  if (!listener.ok()) return listener.error();
  auto port = net::local_port(listener.value());
  if (!port.ok()) return port.error();
  return std::unique_ptr<FleetServer>(
      new FleetServer(std::move(state).take(), options,
                      std::move(listener).take(), port.value()));
}

FleetServer::FleetServer(std::unique_ptr<const FleetState> initial,
                         const ServeOptions& options, net::Socket listener,
                         std::uint16_t port)
    : options_(options),
      state_(std::make_unique<EpochPtr<FleetState>>(std::move(initial))),
      listener_(std::move(listener)),
      port_(port) {
  const std::size_t workers =
      options_.threads > 0 ? options_.threads
                           : ThreadPool::default_thread_count();
  pool_ = std::make_unique<ThreadPool>(std::max<std::size_t>(workers, 1));
  accept_thread_ = std::thread([this] { accept_loop(); });
}

FleetServer::~FleetServer() { stop(); }

void FleetServer::stop() {
  if (stopping_.exchange(true)) {
    // A previous stop already ran (or is running) the shutdown sequence;
    // the destructor may still need to wait for it implicitly via joins
    // below, but those members are only torn down once.
    return;
  }
  // Unblock the accept thread, then every parked connection read; only then
  // join the pool (its queued connection tasks exit on the shut-down fds).
  listener_.shutdown_both();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& weak : connections_) {
      if (const auto socket = weak.lock()) socket->shutdown_both();
    }
  }
  pool_.reset();
  listener_.close();
}

void FleetServer::accept_loop() {
  for (;;) {
    auto client = accept_client(listener_);
    if (!client.ok()) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      // Transient accept failure (e.g. the peer vanished between SYN and
      // accept): keep serving.
      continue;
    }
    auto socket =
        std::make_shared<net::Socket>(std::move(client).take());
    {
      const std::lock_guard<std::mutex> lock(connections_mutex_);
      // Compact dead entries so a long-lived daemon's registry stays
      // proportional to live connections.
      std::erase_if(connections_,
                    [](const std::weak_ptr<net::Socket>& weak) {
                      return weak.expired();
                    });
      connections_.emplace_back(socket);
    }
    const std::uint64_t accepted_ns =
        telemetry::enabled() ? telemetry::now_ns() : 0;
    pool_->submit(
        [this, socket, accepted_ns] { serve_connection(socket, accepted_ns); });
  }
}

void FleetServer::serve_connection(const std::shared_ptr<net::Socket>& socket,
                                   std::uint64_t accepted_ns) {
  if (accepted_ns != 0) {
    telemetry::timer_add("serve.queue_wait",
                         telemetry::now_ns() - accepted_ns);
  }
  for (;;) {
    auto frame = net::read_frame(*socket, options_.max_request_bytes);
    if (!frame.ok()) {
      // Transport-level garbage (truncated prefix, hostile declared
      // length): answer structurally like any other error, then drop the
      // connection — the framing is unrecoverable.
      telemetry::count("serve.errors");
      (void)net::write_frame(*socket,
                             render_error_response(frame.error()));
      return;
    }
    if (frame.value().eof) return;  // clean close at a frame boundary
    const std::string response = handle_payload(frame.value().payload);
    if (auto written = net::write_frame(*socket, response); !written.ok()) {
      return;  // peer went away mid-response
    }
  }
}

std::string FleetServer::handle_payload(std::string_view payload) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  telemetry::count("serve.requests");
  auto request = parse_request(payload);
  if (!request.ok()) {
    telemetry::count("serve.errors");
    return render_error_response(request.error());
  }
  return handle_request(request.value());
}

std::string FleetServer::handle_request(const Request& request) {
  // Root scope: connection handlers run on pool workers whose span stack is
  // empty, but an in-process caller (tests) may have spans open.
  const telemetry::Span span("serve/request/", request.type,
                             telemetry::Span::Scope::kRoot);
  const telemetry::ScopedTimer timer("serve.request.handle");

  if (const auto* place = std::get_if<PlaceRequest>(&request.payload)) {
    auto policy = cluster::make_placement_policy(place->policy);
    if (!policy.ok()) {
      telemetry::count("serve.errors");
      return render_error_response(policy.error());
    }
    // One pin for the whole request: every read below sees the same epoch.
    const auto pin = state_->pin();
    auto assignment =
        cluster::evaluate(*policy.value(), pin->fleet(), place->demand);
    if (!assignment.ok()) {
      telemetry::count("serve.errors");
      return render_error_response(assignment.error());
    }
    return render_place_response(pin.epoch(), pin->digest(), *place,
                                 assignment.value());
  }
  if (const auto* guide = std::get_if<GuideRequest>(&request.payload)) {
    const auto pin = state_->pin();
    auto built = cluster::build_operating_guide(
        pin->fleet(), guide->ee_threshold, guide->ep_bucket_width);
    if (!built.ok()) {
      telemetry::count("serve.errors");
      return render_error_response(built.error());
    }
    return render_guide_response(pin.epoch(), pin->digest(), built.value());
  }
  if (const auto* cap = std::get_if<PowerCapRequest>(&request.payload)) {
    auto policy = cluster::make_placement_policy(cap->policy);
    if (!policy.ok()) {
      telemetry::count("serve.errors");
      return render_error_response(policy.error());
    }
    const auto pin = state_->pin();
    auto result = cluster::max_throughput_under_cap(
        *policy.value(), pin->fleet(), cap->cap_watts);
    if (!result.ok()) {
      telemetry::count("serve.errors");
      return render_error_response(result.error());
    }
    return render_powercap_response(pin.epoch(), pin->digest(), *cap,
                                    result.value());
  }
  if (std::get_if<StatsRequest>(&request.payload) != nullptr) {
    const auto pin = state_->pin();
    StatsInfo info;
    info.servers = pin->fleet().size();
    info.capacity_ops = pin->fleet().capacity_ops();
    info.total_idle_watts = pin->fleet().total_idle_watts();
    info.requests = requests_.load(std::memory_order_relaxed);
    info.swaps = swaps_.load(std::memory_order_relaxed);
    info.active_epochs = state_->active_epochs();
    info.kernel = metrics::kernels::active().name;
    return render_stats_response(pin.epoch(), pin->digest(), info);
  }
  return handle_admin(std::get<AdminRequest>(request.payload));
}

std::string FleetServer::handle_admin(const AdminRequest& request) {
  // Serialize read-modify-write of the record set across concurrent admin
  // requests; readers are never blocked by this (they pin the old epoch).
  const std::lock_guard<std::mutex> lock(admin_mutex_);
  std::vector<dataset::ServerRecord> next;
  {
    const auto pin = state_->pin();
    next = pin->records();  // deep copy; the new snapshot owns its records
  }
  if (request.action == AdminRequest::Action::kAdd) {
    for (const auto& record : request.add) {
      const bool duplicate =
          std::any_of(next.begin(), next.end(),
                      [&record](const dataset::ServerRecord& existing) {
                        return existing.id == record.id;
                      });
      if (duplicate) {
        telemetry::count("serve.errors");
        telemetry::count("serve.swap_rejects");
        return render_error_response(Error::invalid_argument(
            "server id " + std::to_string(record.id) + " already in fleet"));
      }
      next.push_back(record);
    }
  } else {
    for (const int id : request.retire_ids) {
      const auto it =
          std::find_if(next.begin(), next.end(),
                       [id](const dataset::ServerRecord& existing) {
                         return existing.id == id;
                       });
      if (it == next.end()) {
        telemetry::count("serve.errors");
        telemetry::count("serve.swap_rejects");
        return render_error_response(Error::not_found(
            "no server with id " + std::to_string(id) + " in fleet"));
      }
      next.erase(it);
    }
  }
  // Build the candidate snapshot off to the side. Readers keep answering
  // from the current epoch throughout; a rejected build changes nothing.
  auto built = FleetState::create(std::move(next));
  if (!built.ok()) {
    telemetry::count("serve.errors");
    telemetry::count("serve.swap_rejects");
    return render_error_response(built.error());
  }
  const std::uint64_t digest = built.value()->digest();
  const std::size_t servers = built.value()->records().size();
  const std::uint64_t epoch = state_->publish(std::move(built).take());
  swaps_.fetch_add(1, std::memory_order_relaxed);
  telemetry::count("serve.swaps");
  telemetry::gauge_set("serve.active_epochs", state_->active_epochs());
  return render_admin_response(epoch, digest, servers);
}

}  // namespace epserve::serve
