#include "serve/protocol.h"

#include <array>

#include "metrics/load_level.h"
#include "util/json_writer.h"

namespace epserve::serve {

namespace {

Result<PlaceRequest> parse_place(const JsonValue& root) {
  PlaceRequest request;
  auto demand = root.number_member("demand");
  if (!demand.ok()) return demand.error();
  request.demand = demand.value();
  auto policy = root.string_member_or("policy", request.policy);
  if (!policy.ok()) return policy.error();
  request.policy = std::move(policy).take();
  return request;
}

Result<GuideRequest> parse_guide(const JsonValue& root) {
  GuideRequest request;
  auto threshold = root.number_member_or("ee_threshold", request.ee_threshold);
  if (!threshold.ok()) return threshold.error();
  request.ee_threshold = threshold.value();
  auto width = root.number_member_or("ep_bucket_width",
                                     request.ep_bucket_width);
  if (!width.ok()) return width.error();
  request.ep_bucket_width = width.value();
  return request;
}

Result<PowerCapRequest> parse_powercap(const JsonValue& root) {
  PowerCapRequest request;
  auto cap = root.number_member("cap_watts");
  if (!cap.ok()) return cap.error();
  request.cap_watts = cap.value();
  auto policy = root.string_member_or("policy", request.policy);
  if (!policy.ok()) return policy.error();
  request.policy = std::move(policy).take();
  return request;
}

Result<int> int_member(const JsonValue& root, std::string_view key) {
  auto number = root.number_member(key);
  if (!number.ok()) return number.error();
  const double value = number.value();
  const int as_int = static_cast<int>(value);
  if (static_cast<double>(as_int) != value) {
    return Error::parse("member '" + std::string(key) +
                        "' is not an integer");
  }
  return as_int;
}

Result<AdminRequest> parse_admin(const JsonValue& root) {
  AdminRequest request;
  auto action = root.string_member("action");
  if (!action.ok()) return action.error();
  if (action.value() == "add") {
    request.action = AdminRequest::Action::kAdd;
    const JsonValue* servers = root.find("servers");
    if (servers == nullptr || !servers->is_array()) {
      return Error::parse("admin add requires a 'servers' array");
    }
    request.add.reserve(servers->items().size());
    for (const JsonValue& item : servers->items()) {
      auto record = parse_server_record(item);
      if (!record.ok()) return record.error();
      request.add.push_back(std::move(record).take());
    }
    return request;
  }
  if (action.value() == "retire") {
    request.action = AdminRequest::Action::kRetire;
    const JsonValue* ids = root.find("ids");
    if (ids == nullptr || !ids->is_array()) {
      return Error::parse("admin retire requires an 'ids' array");
    }
    request.retire_ids.reserve(ids->items().size());
    for (const JsonValue& item : ids->items()) {
      if (!item.is_number()) {
        return Error::parse("'ids' entries must be numbers");
      }
      request.retire_ids.push_back(static_cast<int>(item.as_number()));
    }
    return request;
  }
  return Error::parse("unknown admin action '" + action.value() +
                      "' (expected add or retire)");
}

/// Opens the uniform success envelope; the caller adds payload members and
/// closes the object.
void begin_success(JsonWriter& json, std::string_view type,
                   std::uint64_t epoch, std::uint64_t digest) {
  json.begin_object();
  json.key("ok").value(true);
  json.key("type").value(type);
  json.key("epoch").value(static_cast<std::size_t>(epoch));
  json.key("digest").value(hex_u64(digest));
}

}  // namespace

Result<Request> parse_request(std::string_view payload) {
  auto parsed = parse_json(payload);
  if (!parsed.ok()) return parsed.error();
  const JsonValue& root = parsed.value();
  if (!root.is_object()) {
    return Error::parse("request must be a JSON object");
  }
  auto type = root.string_member("type");
  if (!type.ok()) return type.error();

  Request request;
  request.type = type.value();
  if (request.type == "place") {
    auto place = parse_place(root);
    if (!place.ok()) return place.error();
    request.payload = std::move(place).take();
  } else if (request.type == "guide") {
    auto guide = parse_guide(root);
    if (!guide.ok()) return guide.error();
    request.payload = std::move(guide).take();
  } else if (request.type == "powercap") {
    auto cap = parse_powercap(root);
    if (!cap.ok()) return cap.error();
    request.payload = std::move(cap).take();
  } else if (request.type == "stats") {
    request.payload = StatsRequest{};
  } else if (request.type == "admin") {
    auto admin = parse_admin(root);
    if (!admin.ok()) return admin.error();
    request.payload = std::move(admin).take();
  } else {
    return Error::parse("unknown request type '" + request.type + "'");
  }
  return request;
}

Result<dataset::ServerRecord> parse_server_record(const JsonValue& value) {
  if (!value.is_object()) {
    return Error::parse("server record must be a JSON object");
  }
  dataset::ServerRecord record;
  auto id = int_member(value, "id");
  if (!id.ok()) return id.error();
  record.id = id.value();

  auto vendor = value.string_member_or("vendor", record.vendor);
  if (!vendor.ok()) return vendor.error();
  record.vendor = std::move(vendor).take();
  auto model = value.string_member_or("model", record.model);
  if (!model.ok()) return model.error();
  record.model = std::move(model).take();
  auto codename = value.string_member_or("codename", record.cpu_codename);
  if (!codename.ok()) return codename.error();
  record.cpu_codename = std::move(codename).take();

  auto form = value.string_member_or(
      "form_factor", std::string(form_factor_name(record.form_factor)));
  if (!form.ok()) return form.error();
  bool form_known = false;
  for (int i = 0; i <= static_cast<int>(dataset::FormFactor::kMultiNode);
       ++i) {
    const auto candidate = static_cast<dataset::FormFactor>(i);
    if (form.value() == dataset::form_factor_name(candidate)) {
      record.form_factor = candidate;
      form_known = true;
      break;
    }
  }
  if (!form_known) {
    return Error::parse("unknown form_factor '" + form.value() + "'");
  }

  const auto opt_int = [&value](std::string_view key, int* out) -> Result<bool> {
    if (value.find(key) == nullptr) return true;
    auto number = int_member(value, key);
    if (!number.ok()) return number.error();
    *out = number.value();
    return true;
  };
  for (const auto& [key, out] :
       std::initializer_list<std::pair<std::string_view, int*>>{
           {"nodes", &record.nodes},
           {"chips", &record.chips},
           {"cores_per_chip", &record.cores_per_chip},
           {"hw_year", &record.hw_year},
           {"pub_year", &record.pub_year}}) {
    if (auto parsed = opt_int(key, out); !parsed.ok()) return parsed.error();
  }
  auto memory = value.number_member_or("memory_gb", record.memory_gb);
  if (!memory.ok()) return memory.error();
  record.memory_gb = memory.value();

  auto idle = value.number_member("watt_idle");
  if (!idle.ok()) return idle.error();
  // Messages start from a std::string and append: GCC 12 at -O3 reports a
  // false -Wrestrict on `"'" + std::string(key)`.
  const auto levels = [&value](std::string_view key)
      -> Result<std::array<double, metrics::kNumLoadLevels>> {
    const JsonValue* array = value.find(key);
    if (array == nullptr || !array->is_array() ||
        array->items().size() != metrics::kNumLoadLevels) {
      return Error::parse(std::string("'").append(key) +
                          "' must be an array of " +
                          std::to_string(metrics::kNumLoadLevels) +
                          " numbers");
    }
    std::array<double, metrics::kNumLoadLevels> out{};
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (!array->items()[i].is_number()) {
        return Error::parse(std::string("'").append(key) +
                            "' entries must be numbers");
      }
      out[i] = array->items()[i].as_number();
    }
    return out;
  };
  auto watts = levels("watts");
  if (!watts.ok()) return watts.error();
  auto ops = levels("ops");
  if (!ops.ok()) return ops.error();
  // Structural parse only: curve *semantics* (monotone ops, positive power)
  // are deliberately left to cluster::Fleet::build, so a bad admin add
  // exercises the build's per-server error context (tests/
  // serve_integration_test.cpp feeds invalid records through here).
  record.curve =
      metrics::PowerCurve(watts.value(), ops.value(), idle.value());
  return record;
}

std::string render_server_record(const dataset::ServerRecord& record) {
  JsonWriter json;
  json.begin_object();
  json.key("id").value(record.id);
  json.key("vendor").value(record.vendor);
  json.key("model").value(record.model);
  json.key("form_factor").value(dataset::form_factor_name(record.form_factor));
  json.key("nodes").value(record.nodes);
  json.key("chips").value(record.chips);
  json.key("cores_per_chip").value(record.cores_per_chip);
  json.key("codename").value(record.cpu_codename);
  json.key("memory_gb").value(record.memory_gb);
  json.key("hw_year").value(record.hw_year);
  json.key("pub_year").value(record.pub_year);
  json.key("watt_idle").value(record.curve.idle_watts());
  json.key("watts").begin_array();
  for (std::size_t i = 0; i < metrics::kNumLoadLevels; ++i) {
    json.value(record.curve.watts_at_level(i));
  }
  json.end_array();
  json.key("ops").begin_array();
  for (std::size_t i = 0; i < metrics::kNumLoadLevels; ++i) {
    json.value(record.curve.ops_at_level(i));
  }
  json.end_array();
  json.end_object();
  return std::move(json).str();
}

std::string render_place_response(std::uint64_t epoch, std::uint64_t digest,
                                  const PlaceRequest& request,
                                  const cluster::Assignment& assignment) {
  JsonWriter json;
  begin_success(json, "place", epoch, digest);
  json.key("policy").value(request.policy);
  json.key("demand").value(request.demand);
  json.key("total_power_watts").value(assignment.total_power_watts);
  json.key("total_ops").value(assignment.total_ops);
  json.key("efficiency").value(assignment.efficiency());
  json.key("utilization").begin_array();
  for (const double u : assignment.utilization) json.value(u);
  json.end_array();
  json.end_object();
  return std::move(json).str();
}

std::string render_guide_response(std::uint64_t epoch, std::uint64_t digest,
                                  const cluster::OperatingGuide& guide) {
  JsonWriter json;
  begin_success(json, "guide", epoch, digest);
  json.key("efficient_capacity_fraction")
      .value(guide.efficient_capacity_fraction);
  json.key("entries").begin_array();
  for (const auto& entry : guide.entries) {
    json.begin_object();
    json.key("ep_bucket_lo").value(entry.ep_bucket_lo);
    json.key("servers").value(entry.servers);
    json.key("region_lo").value(entry.shared_region.lo);
    json.key("region_hi").value(entry.shared_region.hi);
    json.key("target_utilization").value(entry.target_utilization);
    json.key("efficiency_at_target").value(entry.efficiency_at_target);
    json.end_object();
  }
  json.end_array();
  // The operator-facing table, byte-identical to `epserve_cli guide` — the
  // integration test compares this field against the offline rendering.
  json.key("text").value(cluster::render_guide(guide));
  json.end_object();
  return std::move(json).str();
}

std::string render_powercap_response(std::uint64_t epoch, std::uint64_t digest,
                                     const PowerCapRequest& request,
                                     const cluster::CapResult& cap) {
  JsonWriter json;
  begin_success(json, "powercap", epoch, digest);
  json.key("policy").value(request.policy);
  json.key("cap_watts").value(cap.cap_watts);
  json.key("max_demand").value(cap.max_demand);
  json.key("max_throughput").value(cap.max_throughput);
  json.key("power_at_max").value(cap.power_at_max);
  json.end_object();
  return std::move(json).str();
}

std::string render_stats_response(std::uint64_t epoch, std::uint64_t digest,
                                  const StatsInfo& info) {
  JsonWriter json;
  begin_success(json, "stats", epoch, digest);
  json.key("servers").value(info.servers);
  json.key("capacity_ops").value(info.capacity_ops);
  json.key("total_idle_watts").value(info.total_idle_watts);
  json.key("requests").value(static_cast<std::size_t>(info.requests));
  json.key("swaps").value(static_cast<std::size_t>(info.swaps));
  json.key("active_epochs").value(info.active_epochs);
  json.key("kernel").value(info.kernel);
  json.end_object();
  return std::move(json).str();
}

std::string render_admin_response(std::uint64_t epoch, std::uint64_t digest,
                                  std::size_t servers) {
  JsonWriter json;
  begin_success(json, "admin", epoch, digest);
  json.key("servers").value(servers);
  json.end_object();
  return std::move(json).str();
}

std::string render_error_response(const Error& error) {
  JsonWriter json;
  json.begin_object();
  json.key("ok").value(false);
  json.key("error").begin_object();
  json.key("code").value(error_code_name(error.code));
  json.key("message").value(error.message);
  json.end_object();
  json.end_object();
  return std::move(json).str();
}

std::string_view error_code_name(Error::Code code) {
  switch (code) {
    case Error::Code::kInvalidArgument: return "invalid_argument";
    case Error::Code::kParse: return "parse";
    case Error::Code::kIo: return "io";
    case Error::Code::kNotFound: return "not_found";
    case Error::Code::kOutOfRange: return "out_of_range";
    case Error::Code::kFailedPrecondition: return "failed_precondition";
  }
  return "unknown";
}

}  // namespace epserve::serve
