/// SpecBuilder — validating ScenarioSpec construction.
///
/// All INI key parsing lives here: SpecBuilder::set() applies one
/// `[section] key = value` triple and *records* malformed input instead
/// of throwing, and build() runs the cross-field validation pass, so a
/// config file (or a bench preset) reports every problem in one
/// ConfigError rather than stopping at the first bad key.

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <utility>

#include "gridmon/core/scenario_spec.hpp"

namespace gridmon::core {
namespace {

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::vector<int> parse_int_list(const std::string& value) {
  std::vector<int> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item = trim(item);
    if (item.empty()) continue;
    try {
      std::size_t used = 0;
      int v = std::stoi(item, &used);
      if (used != item.size() || v <= 0) throw std::invalid_argument(item);
      out.push_back(v);
    } catch (const std::exception&) {
      throw ConfigError("bad integer '" + item + "'");
    }
  }
  if (out.empty()) throw ConfigError("empty list");
  return out;
}

int parse_int(const std::string& value) {
  return parse_int_list(value).front();
}

/// The whole of `value` as a non-negative integer of type Int. A
/// fraction, an exponent, trailing text or an out-of-range value is an
/// error, never a silent truncation.
template <typename Int>
Int parse_whole(const std::string& value) {
  Int v{};
  const char* end = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc{} || ptr != end || std::cmp_less(v, 0)) {
    throw ConfigError("bad integer '" + value + "'");
  }
  return v;
}

double parse_double(const std::string& value) {
  try {
    std::size_t used = 0;
    double v = std::stod(value, &used);
    if (used != value.size() || !std::isfinite(v) || v < 0) {
      throw std::invalid_argument(value);
    }
    return v;
  } catch (const std::exception&) {
    throw ConfigError("bad number '" + value + "'");
  }
}

bool parse_bool(const std::string& value) {
  std::string v = lower(value);
  if (v == "true" || v == "yes" || v == "1" || v == "on") return true;
  if (v == "false" || v == "no" || v == "0" || v == "off") return false;
  throw ConfigError("expected a boolean, got '" + value + "'");
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Expect exactly `n` comma-separated fields for fault key `key`.
std::vector<std::string> fault_fields(const std::string& key,
                                      const std::string& value,
                                      std::size_t n) {
  auto fields = split_list(value);
  if (fields.size() != n) {
    throw ConfigError(key + " needs " + std::to_string(n) +
                      " comma-separated fields, got " +
                      std::to_string(fields.size()));
  }
  return fields;
}

ServiceKind parse_service(const std::string& value) {
  static const std::map<std::string, ServiceKind> kNames = {
      {"gris", ServiceKind::Gris},
      {"gris-nocache", ServiceKind::GrisNocache},
      {"giis", ServiceKind::Giis},
      {"agent", ServiceKind::Agent},
      {"manager", ServiceKind::Manager},
      {"registry", ServiceKind::Registry},
      {"rgma-mediated", ServiceKind::RgmaMediated},
      {"rgma-direct", ServiceKind::RgmaDirect},
      {"rgma-standalone", ServiceKind::RgmaStandalone},
      {"giis-aggregate", ServiceKind::GiisAggregate},
      {"manager-aggregate", ServiceKind::ManagerAggregate},
      {"hierarchy", ServiceKind::Hierarchy},
      {"rgma-composite", ServiceKind::RgmaComposite},
      {"stream-fanout", ServiceKind::StreamFanout},
      {"rgma-replicated", ServiceKind::RgmaReplicated},
  };
  auto it = kNames.find(lower(value));
  if (it == kNames.end()) {
    throw ConfigError("unknown service '" + value + "'");
  }
  return it->second;
}

QueryVariant parse_query(const std::string& value) {
  static const std::map<std::string, QueryVariant> kNames = {
      {"default", QueryVariant::Default},
      {"all", QueryVariant::ScopeAll},
      {"part", QueryVariant::ScopePart},
      {"dump", QueryVariant::ManagerDump},
      {"constraint", QueryVariant::ManagerConstraint},
      {"site-routed", QueryVariant::SiteRouted},
  };
  auto it = kNames.find(lower(value));
  if (it == kNames.end()) {
    throw ConfigError("unknown query variant '" + value + "'");
  }
  return it->second;
}

void apply_experiment_key(ScenarioSpec& spec, const std::string& key,
                          const std::string& value) {
  if (key == "service") {
    spec.service = parse_service(value);
  } else if (key == "query") {
    spec.query = parse_query(value);
  } else if (key == "users") {
    spec.users = parse_int_list(value);
  } else if (key == "collectors") {
    spec.collectors = parse_int(value);
  } else if (key == "clients") {
    std::string v = lower(value);
    if (v == "uc") {
      spec.lucky_clients = false;
    } else if (v == "lucky") {
      spec.lucky_clients = true;
    } else {
      throw ConfigError("clients must be 'uc' or 'lucky', got '" + value +
                        "'");
    }
  } else if (key == "warmup") {
    spec.warmup = parse_double(value);
  } else if (key == "duration") {
    spec.duration = parse_double(value);
  } else if (key == "seed") {
    spec.seed = parse_whole<std::uint64_t>(value);
  } else if (key == "gris_count") {
    spec.gris_count = parse_int(value);
  } else if (key == "machines") {
    spec.machines = parse_int(value);
  } else if (key == "two_level") {
    spec.two_level = parse_bool(value);
  } else if (key == "replicas") {
    spec.replicas = parse_int(value);
  } else if (key == "pool_size") {
    spec.pool_size = parse_int(value);
  } else if (key == "servlets") {
    spec.servlets = parse_int(value);
  } else if (key == "producers_each") {
    spec.producers_each = parse_int(value);
  } else if (key == "subscribers") {
    spec.subscribers = parse_int(value);
  } else if (key == "sources") {
    spec.sources = parse_int(value);
  } else if (key == "table") {
    spec.table = value;
  } else if (key == "constraint") {
    spec.constraint = value;
  } else if (key == "cachettl") {
    spec.cachettl = parse_double(value);
  } else if (key == "provider_ttl") {
    spec.provider_ttl = parse_double(value);
  } else if (key == "gris_backlog") {
    spec.gris_backlog = parse_int(value);
  } else {
    throw ConfigError("unknown key '" + key + "'");
  }
}

void apply_fault_key(ScenarioSpec& spec, const std::string& key,
                     const std::string& value) {
  if (key == "crash" || key == "blackhole") {
    auto f = fault_fields(key, value, 3);
    spec.faults.crash(f[0], parse_double(f[1]), parse_double(f[2]),
                      key == "blackhole");
  } else if (key == "partition") {
    auto f = fault_fields(key, value, 4);
    spec.faults.partition(f[0], f[1], parse_double(f[2]), parse_double(f[3]));
  } else if (key == "degrade") {
    auto f = fault_fields(key, value, 5);
    spec.faults.degrade_wan(f[0], f[1], parse_double(f[2]),
                            parse_double(f[3]), parse_double(f[4]));
  } else if (key == "slow_host") {
    auto f = fault_fields(key, value, 4);
    spec.faults.slow_host(f[0], parse_double(f[1]), parse_double(f[2]),
                          parse_double(f[3]));
  } else if (key == "collector_outage") {
    auto f = fault_fields(key, value, 3);
    spec.faults.collector_outage(f[0], parse_double(f[1]),
                                 parse_double(f[2]));
  } else if (key == "query_deadline") {
    spec.query_deadline = parse_double(value);
  } else if (key == "max_attempts") {
    spec.max_attempts = parse_whole<int>(value);
  } else {
    throw ConfigError("unknown key '" + key + "'");
  }
}

void apply_store_key(ScenarioSpec& spec, const std::string& key,
                     const std::string& value) {
  if (key == "mode") {
    auto mode = store::parse_mode(lower(value));
    if (!mode) {
      throw ConfigError("unknown durability mode '" + value +
                        "' (volatile | wal | wal+snapshot)");
    }
    spec.store.mode = *mode;
  } else if (key == "fsync_latency") {
    spec.store.fsync_latency = parse_double(value);
  } else if (key == "write_bandwidth") {
    spec.store.write_bandwidth = parse_double(value);
  } else if (key == "group_commit_window") {
    spec.store.group_commit_window = parse_double(value);
  } else if (key == "snapshot_interval") {
    spec.store.snapshot_interval = parse_double(value);
  } else if (key == "replay_cpu_per_record") {
    spec.store.replay_cpu_per_record = parse_double(value);
  } else {
    throw ConfigError("unknown key '" + key + "'");
  }
}

void apply_resilience_key(ScenarioSpec& spec, const std::string& key,
                          const std::string& value) {
  auto& r = spec.resilience;
  if (key == "enabled") {
    bool on = parse_bool(value);
    r.enabled = on;
    r.client.enabled = on;
    r.server.enabled = on;
  } else if (key == "client") {
    r.client.enabled = parse_bool(value);
    r.enabled = r.client.enabled || r.server.enabled;
  } else if (key == "server") {
    r.server.enabled = parse_bool(value);
    r.enabled = r.client.enabled || r.server.enabled;
  } else if (key == "retry_budget") {
    r.client.budget.capacity = parse_double(value);
  } else if (key == "retry_ratio") {
    r.client.budget.fill_ratio = parse_double(value);
  } else if (key == "breaker_window") {
    r.client.breaker.window = static_cast<std::size_t>(parse_int(value));
  } else if (key == "breaker_min_samples") {
    r.client.breaker.min_samples = static_cast<std::size_t>(parse_int(value));
  } else if (key == "breaker_threshold") {
    r.client.breaker.failure_threshold = parse_double(value);
  } else if (key == "breaker_open_secs") {
    r.client.breaker.open_duration = parse_double(value);
  } else if (key == "breaker_probes") {
    r.client.breaker.half_open_probes =
        static_cast<std::size_t>(parse_int(value));
  } else if (key == "discipline") {
    try {
      r.server.discipline = resilience::parse_discipline(lower(value));
    } catch (const std::invalid_argument& e) {
      throw ConfigError(e.what());
    }
  } else if (key == "queue_limit") {
    r.server.queue_limit = static_cast<std::size_t>(parse_int(value));
  } else if (key == "deadline_budget") {
    r.server.deadline_budget = parse_double(value);
  } else if (key == "serve_stale") {
    r.server.serve_stale = parse_bool(value);
  } else if (key == "pressure") {
    r.server.pressure_threshold = parse_double(value);
  } else if (key == "goodput_deadline") {
    spec.goodput_deadline = parse_double(value);
  } else {
    throw ConfigError("unknown key '" + key + "'");
  }
}

void apply_engine_key(ScenarioSpec& spec, const std::string& key,
                      const std::string& value) {
  if (key == "shards") {
    // 0 (legacy) is a legal value here, so bypass parse_int's > 0 rule.
    spec.engine.shards = parse_whole<int>(value);
  } else if (key == "threads") {
    spec.engine.threads = parse_whole<int>(value);
  } else if (key == "lookahead") {
    spec.engine.lookahead = parse_double(value);
  } else {
    throw ConfigError("unknown key '" + key + "'");
  }
}

}  // namespace

SpecBuilder ScenarioSpec::build() { return SpecBuilder{}; }

SpecBuilder& SpecBuilder::set(const std::string& section,
                              const std::string& key,
                              const std::string& value,
                              const std::string& where) {
  const std::string sec = lower(trim(section));
  const std::string k = lower(trim(key));
  try {
    if (sec == "experiment") {
      apply_experiment_key(spec_, k, trim(value));
    } else if (sec == "faults") {
      apply_fault_key(spec_, k, trim(value));
    } else if (sec == "store") {
      apply_store_key(spec_, k, trim(value));
    } else if (sec == "resilience") {
      apply_resilience_key(spec_, k, trim(value));
    } else if (sec == "engine") {
      apply_engine_key(spec_, k, trim(value));
    } else {
      throw ConfigError("unknown section [" + sec + "]");
    }
  } catch (const ConfigError& e) {
    std::string prefix = where.empty() ? "" : where + ": ";
    errors_.push_back(prefix + "[" + sec + "] " + k + ": " + e.what());
  }
  return *this;
}

SpecBuilder& SpecBuilder::note_error(std::string message) {
  errors_.push_back(std::move(message));
  return *this;
}

namespace {

/// Range and cross-field checks over the whole spec — every violation is
/// appended, none aborts the pass.
void validate_spec(const ScenarioSpec& spec, std::vector<std::string>& out) {
  auto require = [&out](bool ok, const std::string& msg) {
    if (!ok) out.push_back(msg);
  };
  require(!spec.users.empty(), "users: at least one sweep point required");
  for (int u : spec.users) {
    if (u <= 0) {
      out.push_back("users: sweep points must be positive, got " +
                    std::to_string(u));
      break;
    }
  }
  require(spec.collectors > 0, "collectors must be positive");
  require(spec.warmup >= 0, "warmup must be non-negative");
  require(spec.duration > 0, "duration must be positive");
  require(!spec.gris_host.empty(), "gris_host must name a machine");
  require(spec.gris_count > 0, "gris_count must be positive");
  require(spec.machines > 0, "machines must be positive");
  require(spec.replicas > 0, "replicas must be positive");
  require(spec.pool_size > 0, "pool_size must be positive");
  require(spec.servlets > 0, "servlets must be positive");
  require(spec.producers_each > 0, "producers_each must be positive");
  require(spec.subscribers > 0, "subscribers must be positive");
  require(spec.sources > 0, "sources must be positive");
  require(!spec.table.empty(), "table must not be empty");
  require(spec.cachettl >= 0, "cachettl must be non-negative");
  require(spec.provider_ttl >= 0, "provider_ttl must be non-negative");
  require(spec.gris_backlog >= 0, "gris_backlog must be non-negative");
  require(spec.provider_entries >= 0,
          "provider_entries must be non-negative");
  require(spec.provider_bytes >= 0, "provider_bytes must be non-negative");
  require(spec.ps_stale_after >= 0, "ps_stale_after must be non-negative");
  require(spec.self_publish_interval >= 0,
          "self_publish_interval must be non-negative");
  require(spec.manager_ad_lifetime >= 0,
          "manager_ad_lifetime must be non-negative");
  require(spec.manager_stale_after >= 0,
          "manager_stale_after must be non-negative");
  require(spec.query_deadline >= 0, "query_deadline must be non-negative");
  require(spec.max_attempts >= 0, "max_attempts must be non-negative");
  require(spec.goodput_deadline >= 0,
          "goodput_deadline must be non-negative");
  require(spec.store.fsync_latency >= 0,
          "[store] fsync_latency must be non-negative");
  require(spec.store.write_bandwidth > 0,
          "[store] write_bandwidth must be positive");
  require(spec.store.group_commit_window >= 0,
          "[store] group_commit_window must be non-negative");
  require(spec.store.snapshot_interval > 0,
          "[store] snapshot_interval must be positive");
  require(spec.store.replay_cpu_per_record >= 0,
          "[store] replay_cpu_per_record must be non-negative");
  if (spec.store.enabled() && spec.service != ServiceKind::Registry &&
      spec.service != ServiceKind::Manager &&
      spec.service != ServiceKind::ManagerAggregate) {
    out.push_back("service '" + spec.service_name() +
                  "' has no durable-state support; [store] mode must be "
                  "volatile");
  }
  require(spec.engine.shards >= 0, "[engine] shards must be non-negative");
  require(spec.engine.threads >= 0, "[engine] threads must be non-negative");
  require(spec.engine.lookahead >= 0,
          "[engine] lookahead must be non-negative");
  if (spec.engine.sharded()) {
    if (spec.service == ServiceKind::StreamFanout) {
      out.push_back(
          "[engine] shards: the sharded engine needs a pull query; "
          "stream-fanout is push-only");
    }
    if (!spec.faults.empty()) {
      out.push_back(
          "[engine] shards: fault injection is not supported by the "
          "sharded engine yet (run with shards = 0)");
    }
    if (spec.resilience.enabled) {
      out.push_back(
          "[engine] shards: the resilience layer is not supported by the "
          "sharded engine yet (run with shards = 0)");
    }
    if (spec.lucky_clients) {
      out.push_back(
          "[engine] shards: the sharded engine drives the UC client pool "
          "only; lucky_clients must be false");
    }
    if (spec.query_deadline > 0) {
      out.push_back(
          "[engine] shards: query_deadline is not supported by the "
          "sharded engine's frontier clients (run with shards = 0)");
    }
    if (spec.max_attempts > 0) {
      out.push_back(
          "[engine] shards: max_attempts is not supported by the "
          "sharded engine's frontier clients (run with shards = 0)");
    }
  }
}

}  // namespace

ScenarioSpec SpecBuilder::build() {
  std::vector<std::string> all = errors_;
  validate_spec(spec_, all);
  if (!all.empty()) {
    std::string msg = "invalid scenario spec (" +
                      std::to_string(all.size()) +
                      (all.size() == 1 ? " error):" : " errors):");
    for (const auto& e : all) msg += "\n  - " + e;
    throw ConfigError(msg);
  }
  return spec_;
}

ScenarioSpec parse_scenario_spec(const std::string& text) {
  auto ini = parse_ini(text);
  if (ini.find("experiment") == ini.end()) {
    throw ConfigError("missing [experiment] section");
  }
  SpecBuilder builder;
  // Apply the resilience master switch first so `enabled = true` composes
  // with per-side overrides regardless of key order in the file.
  auto res_it = ini.find("resilience");
  if (res_it != ini.end()) {
    auto en = res_it->second.find("enabled");
    if (en != res_it->second.end()) {
      builder.set("resilience", "enabled", en->second);
    }
  }
  for (const auto& [section, keys] : ini) {
    for (const auto& [key, value] : keys) {
      if (section == "resilience" && key == "enabled") continue;
      builder.set(section, key, value);
    }
  }
  return builder.build();
}

}  // namespace gridmon::core
