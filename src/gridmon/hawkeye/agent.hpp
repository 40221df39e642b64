#pragma once

/// \file agent.hpp
/// The Hawkeye Monitoring Agent: runs on every pool member, integrates
/// its Modules' ClassAds into one Startd ad, pushes it to the Manager at
/// a fixed interval, and answers direct queries. Crucially (and unlike
/// the Manager) it has no resident database: every query re-collects
/// fresh module data, which is why its response time degrades faster in
/// the paper's Experiment 1.

#include <cstdint>
#include <string>
#include <vector>

#include "gridmon/classad/classad.hpp"
#include "gridmon/hawkeye/manager.hpp"
#include "gridmon/hawkeye/module.hpp"
#include "gridmon/host/host.hpp"
#include "gridmon/net/network.hpp"
#include "gridmon/net/server_port.hpp"
#include "gridmon/sim/resource.hpp"
#include "gridmon/sim/task.hpp"

namespace gridmon::hawkeye {

struct AgentConfig {
  int threads = 1;  // single-threaded Condor daemon
  int backlog = 400;  // requests park in the startd's deep request queue
  double client_tool_latency = 0.4;
  double query_base_cpu = 0.004;
  /// CPU to integrate the collected fragments into one Startd ad.
  double integrate_cpu = 0.003;
  double request_bytes = 320;
  /// Pad the Startd ad to roughly this wire size (module attrs alone are
  /// compact; real ads carry full machine state).
  double min_ad_bytes = 5000;
  double advertise_interval = 30.0;
  /// The maximum modules an Agent accepts before its Startd crashes — the
  /// paper hit this at 98.
  int max_modules = 98;
  /// Client/transfer patience on a dead path (blackholed SYN, partitioned
  /// WAN). Only consulted under faults.
  double connect_timeout = 75.0;
  /// How long a hung module is allowed to run before the collection sweep
  /// gives up (no resident DB, so the query fails outright).
  double module_timeout = 10.0;
};

class AgentError : public std::runtime_error {
 public:
  explicit AgentError(const std::string& m) : std::runtime_error(m) {}
};

class Agent {
 public:
  Agent(net::Network& net, host::Host& host, net::Interface& nic,
        std::string machine_name, std::vector<ModuleSpec> modules,
        AgentConfig config = {});

  const std::string& machine() const noexcept { return machine_; }
  host::Host& host() noexcept { return host_; }
  net::Interface& nic() noexcept { return nic_; }
  net::ServerPort& port() noexcept { return port_; }
  std::size_t module_count() const noexcept { return modules_.size(); }

  /// Install the overload-control layer: server policy on the query port,
  /// a circuit breaker on the advertise path toward the Manager.
  void set_resilience(const resilience::Config& config) {
    resilience_ = config;
    port_.set_policy(config.server);
    advertise_breaker_ = resilience::CircuitBreaker(config.client.breaker);
  }
  const resilience::CircuitBreaker& advertise_breaker() const noexcept {
    return advertise_breaker_;
  }

  /// Sensor input for modules that publish CpuLoad (drives trigger
  /// examples; defaults to this host's live one-minute load x 100).
  void set_load_value(double v) { forced_load_ = v; }

  /// Direct client query: collects fresh data from every module, builds
  /// the Startd ad, sends it back.
  sim::Task<HawkeyeReply> query(net::Interface& client, trace::Ctx ctx = {});

  /// Direct query "about a particular Module" (paper §2.3): collects
  /// only that module's data. machines=0 if the module is unknown.
  sim::Task<HawkeyeReply> query_module(net::Interface& client,
                                       std::string module_name,
                                       trace::Ctx ctx = {});

  /// Attach resource timelines ("<machine>.startd") to a trace collector.
  void instrument(trace::Collector& col) {
    thread_.set_probe(&col.track(machine_ + ".startd"));
  }

  /// Begin the periodic Startd-ad push to `manager`.
  void start_advertising(Manager& manager);
  void stop_advertising() { advertising_ = false; }

  std::uint64_t collections() const noexcept { return collections_; }

  // ---- fault injection ----
  /// Crash the startd (blackhole: the whole machine is gone). Advertising
  /// pauses while down, so the Manager's resident ad goes stale.
  void crash(bool blackhole = false) { port_.crash(blackhole); }
  void restart() { port_.restart(); }
  bool process_up() const noexcept { return port_.up(); }
  /// Hang (or un-hang) the monitoring modules: queries wait out
  /// `module_timeout` under the thread lease, then fail — the Agent has
  /// no resident database to fall back on.
  void set_collectors_down(bool down) noexcept { collectors_down_ = down; }

 private:
  sim::Task<classad::ClassAd> collect(trace::Ctx ctx = {});
  /// The admitted half of query(): the collection, then the response
  /// leg of `dial`, so query()'s own frame holds only its net::Dial and
  /// the admission slot it keeps.
  sim::Task<HawkeyeReply> query_admitted(net::Dial& dial, trace::Ctx ctx);
  sim::Task<void> advertise_loop(Manager& manager);

  double current_load() const;

  net::Network& net_;
  host::Host& host_;
  net::Interface& nic_;
  std::string machine_;
  std::vector<ModuleSpec> modules_;
  AgentConfig config_;
  sim::Resource thread_;
  net::ServerPort port_;
  std::uint64_t sequence_ = 0;
  std::uint64_t collections_ = 0;
  double forced_load_ = -1;
  bool advertising_ = false;
  bool collectors_down_ = false;
  resilience::Config resilience_{};
  resilience::CircuitBreaker advertise_breaker_{};
};

/// Standalone `hawkeye_advertise`: pushes synthetic Startd ads for a
/// (possibly fictitious) machine at a fixed interval — how the paper
/// simulated pools of up to 1000 computers in Experiment 4.
class Advertiser {
 public:
  Advertiser(net::Network& net, host::Host& host, net::Interface& nic,
             std::string machine_name, int modules = 11,
             double interval = 30.0, double jitter = 0.5);

  void start(Manager& manager);
  void stop() { running_ = false; }
  std::uint64_t ads_sent() const noexcept { return ads_sent_; }

 private:
  sim::Task<void> loop(Manager& manager);

  net::Network& net_;
  host::Host& host_;
  net::Interface& nic_;
  std::string machine_;
  int modules_;
  double interval_;
  double jitter_;
  std::uint64_t sequence_ = 0;
  std::uint64_t ads_sent_ = 0;
  bool running_ = false;
};

}  // namespace gridmon::hawkeye
