#pragma once

/// \file manager.hpp
/// The Hawkeye Manager: head node of a pool. Receives Startd ClassAds
/// from Agents (or `hawkeye_advertise`), keeps them in an indexed resident
/// database, answers status / dump / constraint queries, and runs Trigger
/// ClassAd matchmaking against every incoming ad.
///
/// Like all Condor daemons of the era it is single-threaded: one request
/// is processed (including the blocking response send) at a time.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gridmon/classad/classad.hpp"
#include "gridmon/classad/matchmaker.hpp"
#include "gridmon/host/host.hpp"
#include "gridmon/net/network.hpp"
#include "gridmon/net/server_port.hpp"
#include "gridmon/sim/resource.hpp"
#include "gridmon/sim/task.hpp"
#include "gridmon/store/durable.hpp"
#include "gridmon/store/log.hpp"

namespace gridmon::hawkeye {

struct HawkeyeReply {
  bool admitted = false;
  std::size_t machines = 0;  // machines covered by the reply
  double response_bytes = 0;
  bool timed_out = false;  // connect or transfer gave up on a dead path
  bool failed = false;     // admitted but collection failed (hung module)
  bool stale = false;      // every resident ad is older than stale_after
};

struct ManagerConfig {
  /// Condor daemons process one request at a time.
  int threads = 1;
  int backlog = 50;
  /// condor_status-style client tool startup.
  double client_tool_latency = 0.4;
  /// CPU to parse and dispatch one query.
  double query_base_cpu = 0.008;
  /// CPU per attribute serialized in a *status* (summary) reply.
  double status_cpu_per_attr = 0.0002;
  /// CPU per attribute serialized in a *dump* (full ads) reply.
  double dump_cpu_per_attr = 0.0008;
  /// CPU per resident ad evaluated during a constraint scan.
  double match_cpu_per_ad = 0.003;
  /// CPU to ingest one incoming Startd ad (parse + index + store).
  double ad_process_cpu = 0.004;
  /// Summary bytes per machine in a status reply.
  double status_bytes_per_machine = 2000;
  double request_bytes = 320;
  /// Client/transfer patience on a dead path (blackholed SYN, partitioned
  /// WAN). Only consulted under faults.
  double connect_timeout = 75.0;
  /// Resident ads older than this are dropped at query time — the
  /// classad-lifetime expiry of the real Collector. 0 keeps ads forever
  /// (exactly the pre-fault behaviour).
  double ad_lifetime = 0;
  /// Replies whose newest resident ad is older than this are flagged
  /// stale (the pool stopped advertising — e.g. every agent crashed).
  /// 0 disables the check.
  double stale_after = 0;
  /// Durability of the resident ad database. Volatile reproduces the
  /// paper (Condor's in-memory Collector store); wal / wal+snapshot
  /// persist every ad mutation and replay them on restart.
  store::StoreConfig store;
};

class Manager : private store::Durable {
 public:
  using TriggerAction =
      std::function<void(const std::string& trigger_name,
                         const std::string& machine)>;

  Manager(net::Network& net, host::Host& host, net::Interface& nic,
          ManagerConfig config = {});

  host::Host& host() noexcept { return host_; }
  net::Interface& nic() noexcept { return nic_; }
  net::ServerPort& port() noexcept { return port_; }

  /// Install the overload-control layer: server policy on the query port,
  /// serve-stale so expired ads keep answering under shed pressure.
  void set_resilience(const resilience::Config& config) {
    resilience_ = config;
    port_.set_policy(config.server);
  }

  /// Ingest a Startd ad sent from `from`. UDP-like: if the daemon's
  /// backlog is full the ad is silently dropped. `wire_bytes` defaults to
  /// the ad's own rendering size.
  sim::Task<bool> advertise(net::Interface& from, classad::ClassAd ad,
                            double wire_bytes = -1);

  /// Directory-style lookup (the paper's Experiment 2): the status
  /// summary of pool members — cheap, served from the indexed store.
  sim::Task<HawkeyeReply> query_status(net::Interface& client,
                                       trace::Ctx ctx = {}) {
    return serve(client, Kind::Status, {}, nullptr, ctx);
  }

  /// Full-data dump of every machine's complete Startd ad (Experiment 3).
  sim::Task<HawkeyeReply> query_dump(net::Interface& client,
                                     trace::Ctx ctx = {}) {
    return serve(client, Kind::Dump, {}, nullptr, ctx);
  }

  /// Constraint scan over all resident ads (Experiment 4's worst case is
  /// a constraint no machine meets). Returns matching machine count.
  sim::Task<HawkeyeReply> query_constraint(net::Interface& client,
                                           std::string constraint,
                                           trace::Ctx ctx = {}) {
    return serve(client, Kind::Constraint, std::move(constraint), nullptr,
                 ctx);
  }

  /// The paper's §2.3 two-step protocol: "the client must first consult
  /// the Manager for the Agent's IP-address" before querying a Module
  /// directly. Indexed lookup; machines=1 and the name in `address_out`
  /// on success, machines=0 if unknown.
  sim::Task<HawkeyeReply> lookup_agent(net::Interface& client,
                                       std::string machine,
                                       std::string* address_out,
                                       trace::Ctx ctx = {}) {
    return serve(client, Kind::Lookup, std::move(machine), address_out, ctx);
  }

  /// Attach resource timelines ("manager.daemon") to a trace collector.
  void instrument(trace::Collector& col) {
    thread_.set_probe(&col.track("manager.daemon"));
  }

  /// Register a Trigger ClassAd; `Requirements` is matched (one-way)
  /// against every incoming Startd ad; on match `action` runs (the
  /// paper's example: kill Netscape on the matched machine).
  void add_trigger(const std::string& name, classad::ClassAd trigger,
                   TriggerAction action);

  /// Convenience: a trigger whose job is the paper's other example —
  /// "the administrator is notified by email". On each match an
  /// email-sized message is sent to `admin`; `action` (optional) runs
  /// after delivery.
  void add_email_trigger(const std::string& name,
                         const std::string& requirements,
                         net::Interface& admin,
                         TriggerAction action = nullptr);

  std::uint64_t emails_sent() const noexcept { return emails_sent_; }

  std::size_t machine_count() const noexcept { return ads_.size(); }
  const classad::ClassAd* find_machine(const std::string& name) const;
  std::uint64_t ads_received() const noexcept { return ads_received_; }
  std::uint64_t ads_dropped() const noexcept { return ads_dropped_; }
  std::uint64_t trigger_firings() const noexcept { return trigger_firings_; }

  /// Durability engine behind the ad database (null when volatile).
  const store::Log* store_log() const noexcept { return log_.get(); }
  /// Absolute sim time when the ad database re-converged to its pre-crash
  /// machine count after the most recent crash (-1 until it happens).
  /// Durable modes get there via replay; volatile waits for the agents'
  /// advertise beats to refill the pool.
  double recovered_at() const noexcept { return recovered_at_; }

  // ---- fault injection ----
  /// Crash the Manager daemon (blackhole: the head node is gone). The
  /// in-memory resident ad database dies with the process; the
  /// StableImage in the store (if durability is on) survives for
  /// restart() to replay.
  void crash(bool blackhole = false);
  void restart();
  bool process_up() const noexcept { return port_.up(); }

 private:
  struct Trigger {
    std::string name;
    classad::ClassAd ad;
    TriggerAction action;
  };

  struct AdEntry {
    classad::ClassAd ad;
    double received_at = 0;
  };

  /// The four client queries; one coroutine serves them all.
  enum class Kind { Status, Dump, Constraint, Lookup };

  /// One Manager request: the Dial, the daemon thread, the stale check,
  /// the base CPU charge, the kind's own work and the response. `arg` is
  /// the constraint or the machine name (by value: the public entries
  /// return this task unawaited).
  sim::Task<HawkeyeReply> serve(net::Interface& client, Kind kind,
                                std::string arg, std::string* address_out,
                                trace::Ctx ctx);

  double total_attrs() const;
  /// Drop resident ads past ad_lifetime (no-op when disabled) and return
  /// whether what remains is uniformly older than stale_after.
  bool expire_and_check_stale();

  // store::Durable — the Manager is its own snapshot/replay client (the
  // ad map serializes directly, no table indirection needed).
  void write_snapshot(store::Encoder& out) const override;
  void load_snapshot(store::Decoder& in) override;
  void apply_record(store::Decoder& in) override;

  sim::Task<void> recover_then_restart();
  void note_recovery_progress();

  net::Network& net_;
  host::Host& host_;
  net::Interface& nic_;
  ManagerConfig config_;
  sim::Resource thread_;
  net::ServerPort port_;
  // The indexed resident database: machine name -> latest Startd ad.
  std::map<std::string, AdEntry> ads_;
  std::vector<Trigger> triggers_;
  sim::Task<void> send_email(net::Interface* admin, std::string trigger_name,
                             std::string machine, TriggerAction after);

  std::uint64_t ads_received_ = 0;
  std::uint64_t ads_dropped_ = 0;
  std::uint64_t trigger_firings_ = 0;
  std::uint64_t emails_sent_ = 0;

  resilience::Config resilience_{};
  std::unique_ptr<store::Log> log_;
  std::size_t ads_at_crash_ = 0;
  bool awaiting_recovery_ = false;
  double recovered_at_ = -1;
};

}  // namespace gridmon::hawkeye
