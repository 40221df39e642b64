#pragma once

/// \file gris.hpp
/// Grid Resource Information Service: the per-resource slapd front-end of
/// MDS 2.1. Serves LDAP searches over the entries produced by its
/// information providers; provider output is cached per provider TTL, and
/// on a cache miss the provider script is forked and executed.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gridmon/host/host.hpp"
#include "gridmon/ldap/dit.hpp"
#include "gridmon/mds/node.hpp"
#include "gridmon/mds/provider.hpp"
#include "gridmon/net/network.hpp"
#include "gridmon/net/server_port.hpp"
#include "gridmon/sim/resource.hpp"
#include "gridmon/sim/task.hpp"

namespace gridmon::mds {

/// What a query asks for: everything the server holds, or a single
/// provider's slice of it (the paper's Experiment 4 "query part" case).
enum class QueryScope { All, Part };

/// A full LDAP search request, for clients that need more than the two
/// canned experiment scopes: an RFC-1960 filter, optional attribute
/// selection, and an optional size limit (slapd semantics).
struct SearchRequest {
  std::string filter = "(objectclass=*)";
  std::vector<std::string> attributes;  // empty: all
  std::size_t size_limit = 0;           // 0: unlimited
};

/// Result of one client query attempt.
struct MdsReply {
  bool admitted = false;        // false: connection refused, retry later
  std::size_t entries = 0;      // entries returned
  double response_bytes = 0;
  bool cache_hit = true;
  bool timed_out = false;  // connect or transfer gave up on a dead path
  bool failed = false;     // admitted but the backend could not collect
  bool stale = false;      // served from an expired cache (collector down)
  /// The entries themselves (consumed by a GIIS merging a fetch; plain
  /// clients can ignore it).
  std::vector<ldap::Entry> payload;
};

struct GrisConfig {
  /// slapd worker threads that make progress concurrently.
  int pool_size = 4;
  /// Listen/accept backlog before connections are refused.
  int backlog = 512;
  /// Fixed client-side latency per query: grid-info-search startup plus
  /// the GSI authentication round trips (dominates light-load response).
  double client_tool_latency = 1.2;
  /// Extra backend latency when serving provider data from cache: the MDS
  /// 2.1 GRIS backend re-validates provider freshness with polling waits.
  double cache_serve_latency = 2.0;
  /// Server CPU per query: connection handling, GSI session crypto, and
  /// filter parsing (reference seconds).
  double query_base_cpu = 0.004;
  /// CPU per entry examined by the filter during the search walk.
  double examine_cpu_per_entry = 0.00005;
  /// CPU per entry serialized into the LDIF response.
  double serialize_cpu_per_entry = 0.00012;
  /// Request size on the wire.
  double request_bytes = 512;
  /// If false, provider data is never cached: every query re-executes all
  /// relevant information providers (the paper's "nocache" GRIS).
  bool cache_enabled = true;
  /// Soft-state re-registration period toward a GIIS.
  double registration_interval = 30.0;
  /// How long a client (or this server's transfers) waits on a dead path —
  /// blackholed SYN or partitioned WAN — before giving up. Only consulted
  /// under faults; fault-free runs never hit it.
  double connect_timeout = 75.0;
  /// How long a worker waits on a hung provider script before declaring
  /// the collection failed (exec timeout). The lease is held throughout.
  double provider_timeout = 10.0;
};

class Gris final : public MdsNode {
 public:
  /// `name` doubles as the registered host name in DNs; several Gris
  /// instances may share one physical Host (the paper's Experiment 4).
  Gris(net::Network& net, host::Host& host, net::Interface& nic,
       std::string name, std::vector<ProviderSpec> providers,
       GrisConfig config = {});

  const std::string& name() const noexcept { return name_; }
  host::Host& host() noexcept { return host_; }
  net::Interface& nic() noexcept { return nic_; }
  const GrisConfig& config() const noexcept { return config_; }
  const ldap::Dit& dit() const noexcept { return dit_; }
  std::size_t provider_count() const noexcept { return providers_.size(); }

  /// Total entries currently served (all providers fresh).
  std::size_t entry_count() const;

  /// One full client query: connect, admission, request, server
  /// processing (provider refresh on miss, DIT search), response. The
  /// frame holds only the refused path; an admitted attempt continues
  /// in a second frame.
  sim::Task<MdsReply> query(net::Interface& client,
                            QueryScope scope = QueryScope::All,
                            trace::Ctx ctx = {});

  /// General LDAP search with a caller-supplied filter, attribute
  /// selection and size limit. Same service pipeline as query().
  sim::Task<MdsReply> search(net::Interface& client, SearchRequest request,
                             trace::Ctx ctx = {});

  /// Attach resource timelines ("<name>.pool") to a trace collector.
  void instrument(trace::Collector& col) {
    pool_.set_probe(&col.track(name_ + ".pool"));
  }

  // ---- MdsNode ----
  const std::string& node_name() const override { return name_; }
  const ldap::Dn& suffix() const override { return host_dn_; }
  ldap::Entry suffix_entry() const override;
  net::Interface& registration_nic() override { return nic_; }
  double registration_interval() const override {
    return config_.registration_interval;
  }
  /// Server-to-server fetch used by a GIIS cache refresh: like a query
  /// from `requester` but without the client-tool latency.
  sim::Task<MdsReply> fetch(net::Interface& requester,
                            trace::Ctx ctx = {}) override;

  /// Number of provider executions so far (tests / diagnostics).
  std::uint64_t provider_runs() const noexcept { return provider_runs_; }

  net::ServerPort& port() noexcept { return port_; }

  /// Install the overload-control layer: server policy on the listen
  /// port, serve-stale degraded mode for the provider cache.
  void set_resilience(const resilience::Config& config) {
    resilience_ = config;
    port_.set_policy(config.server);
  }

  // ---- fault injection ----
  /// Crash the slapd (blackhole: the whole host vanished). The provider
  /// cache is volatile: restart comes back cold.
  void crash(bool blackhole = false) {
    port_.crash(blackhole);
    for (auto& p : providers_) {
      p.fresh_until = -1;  // the slapd cache is volatile
      p.stale = false;
    }
  }
  void restart() { port_.restart(); }
  bool process_up() const noexcept { return port_.up(); }
  /// Hang (or un-hang) the information provider scripts: queries needing
  /// fresh data wait out `provider_timeout`, then either serve the expired
  /// cache (stale) or fail.
  void set_collectors_down(bool down) noexcept { collectors_down_ = down; }
  bool node_up() const override { return port_.up(); }

 private:
  struct ProviderState {
    ProviderSpec spec;
    double fresh_until = -1;  // simulated time the cached data expires
    std::uint64_t sequence = 0;
    bool stale = false;  // the cached entries outlived a failed refresh
  };

  /// What a backend refresh pass actually delivered.
  struct RefreshOutcome {
    bool hit = true;     // everything already fresh (a cache hit)
    bool stale = false;  // expired cache served because a provider hung
    bool failed = false;  // no data obtainable for some needed provider
  };

  /// Ensure provider data needed by `scope` is in the DIT, forking the
  /// provider scripts for anything stale.
  sim::Task<RefreshOutcome> refresh(QueryScope scope, trace::Ctx ctx);

  /// The admitted halves of query() and search(): serve, then the
  /// response leg of the entry frame's net::Dial, which holds the listen
  /// port slot.
  sim::Task<MdsReply> query_admitted(net::Dial& dial, QueryScope scope,
                                     trace::Ctx ctx);
  sim::Task<MdsReply> search_admitted(net::Dial& dial, SearchRequest request,
                                      trace::Ctx ctx);

  /// Shared backend: refresh per `refresh_scope`, then run an arbitrary
  /// filtered search with attribute selection and size limit.
  sim::Task<MdsReply> serve_filter(QueryScope refresh_scope,
                                   const ldap::Filter& filter,
                                   std::vector<std::string> attrs,
                                   std::size_t size_limit, trace::Ctx ctx);

  const ldap::Filter& scope_filter(QueryScope scope) const;

  net::Network& net_;
  host::Host& host_;
  net::Interface& nic_;
  std::string name_;
  ldap::Dn host_dn_;
  ldap::Dn root_dn_;
  // Canned per-scope filters, parsed once (queries reuse them).
  ldap::FilterPtr all_filter_;
  ldap::FilterPtr part_filter_;  // null when there are no providers
  GrisConfig config_;
  std::vector<ProviderState> providers_;
  ldap::Dit dit_;
  sim::Resource pool_;
  net::ServerPort port_;
  std::uint64_t provider_runs_ = 0;
  bool collectors_down_ = false;
  resilience::Config resilience_{};
};

}  // namespace gridmon::mds
