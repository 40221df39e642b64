#pragma once

/// \file network.hpp
/// Flow-level network model.
///
/// Every host gets a full-duplex network interface: independent
/// processor-sharing servers for transmit and receive, in bytes/second.
/// Hosts within a site share a switched LAN (each NIC is its own
/// bottleneck, matching the paper's 100 Mbps switched testbed). Sites are
/// joined by WAN pipes: a shared PS bandwidth server plus propagation
/// latency, with an optional per-flow cap modelling the TCP window limit.
///
/// The saturation thresholds the paper attributes to "the network on the
/// server side can no longer handle the traffic" emerge from the rx/tx
/// servers of the machine hosting the service.

#include <cassert>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "gridmon/sim/event.hpp"
#include "gridmon/sim/ps_server.hpp"
#include "gridmon/sim/simulation.hpp"
#include "gridmon/sim/task.hpp"
#include "gridmon/trace/collector.hpp"

namespace gridmon::net {

/// A host's attachment point: duplex PS bandwidth servers.
class Interface {
 public:
  Interface(sim::Simulation& sim, std::string host, std::string site,
            double bandwidth_bytes_per_s)
      : host_(std::move(host)),
        site_(std::move(site)),
        tx_(sim, bandwidth_bytes_per_s, 1),
        rx_(sim, bandwidth_bytes_per_s, 1) {}

  const std::string& host() const noexcept { return host_; }
  const std::string& site() const noexcept { return site_; }
  sim::PsServer& tx() noexcept { return tx_; }
  sim::PsServer& rx() noexcept { return rx_; }

 private:
  std::string host_;
  std::string site_;
  sim::PsServer tx_;
  sim::PsServer rx_;
};

struct WanSpec {
  double bandwidth_bytes_per_s = 5e6;  // ~40 Mbps shared path
  double one_way_latency = 0.005;      // 5 ms one way (ANL <-> UChicago)
  double per_flow_cap_bytes_per_s = 2.5e6;  // 64 KB TCP window / ~25 ms RTT
};

struct SiteSpec {
  std::string name;
  double nic_bandwidth_bytes_per_s = 12.5e6;  // 100 Mbps
  double one_way_latency = 0.0001;            // switched LAN
};

class Network {
 public:
  explicit Network(sim::Simulation& sim) : sim_(sim) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  void add_site(SiteSpec spec) { sites_[spec.name] = spec; }

  /// Connect two sites with a WAN pipe (order-insensitive lookup).
  void add_wan(const std::string& a, const std::string& b, WanSpec spec) {
    wans_[wan_key(a, b)] = std::make_unique<Wan>(sim_, spec);
  }

  /// Create (and own) the NIC for a host on a site.
  Interface& attach(const std::string& host_name,
                    const std::string& site_name) {
    auto site_it = sites_.find(site_name);
    if (site_it == sites_.end()) {
      throw std::invalid_argument("unknown site: " + site_name);
    }
    auto [it, inserted] = interfaces_.emplace(
        host_name,
        std::make_unique<Interface>(sim_, host_name, site_name,
                                    site_it->second.nic_bandwidth_bytes_per_s));
    if (!inserted) {
      throw std::invalid_argument("host already attached: " + host_name);
    }
    return *it->second;
  }

  Interface& interface(const std::string& host_name) {
    auto it = interfaces_.find(host_name);
    if (it == interfaces_.end()) {
      throw std::invalid_argument("unknown host: " + host_name);
    }
    return *it->second;
  }

  /// One-way propagation latency between two interfaces.
  double latency(const Interface& from, const Interface& to) const {
    if (&from == &to) return 0;
    if (from.site() == to.site()) {
      return sites_.at(from.site()).one_way_latency;
    }
    return wan_between(from.site(), to.site()).spec.one_way_latency;
  }

  /// Round-trip time between two interfaces.
  double rtt(const Interface& from, const Interface& to) const {
    return 2 * latency(from, to);
  }

  /// The smallest one-way propagation latency of any WAN pipe — the
  /// natural conservative-lookahead bound for host/site-sharded
  /// execution (sim::ShardGroup): no cross-site effect can propagate
  /// faster than this. Returns 0 when no WANs exist (single-site
  /// topologies have no cross-site traffic to bound).
  double min_cross_site_latency() const {
    double min_latency = 0;
    for (const auto& [key, wan] : wans_) {
      if (min_latency == 0 || wan->spec.one_way_latency < min_latency) {
        min_latency = wan->spec.one_way_latency;
      }
    }
    return min_latency;
  }

  /// Move `payload_bytes` from `from` to `to`. Adds per-message protocol
  /// overhead, shares the sender NIC, (for cross-site flows) the WAN pipe,
  /// and the receiver NIC, then waits propagation latency. Loopback
  /// traffic bypasses the NIC entirely. A transfer across a partitioned
  /// WAN stalls (TCP retransmission) until the link heals — or, when the
  /// caller passes a non-negative `stall_timeout`, gives up after waiting
  /// that many seconds for the heal and returns false (connection reset /
  /// retransmission limit). The timeout bounds only the partition stall,
  /// not bandwidth-sharing time, so fault-free behaviour is unchanged.
  /// Returns true when the payload was delivered.
  /// The optional trace context opens a span of `kind` covering the whole
  /// store-and-forward path (tx share, WAN share, rx share, propagation);
  /// its arg records the payload bytes.
  sim::Task<bool> transfer(Interface& from, Interface& to,
                           double payload_bytes, trace::Ctx ctx = {},
                           trace::SpanKind kind = trace::SpanKind::NetTransfer,
                           double stall_timeout = -1) {
    if (&from == &to) co_return true;  // local IPC: negligible at this scale
    trace::Span span(ctx, kind, {}, payload_bytes);
    double bytes = payload_bytes + kMessageOverheadBytes;
    co_await from.tx().consume(bytes);
    if (from.site() != to.site()) {
      Wan& wan = wan_between(from.site(), to.site());
      if (stall_timeout < 0) {
        while (wan.down) co_await *wan.healed;
      } else {
        double deadline = sim_.now() + stall_timeout;
        while (wan.down) {
          bool healed = co_await wan.healed->wait_for(deadline - sim_.now());
          if (!healed && wan.down) co_return false;
        }
      }
      co_await wan.pipe.consume(bytes);
    }
    co_await to.rx().consume(bytes);
    co_await sim_.delay(latency(from, to));
    co_return true;
  }

  /// Fault injection: partition (or heal) the WAN between two sites.
  /// In-flight and new cross-site transfers stall until the link heals,
  /// which is how soft-state protocols discover dead peers.
  void set_wan_down(const std::string& a, const std::string& b, bool down) {
    Wan& wan = wan_between(a, b);
    if (wan.down && !down) wan.healed->trigger();
    if (down) wan.healed->reset();
    wan.down = down;
  }

  bool wan_down(const std::string& a, const std::string& b) const {
    return wan_between(a, b).down;
  }

  /// Fault injection: scale the WAN pipe rate to `factor` of the spec'd
  /// bandwidth (factor 1 restores it). Models link degradation — loss or
  /// competing bulk traffic — without partitioning the path.
  void set_wan_degraded(const std::string& a, const std::string& b,
                        double factor) {
    Wan& wan = wan_between(a, b);
    wan.pipe.set_total_rate(wan.spec.bandwidth_bytes_per_s * factor);
  }

  /// TCP-style connection establishment: one round trip of small packets.
  /// Traced as a single Connect span (the SYN legs are not split out).
  /// Returns false when a SYN times out across a downed WAN (see
  /// `transfer`); with the default stall_timeout it never fails.
  sim::Task<bool> connect(Interface& from, Interface& to,
                          trace::Ctx ctx = {}, double stall_timeout = -1) {
    trace::Span span(ctx, trace::SpanKind::Connect);
    if (!co_await transfer(from, to, kSynBytes, {},
                           trace::SpanKind::NetTransfer, stall_timeout)) {
      co_return false;
    }
    co_return co_await transfer(to, from, kSynBytes, {},
                                trace::SpanKind::NetTransfer, stall_timeout);
  }

  sim::Simulation& simulation() noexcept { return sim_; }

  static constexpr double kMessageOverheadBytes = 256;
  static constexpr double kSynBytes = 64;

 private:
  struct Wan {
    WanSpec spec;
    sim::PsServer pipe;
    bool down = false;
    std::unique_ptr<sim::Event> healed;
    Wan(sim::Simulation& sim, WanSpec s)
        : spec(s),
          pipe(sim, s.bandwidth_bytes_per_s, 1, s.per_flow_cap_bytes_per_s),
          healed(std::make_unique<sim::Event>(sim)) {}
  };

  static std::pair<std::string, std::string> wan_key(const std::string& a,
                                                     const std::string& b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  const Wan& wan_between(const std::string& a, const std::string& b) const {
    auto it = wans_.find(wan_key(a, b));
    if (it == wans_.end()) {
      throw std::invalid_argument("no WAN between " + a + " and " + b);
    }
    return *it->second;
  }
  Wan& wan_between(const std::string& a, const std::string& b) {
    return const_cast<Wan&>(
        static_cast<const Network*>(this)->wan_between(a, b));
  }

  sim::Simulation& sim_;
  std::map<std::string, SiteSpec> sites_;
  std::map<std::pair<std::string, std::string>, std::unique_ptr<Wan>> wans_;
  std::map<std::string, std::unique_ptr<Interface>> interfaces_;
};

}  // namespace gridmon::net
