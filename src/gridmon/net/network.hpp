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
#include <coroutine>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gridmon/sim/event.hpp"
#include "gridmon/sim/ps_server.hpp"
#include "gridmon/sim/simulation.hpp"
#include "gridmon/sim/wake.hpp"
#include "gridmon/trace/collector.hpp"

namespace gridmon::net {

class Dial;

/// A host's attachment point: duplex PS bandwidth servers.
class Interface {
 public:
  Interface(sim::Simulation& sim, std::string host, std::string site,
            std::size_t site_id, double bandwidth_bytes_per_s)
      : host_(std::move(host)),
        site_(std::move(site)),
        site_id_(site_id),
        tx_(sim, bandwidth_bytes_per_s, 1),
        rx_(sim, bandwidth_bytes_per_s, 1) {}

  const std::string& host() const noexcept { return host_; }
  const std::string& site() const noexcept { return site_; }
  /// The site's index in its Network, in add_site order.
  std::size_t site_id() const noexcept { return site_id_; }
  sim::PsServer& tx() noexcept { return tx_; }
  sim::PsServer& rx() noexcept { return rx_; }

 private:
  std::string host_;
  std::string site_;
  std::size_t site_id_;
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

  /// Add a site, or replace the spec of the site with this name.
  void add_site(SiteSpec spec) {
    auto [it, inserted] = site_ids_.emplace(spec.name, site_specs_.size());
    if (inserted) {
      site_specs_.push_back(std::move(spec));
      rebuild_routes();
    } else {
      site_specs_[it->second] = std::move(spec);
    }
  }

  /// Connect two sites with a WAN pipe (order-insensitive lookup).
  void add_wan(const std::string& a, const std::string& b, WanSpec spec) {
    wans_[wan_key(a, b)] = std::make_unique<Wan>(sim_, spec);
    rebuild_routes();
  }

  /// Create (and own) the NIC for a host on a site.
  Interface& attach(const std::string& host_name,
                    const std::string& site_name) {
    auto site_it = site_ids_.find(site_name);
    if (site_it == site_ids_.end()) {
      throw std::invalid_argument("unknown site: " + site_name);
    }
    std::size_t site_id = site_it->second;
    auto [it, inserted] = interfaces_.emplace(
        host_name,
        std::make_unique<Interface>(
            sim_, host_name, site_name, site_id,
            site_specs_[site_id].nic_bandwidth_bytes_per_s));
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
    if (from.site_id() == to.site_id()) {
      return site_specs_[from.site_id()].one_way_latency;
    }
    return route(from, to).spec.one_way_latency;
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

  class Transfer;

  /// Move `payload_bytes` from `from` to `to`. Adds per-message protocol
  /// overhead, shares the sender NIC, (for cross-site flows) the WAN pipe,
  /// and the receiver NIC, then waits propagation latency. Loopback
  /// traffic bypasses the NIC entirely. A transfer across a partitioned
  /// WAN stalls (TCP retransmission) until the link heals — or, when the
  /// caller passes a non-negative `stall_timeout`, gives up after waiting
  /// that many seconds for the heal and returns false (connection reset /
  /// retransmission limit). The timeout bounds only the partition stall,
  /// not bandwidth-sharing time, so fault-free behaviour is unchanged.
  /// `co_await` yields true when the payload was delivered, and throws
  /// std::invalid_argument before any traffic moves when the two sites
  /// have no WAN between them.
  /// The optional trace context opens a span of `kind` covering the whole
  /// store-and-forward path (tx share, WAN share, rx share, propagation);
  /// its arg records the payload bytes.
  Transfer transfer(Interface& from, Interface& to, double payload_bytes,
                    trace::Ctx ctx = {},
                    trace::SpanKind kind = trace::SpanKind::NetTransfer,
                    double stall_timeout = -1);

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

  /// TCP-style connection establishment: one round trip of kSynBytes
  /// (SYN, then SYN-ACK) in one Transfer, traced as a single Connect span
  /// (the SYN legs are not split out). Yields false when a SYN times out
  /// across a downed WAN (see `transfer`); with the default stall_timeout
  /// it never fails.
  Transfer connect(Interface& from, Interface& to, trace::Ctx ctx = {},
                   double stall_timeout = -1);

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

  /// Refill the site-id route table from the name-keyed WAN map. Set-up
  /// only: runs once per add_site/add_wan.
  void rebuild_routes() {
    const std::size_t n = site_specs_.size();
    routes_.assign(n * n, nullptr);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        auto it = wans_.find(wan_key(site_specs_[a].name, site_specs_[b].name));
        if (a != b && it != wans_.end()) routes_[a * n + b] = it->second.get();
      }
    }
  }

  /// The WAN pipe between two interfaces on different sites.
  Wan& route(const Interface& from, const Interface& to) const {
    Wan* wan = routes_[from.site_id() * site_specs_.size() + to.site_id()];
    if (wan == nullptr) {
      throw std::invalid_argument("no WAN between " + from.site() + " and " +
                                  to.site());
    }
    return *wan;
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
  std::vector<SiteSpec> site_specs_;              // indexed by site id
  std::map<std::string, std::size_t> site_ids_;   // site name -> site id
  std::map<std::pair<std::string, std::string>, std::unique_ptr<Wan>> wans_;
  std::vector<Wan*> routes_;  // [from id * sites + to id], null: no WAN
  std::map<std::string, std::unique_ptr<Interface>> interfaces_;
};

namespace detail {

/// The trace span of a frame-free network op: the parent context until
/// the op starts, then the span it opened (seq 0: none). Closes on
/// destruction, as a trace::Span in a coroutine frame would.
class OpSpan {
 public:
  explicit OpSpan(const trace::Ctx& parent) noexcept
      : col_(parent.col), trace_id_(parent.trace_id), parent_(parent.parent) {}
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;
  ~OpSpan() { close(); }

  void open(trace::SpanKind kind, double arg) {
    if (col_ != nullptr) {
      seq_ = col_->open(parent(), kind, {}, arg);
    }
  }
  void close() noexcept {
    if (seq_ != 0) {
      col_->close(seq_);
      seq_ = 0;
    }
  }
  /// The context the op's spans open under.
  trace::Ctx parent() const noexcept {
    return trace::Ctx{col_, trace_id_, parent_};
  }

 private:
  trace::Collector* col_;
  std::uint64_t trace_id_;
  std::uint32_t parent_;
  std::uint32_t seq_ = 0;
};

}  // namespace detail

/// The awaitable Network::transfer returns: a store-and-forward state
/// machine (tx share -> partition stall -> WAN share -> rx share ->
/// propagation delay) that lives in the awaiting coroutine's frame. The
/// PS servers, the WAN's heal event and the event queue wake it through
/// its sim::Step; it resumes the awaiter when the payload is delivered or
/// the stall times out. It makes the PS, WAN, event-queue and span calls
/// a coroutine with the same stages would make, in the same order, and
/// allocates nothing (a stall with a timeout allocates the race state of
/// Event::park_for).
class Network::Transfer : sim::Step {
  friend class Network;  // builds connects
  friend class Dial;     // drives a connect and re-aims it at a request

 public:
  Transfer(Network& net, Interface& from, Interface& to, double payload_bytes,
           const trace::Ctx& ctx, trace::SpanKind kind,
           double stall_timeout) noexcept
      : Transfer(net, from, to, payload_bytes, ctx, kind, stall_timeout,
                 false) {}
  Transfer(const Transfer&) = delete;
  Transfer& operator=(const Transfer&) = delete;

  /// Loopback completes at once; a cross-site pair without a WAN throws.
  bool await_ready() {
    if (from_ == to_) {
      if (reply_) {  // a connect still traces its (empty) handshake
        span_.open(kind_, 0);
        span_.close();
      }
      ok_ = true;
      return true;
    }
    if (cross_site()) (void)net_->route(*from_, *to_);
    return false;
  }
  bool await_suspend(std::coroutine_handle<> h) { return start(h); }
  bool await_resume() const noexcept { return ok_; }

 private:
  /// `round_trip`: once delivered, send the same bytes back from `to` to
  /// `from` inside the same span (a connect's SYN and SYN-ACK).
  Transfer(Network& net, Interface& from, Interface& to, double payload_bytes,
           const trace::Ctx& ctx, trace::SpanKind kind, double stall_timeout,
           bool round_trip) noexcept
      : sim::Step{&Transfer::on_wake},
        net_(&net),
        from_(&from),
        to_(&to),
        bytes_(payload_bytes),
        stall_timeout_(stall_timeout),
        span_(ctx),
        kind_(kind),
        reply_(round_trip) {}

  /// Start the transfer after await_ready said no, waking `done` when it
  /// ends; false when it ended at once.
  bool start(sim::Wake done) {
    done_ = done;
    span_.open(kind_, reply_ ? 0 : bytes_);
    bytes_ += kMessageOverheadBytes;
    return send();
  }

  enum class Stage : std::uint8_t { Tx, Stall, Wan, Rx, Prop };

  static void on_wake(sim::Step* step) {
    auto* self = static_cast<Transfer*>(step);
    if (self->advance()) return;
    self->done_();  // last: the awaiter may destroy this object
  }

  bool cross_site() const noexcept {
    return from_->site_id() != to_->site_id();
  }
  Wan& wan() const { return net_->route(*from_, *to_); }

  /// Start one leg from from_ to to_. Each stage function below runs
  /// its stage and the ones after it until one parks: it returns true
  /// when parked, false when the transfer has finished (ok_ holds the
  /// result).
  bool send() {
    stage_ = Stage::Tx;
    if (serve(from_->tx())) return true;
    return after_tx();
  }

  /// Continue after the wait of the current stage.
  bool advance() {
    switch (stage_) {
      case Stage::Tx:
        return after_tx();
      case Stage::Stall:
        // A timed wait that ended at its deadline with the link still
        // down fails the transfer.
        if (stall_timeout_ >= 0 && !healed_ && wan().down) {
          return finish(false);
        }
        return stall();
      case Stage::Wan:
        return after_wan();
      case Stage::Rx:
        return after_rx();
      case Stage::Prop:
        break;
    }
    return finish(true);
  }

  bool after_tx() {
    if (!cross_site()) return after_wan();
    if (stall_timeout_ >= 0) deadline_ = net_->sim_.now() + stall_timeout_;
    return stall();
  }

  /// Wait out a partition: until it heals, or with a stall timeout until
  /// deadline_, then queue on the WAN pipe.
  bool stall() {
    Wan& w = wan();
    while (w.down) {
      stage_ = Stage::Stall;
      if (stall_timeout_ < 0) {
        w.healed->park(this);
        return true;
      }
      double left = deadline_ - net_->sim_.now();
      if (!w.healed->triggered() && left > 0) {
        healed_ = false;
        w.healed->park_for(this, left, &healed_);
        return true;
      }
      if (!w.healed->triggered() && w.down) return finish(false);
    }
    stage_ = Stage::Wan;
    if (serve(w.pipe)) return true;
    return after_wan();
  }

  bool after_wan() {
    stage_ = Stage::Rx;
    if (serve(to_->rx())) return true;
    return after_rx();
  }

  bool after_rx() {
    double latency = net_->latency(*from_, *to_);
    if (latency > 0) {
      stage_ = Stage::Prop;
      net_->sim_.schedule_resume(latency, this);
      return true;
    }
    return finish(true);
  }

  /// A leg ended: send the reply leg of a delivered round trip, or close
  /// the span and finish.
  bool finish(bool ok) {
    if (ok && reply_) {
      reply_ = false;
      std::swap(from_, to_);
      return send();
    }
    ok_ = ok;
    span_.close();
    return false;
  }

  /// Queue the wire bytes on `ps`; false when there is nothing to serve.
  bool serve(sim::PsServer& ps) {
    if (bytes_ <= 0) return false;
    ps.consume_then(bytes_, this);
    return true;
  }

  Network* net_;
  Interface* from_;
  Interface* to_;
  double bytes_;  // the payload until await_suspend, then the wire bytes
  double stall_timeout_;
  double deadline_ = 0;  // absolute end of a timed partition stall
  sim::Wake done_;
  detail::OpSpan span_;
  trace::SpanKind kind_;
  Stage stage_ = Stage::Tx;
  bool reply_;  // a reply leg is still to be sent
  bool ok_ = false;
  bool healed_ = false;  // set by the heal event when it wins a timed stall
};

inline Network::Transfer Network::transfer(Interface& from, Interface& to,
                                           double payload_bytes,
                                           trace::Ctx ctx,
                                           trace::SpanKind kind,
                                           double stall_timeout) {
  return Transfer(*this, from, to, payload_bytes, ctx, kind, stall_timeout);
}

inline Network::Transfer Network::connect(Interface& from, Interface& to,
                                          trace::Ctx ctx,
                                          double stall_timeout) {
  return Transfer(*this, from, to, kSynBytes, ctx, trace::SpanKind::Connect,
                  stall_timeout, true);
}

}  // namespace gridmon::net
