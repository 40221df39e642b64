#include "gridmon/mds/giis.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "gridmon/net/exchange.hpp"
#include "gridmon/sim/event.hpp"

namespace gridmon::mds {
namespace {

const ldap::Dn& grid_root() {
  static const ldap::Dn kRoot = ldap::Dn::parse("o=grid");
  return kRoot;
}

}  // namespace

Giis::Giis(net::Network& net, host::Host& host, net::Interface& nic,
           std::string name, GiisConfig config)
    : net_(net),
      host_(host),
      nic_(nic),
      name_(std::move(name)),
      vo_dn_(ldap::Dn::parse("Mds-Vo-name=" + name_ + ", o=grid")),
      config_(config),
      refresh_done_(host.simulation()),
      pool_(host.simulation(), config.pool_size),
      port_(host.simulation(), config.backlog) {
  ldap::Entry root(grid_root());
  root.add("objectclass", "organization");
  dit_.add(std::move(root));
}

ldap::Entry Giis::suffix_entry() const {
  ldap::Entry e(vo_dn_);
  e.add("objectclass", "MdsVo");
  e.add("Mds-Vo-name", name_);
  return e;
}

void Giis::add_registrant(MdsNode& node) {
  auto [it, inserted] = registrants_.emplace(node.node_name(), Registrant{});
  bool was_alive = !inserted && it->second.alive;
  it->second.node = &node;
  it->second.alive = true;
  it->second.expires_at =
      host_.simulation().now() + config_.registration_ttl;
  if (inserted || !was_alive) {
    host_.simulation().spawn(registration_loop(node));
  }
}

void Giis::crash(bool blackhole) {
  port_.crash(blackhole);
  // Volatile state: the aggregate tree and the registration table both
  // live in the slapd process. Registrant-side loops keep beating (their
  // cron does not know the GIIS died) and re-populate after restart.
  dit_ = ldap::Dit{};
  ldap::Entry root(grid_root());
  root.add("objectclass", "organization");
  dit_.add(std::move(root));
  for (auto& [name, r] : registrants_) {
    r.fetched = false;
    r.expires_at = -1;
  }
  cache_fresh_until_ = -1;
}

void Giis::kill_registrant(const std::string& node_name) {
  auto it = registrants_.find(node_name);
  if (it != registrants_.end()) it->second.alive = false;
}

std::size_t Giis::live_registrant_count() const {
  std::size_t n = 0;
  double now = host_.simulation().now();
  for (const auto& [name, r] : registrants_) {
    if (r.expires_at >= now) ++n;
  }
  return n;
}

sim::Task<void> Giis::registration_loop(MdsNode& node) {
  auto& sim = host_.simulation();
  // Deterministic phase offset so hundreds of registrants do not fire in
  // lockstep every interval.
  double interval = node.registration_interval();
  double phase =
      static_cast<double>(std::hash<std::string>{}(node.node_name()) %
                          100000) /
      100000.0 * interval;
  co_await sim.delay(phase);
  for (;;) {
    // A crashed registrant skips its beats (nothing left to send them);
    // the registration then ages out and revives after its restart.
    if (node.node_up()) co_await serve_registration(node);
    co_await sim.delay(node.registration_interval());
    auto it = registrants_.find(node.node_name());
    if (it == registrants_.end() || !it->second.alive) co_return;
  }
}

sim::Task<void> Giis::serve_registration(MdsNode& node) {
  co_await net_.transfer(node.registration_nic(), nic_,
                         config_.registration_bytes);
  // A registration arriving while this GIIS is down is simply lost; the
  // registrant's next beat after restart re-establishes it.
  if (!port_.up()) co_return;
  co_await host_.cpu().consume(config_.registration_cpu);
  ++registrations_;
  auto it = registrants_.find(node.node_name());
  if (it != registrants_.end() && it->second.alive) {
    it->second.expires_at =
        host_.simulation().now() + config_.registration_ttl;
  }
}

void Giis::sweep() {
  double now = host_.simulation().now();
  for (auto& [name, r] : registrants_) {
    if (r.expires_at < now && r.fetched) {
      dit_.remove_subtree(r.node->suffix());
      r.fetched = false;
    }
  }
}

sim::Task<void> Giis::merge_payload(MdsNode& node, MdsReply reply,
                                    trace::Ctx ctx) {
  trace::Span span(ctx, trace::SpanKind::Merge, node.node_name(),
                   static_cast<double>(reply.entries));
  auto it = registrants_.find(node.node_name());
  if (it == registrants_.end()) co_return;
  // (Re)build this registrant's slice of the aggregate tree.
  if (it->second.fetched) dit_.remove_subtree(node.suffix());
  dit_.add(node.suffix_entry());

  // Entries already under the node's suffix (a GRIS's devices) stay put;
  // anything else (a child GIIS's hosts/VOs rooted at o=grid) is rebased
  // under the suffix. Parents must land before children: sort by depth.
  std::vector<ldap::Entry>& payload = reply.payload;
  for (auto& entry : payload) {
    const ldap::Dn& dn = entry.dn();
    if (dn == node.suffix()) continue;  // replaced by suffix_entry()
    if (!dn.is_descendant_of(node.suffix())) {
      entry.set_dn(dn.rebased(grid_root(), node.suffix()));
    }
  }
  std::stable_sort(payload.begin(), payload.end(),
                   [](const ldap::Entry& a, const ldap::Entry& b) {
                     return a.dn().depth() < b.dn().depth();
                   });
  std::size_t merged = 0;
  for (auto& entry : payload) {
    if (entry.dn() == node.suffix()) continue;
    dit_.add(std::move(entry));
    ++merged;
  }
  co_await host_.cpu().consume(config_.merge_cpu_per_entry *
                               static_cast<double>(merged + 1));
  // Re-derived after the suspension: a registration or sweep may have
  // touched registrants_ while the merge CPU was being charged, and the
  // iterator from before the co_await must not be trusted.
  auto done = registrants_.find(node.node_name());
  if (done != registrants_.end()) done->second.fetched = true;
}

bool Giis::fetch_allowed(const std::string& node) {
  if (!resilience_.client.enabled) return true;
  auto [it, inserted] =
      fetch_breakers_.try_emplace(node, resilience_.client.breaker);
  return it->second.allow(host_.simulation().now());
}

void Giis::record_fetch(const std::string& node, bool success) {
  if (!resilience_.client.enabled) return;
  auto it = fetch_breakers_.find(node);
  if (it != fetch_breakers_.end()) {
    it->second.record(host_.simulation().now(), success);
  }
}

sim::Task<bool> Giis::refresh_cache(trace::Ctx ctx) {
  auto& sim = host_.simulation();
  if (sim.now() < cache_fresh_until_) co_return false;
  if (resilience_.server.serve_stale && port_.overloaded() &&
      cache_fresh_until_ >= 0) {
    // Degraded mode under shed pressure: answer from the expired
    // aggregate instead of re-pulling every registrant; the staleness is
    // visible to the client, and the next unpressured query refreshes.
    co_return true;
  }
  if (refreshing_) {
    // Another worker is already pulling; wait for it.
    trace::Span span(ctx, trace::SpanKind::CacheValidate, name_);
    co_await refresh_done_;
    co_return false;
  }
  refreshing_ = true;
  refresh_done_.reset();
  trace::Span span(ctx, trace::SpanKind::CacheRefresh, name_);

  sweep();
  // Pull every live registrant in parallel (skipping any whose breaker
  // is open from earlier failed fetches).
  sim::WaitGroup wg(sim);
  struct FetchResult {
    MdsNode* node;
    MdsReply reply;
  };
  auto results = std::make_shared<std::vector<FetchResult>>();
  for (auto& [name, r] : registrants_) {
    if (r.expires_at < sim.now()) continue;
    if (!fetch_allowed(name)) continue;
    MdsNode* node = r.node;
    auto fetch_one = [](Giis& self, MdsNode& n, trace::Ctx c,
                        std::shared_ptr<std::vector<FetchResult>> out)
        -> sim::Task<void> {
      MdsReply reply = co_await n.fetch(self.nic_, c);
      self.record_fetch(n.node_name(),
                        reply.admitted && !reply.timed_out && !reply.failed);
      out->push_back(FetchResult{&n, std::move(reply)});
    };
    sim.spawn(wg.track(fetch_one(*this, *node, span.ctx(), results)));
  }
  bool all_answered = co_await wg.wait_for(config_.fetch_timeout);
  if (!all_answered) {
    // Stragglers (e.g. behind a network partition) keep running but this
    // refresh proceeds with whatever arrived; copy to avoid racing them.
    auto arrived = std::make_shared<std::vector<FetchResult>>(*results);
    results = arrived;
  }

  for (auto& fr : *results) {
    if (!fr.reply.admitted) continue;
    co_await merge_payload(*fr.node, std::move(fr.reply), span.ctx());
  }

  cache_fresh_until_ = sim.now() + config_.cachettl;
  refreshing_ = false;
  refresh_done_.trigger();
  co_return false;
}

ldap::FilterPtr Giis::scope_filter(QueryScope scope) const {
  if (scope == QueryScope::Part) {
    return ldap::Filter::parse("(Mds-provider-name=ip0)");
  }
  return ldap::Filter::parse("(objectclass=MdsDevice)");
}

sim::Task<MdsReply> Giis::query(net::Interface& client, QueryScope scope,
                                trace::Ctx ctx) {
  SearchRequest request;
  request.filter = scope_filter(scope)->to_string();
  return search(client, std::move(request), ctx);
}

sim::Task<MdsReply> Giis::search(net::Interface& client,
                                 SearchRequest request, trace::Ctx ctx) {
  net::Dial dial(net_, client, nic_, port_, ctx, config_.connect_timeout,
                 config_.client_tool_latency);
  if (co_await dial.request(config_.request_bytes +
                            static_cast<double>(request.filter.size())) !=
      net::Admission::Ok) {
    co_return dial.unanswered<MdsReply>(ctx, name_);
  }
  co_return co_await search_admitted(dial, std::move(request), ctx);
}

sim::Task<MdsReply> Giis::search_admitted(net::Dial& dial,
                                          SearchRequest request,
                                          trace::Ctx ctx) {
  MdsReply reply;
  {
    trace::Span wait(ctx, trace::SpanKind::PoolWait, name_);
    auto lease = co_await pool_.acquire();
    wait.end();
    {
      trace::Span cpu(ctx, trace::SpanKind::Cpu, "query_base",
                      config_.query_base_cpu);
      co_await host_.cpu().consume(config_.query_base_cpu);
    }
    reply.stale = co_await refresh_cache(ctx);
    trace::Span search_span(ctx, trace::SpanKind::LdapSearch);
    auto filter = ldap::Filter::parse(request.filter);
    auto result = dit_.search(grid_root(), ldap::Scope::Subtree, *filter,
                              request.attributes, request.size_limit);
    search_span.set_arg(static_cast<double>(result.entries_examined));
    co_await host_.cpu().consume(
        config_.examine_cpu_per_entry *
            static_cast<double>(result.entries_examined) +
        config_.serialize_cpu_per_entry *
            static_cast<double>(result.entries.size()));
    reply.entries = result.entries.size();
    reply.response_bytes = result.wire_bytes();
    reply.admitted = true;
    reply.payload = std::move(result.entries);
  }
  if (co_await dial.respond(reply.response_bytes) != net::Admission::Ok) {
    reply.timed_out = true;
  }
  co_return reply;
}

sim::Task<MdsReply> Giis::fetch(net::Interface& requester, trace::Ctx ctx) {
  trace::Span span(ctx, trace::SpanKind::Fetch, name_);
  net::Dial dial(net_, requester, nic_, port_, span.ctx(),
                 config_.connect_timeout);
  if (co_await dial.request(config_.request_bytes) != net::Admission::Ok) {
    co_return dial.unanswered<MdsReply>();  // a fetch marks no instant
  }
  // Everything except the o=grid root travels upward.
  SearchRequest upward;
  upward.filter =
      "(|(objectclass=MdsDevice)(objectclass=MdsHost)(objectclass=MdsVo))";
  co_return co_await search_admitted(dial, std::move(upward), span.ctx());
}

}  // namespace gridmon::mds
