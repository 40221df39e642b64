#include "gridmon/mds/gris.hpp"

#include "gridmon/net/exchange.hpp"

namespace gridmon::mds {

Gris::Gris(net::Network& net, host::Host& host, net::Interface& nic,
           std::string name, std::vector<ProviderSpec> providers,
           GrisConfig config)
    : net_(net),
      host_(host),
      nic_(nic),
      name_(std::move(name)),
      host_dn_(ldap::Dn::parse("Mds-Host-hn=" + name_ + ", o=grid")),
      config_(config),
      pool_(host.simulation(), config.pool_size),
      port_(host.simulation(), config.backlog) {
  // Root + host entry so provider entries always have a parent.
  ldap::Entry root(ldap::Dn::parse("o=grid"));
  root.add("objectclass", "organization");
  dit_.add(std::move(root));
  ldap::Entry host_entry(host_dn_);
  host_entry.add("objectclass", "MdsHost");
  host_entry.add("Mds-Host-hn", name_);
  dit_.add(std::move(host_entry));

  providers_.reserve(providers.size());
  for (auto& spec : providers) {
    providers_.push_back(ProviderState{std::move(spec), -1, 0, false});
  }

  root_dn_ = ldap::Dn::parse("o=grid");
  all_filter_ = ldap::Filter::parse("(objectclass=MdsDevice)");
  if (!providers_.empty()) {
    part_filter_ = ldap::Filter::parse("(Mds-provider-name=" +
                                       providers_.front().spec.name + ")");
  }
}

ldap::Entry Gris::suffix_entry() const {
  ldap::Entry e(host_dn_);
  e.add("objectclass", "MdsHost");
  e.add("Mds-Host-hn", name_);
  return e;
}

std::size_t Gris::entry_count() const {
  std::size_t n = 0;
  for (const auto& p : providers_) {
    n += static_cast<std::size_t>(p.spec.entries);
  }
  return n;
}

const ldap::Filter& Gris::scope_filter(QueryScope scope) const {
  if (scope == QueryScope::Part && part_filter_) return *part_filter_;
  return *all_filter_;
}

sim::Task<Gris::RefreshOutcome> Gris::refresh(QueryScope scope,
                                              trace::Ctx ctx) {
  auto& sim = host_.simulation();
  RefreshOutcome out;
  std::size_t limit =
      (scope == QueryScope::Part && !providers_.empty()) ? 1
                                                         : providers_.size();
  // Indexed accesses throughout: a reference into providers_ must not
  // live across a suspension (or the loop back-edge that follows one) —
  // another frame can grow the vector and reallocate it while we wait.
  for (std::size_t i = 0; i < limit; ++i) {
    bool fresh =
        config_.cache_enabled && sim.now() < providers_[i].fresh_until;
    if (fresh) {
      // Negative-cached entries from a failed refresh are still expired
      // data even though the TTL bookkeeping calls them fresh.
      if (providers_[i].stale) out.stale = true;
      continue;
    }
    out.hit = false;
    if (resilience_.server.serve_stale && port_.overloaded() &&
        config_.cache_enabled && providers_[i].sequence > 0) {
      // Degraded mode under shed pressure: answer from the expired cache
      // instead of forking the provider — the query costs what a cache
      // hit costs, and the staleness is visible to the client.
      out.stale = true;
      continue;
    }
    if (collectors_down_) {
      // The provider script hangs (wedged daemon, dead NFS mount): the
      // worker waits out the exec timeout, holding its pool lease, then
      // either serves the expired cache or gives up.
      co_await sim.delay(config_.provider_timeout);
      if (config_.cache_enabled && providers_[i].sequence > 0) {
        out.stale = true;
        // slapd keeps serving the old entry and re-tries the script only
        // after another TTL: the outage surfaces as stale data, not as a
        // server that hangs on every query.
        providers_[i].stale = true;
        providers_[i].fresh_until =
            sim.now() + providers_[i].spec.cache_ttl;
      } else {
        out.failed = true;
      }
      continue;
    }
    // Fork and run the provider script on this host's CPU.
    co_await host_.fork_exec(providers_[i].spec.exec_cpu_ref, ctx,
                             providers_[i].spec.name);
    ++provider_runs_;
    ++providers_[i].sequence;
    for (auto& entry : run_provider(providers_[i].spec, host_dn_,
                                    providers_[i].sequence)) {
      dit_.add(std::move(entry));
    }
    providers_[i].fresh_until = sim.now() + providers_[i].spec.cache_ttl;
    providers_[i].stale = false;
  }
  co_return out;
}

sim::Task<MdsReply> Gris::serve_filter(QueryScope refresh_scope,
                                       const ldap::Filter& filter,
                                       std::vector<std::string> attrs,
                                       std::size_t size_limit,
                                       trace::Ctx ctx) {
  auto& sim = host_.simulation();
  MdsReply reply;
  trace::Span wait(ctx, trace::SpanKind::PoolWait, name_);
  auto lease = co_await pool_.acquire();
  wait.end();
  {
    trace::Span cpu(ctx, trace::SpanKind::Cpu, "query_base",
                    config_.query_base_cpu);
    co_await host_.cpu().consume(config_.query_base_cpu);
  }

  RefreshOutcome outcome = co_await refresh(refresh_scope, ctx);
  bool hit = outcome.hit;
  reply.cache_hit = hit;
  reply.stale = outcome.stale;
  reply.failed = outcome.failed;
  if (hit && config_.cache_enabled && config_.cache_serve_latency > 0) {
    // Backend freshness re-validation (polling waits, not CPU).
    trace::Span validate(ctx, trace::SpanKind::CacheValidate);
    lease.release();
    co_await sim.delay(config_.cache_serve_latency);
    validate.end();
    trace::Span rewait(ctx, trace::SpanKind::PoolWait, name_);
    lease = co_await pool_.acquire();
  }

  trace::Span search(ctx, trace::SpanKind::LdapSearch);
  auto result = dit_.search(root_dn_, ldap::Scope::Subtree, filter, attrs,
                            size_limit);
  search.set_arg(static_cast<double>(result.entries_examined));
  co_await host_.cpu().consume(
      config_.examine_cpu_per_entry *
          static_cast<double>(result.entries_examined) +
      config_.serialize_cpu_per_entry *
          static_cast<double>(result.entries.size()));
  search.end();
  reply.entries = result.entries.size();
  reply.response_bytes = result.wire_bytes();
  reply.payload = std::move(result.entries);
  co_return reply;
}

sim::Task<MdsReply> Gris::search(net::Interface& client,
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

sim::Task<MdsReply> Gris::search_admitted(net::Dial& dial,
                                          SearchRequest request,
                                          trace::Ctx ctx) {
  auto filter = ldap::Filter::parse(request.filter);
  MdsReply reply = co_await serve_filter(QueryScope::All, *filter,
                                         std::move(request.attributes),
                                         request.size_limit, ctx);
  reply.admitted = true;
  if (co_await dial.respond(reply.response_bytes) != net::Admission::Ok) {
    reply.timed_out = true;
  }
  co_return reply;
}

sim::Task<MdsReply> Gris::query(net::Interface& client, QueryScope scope,
                                trace::Ctx ctx) {
  // Client tool startup + GSI authentication, connect, admission and
  // request. The Dial holds the port slot until query_admitted() is done.
  net::Dial dial(net_, client, nic_, port_, ctx, config_.connect_timeout,
                 config_.client_tool_latency);
  if (co_await dial.request(config_.request_bytes) != net::Admission::Ok) {
    co_return dial.unanswered<MdsReply>(ctx, name_);
  }
  co_return co_await query_admitted(dial, scope, ctx);
}

sim::Task<MdsReply> Gris::query_admitted(net::Dial& dial, QueryScope scope,
                                         trace::Ctx ctx) {
  MdsReply reply =
      co_await serve_filter(scope, scope_filter(scope), {}, 0, ctx);
  reply.admitted = true;
  if (co_await dial.respond(reply.response_bytes) != net::Admission::Ok) {
    reply.timed_out = true;
  }
  co_return reply;
}

sim::Task<MdsReply> Gris::fetch(net::Interface& requester, trace::Ctx ctx) {
  trace::Span span(ctx, trace::SpanKind::Fetch, name_);
  net::Dial dial(net_, requester, nic_, port_, span.ctx(),
                 config_.connect_timeout);
  if (co_await dial.request(config_.request_bytes) != net::Admission::Ok) {
    co_return dial.unanswered<MdsReply>();  // a fetch marks no instant
  }
  co_return co_await query_admitted(dial, QueryScope::All, span.ctx());
}

}  // namespace gridmon::mds
