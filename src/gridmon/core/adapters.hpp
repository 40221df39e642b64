#pragma once

/// \file adapters.hpp
/// TracedQueryFn factories binding each concrete service to the uniform
/// workload interface — the executable form of the paper's Table 1
/// component mapping. Each adapter forwards the workload's trace context
/// into the service call chain (a null Ctx when tracing is off) and
/// returns the service's own task as an AttemptTask: no adapter frame.

#include "gridmon/core/workload.hpp"
#include "gridmon/hawkeye/agent.hpp"
#include "gridmon/hawkeye/manager.hpp"
#include "gridmon/mds/giis.hpp"
#include "gridmon/mds/gris.hpp"
#include "gridmon/rgma/consumer_servlet.hpp"
#include "gridmon/rgma/producer_servlet.hpp"
#include "gridmon/rgma/registry.hpp"

namespace gridmon::core {

/// MDS information server (GRIS) query.
inline TracedQueryFn query_gris(mds::Gris& gris,
                                mds::QueryScope scope = mds::QueryScope::All) {
  return [gris = &gris, scope](net::Interface& client, trace::Ctx ctx) {
    return gris->query(client, scope, ctx);
  };
}

/// MDS directory / aggregate server (GIIS) query.
inline TracedQueryFn query_giis(
    mds::Giis& giis, mds::QueryScope scope = mds::QueryScope::Part) {
  return [giis = &giis, scope](net::Interface& client, trace::Ctx ctx) {
    return giis->query(client, scope, ctx);
  };
}

/// Hawkeye information server (Agent) query: fresh module collection.
inline TracedQueryFn query_agent(hawkeye::Agent& agent) {
  return [agent = &agent](net::Interface& client, trace::Ctx ctx) {
    return agent->query(client, ctx);
  };
}

/// Hawkeye directory server (Manager) status query.
inline TracedQueryFn query_manager_status(hawkeye::Manager& manager) {
  return [manager = &manager](net::Interface& client, trace::Ctx ctx) {
    return manager->query_status(client, ctx);
  };
}

/// Hawkeye full-data dump (Experiment 3's workload against the pool).
inline TracedQueryFn query_manager_dump(hawkeye::Manager& manager) {
  return [manager = &manager](net::Interface& client, trace::Ctx ctx) {
    return manager->query_dump(client, ctx);
  };
}

/// Hawkeye constraint scan (Experiment 4's worst-case query).
inline TracedQueryFn query_manager_constraint(hawkeye::Manager& manager,
                                              std::string constraint) {
  return [manager = &manager, constraint](net::Interface& client,
                                          trace::Ctx ctx) {
    return manager->query_constraint(client, constraint, ctx);
  };
}

/// R-GMA mediated pull query through a ConsumerServlet.
inline TracedQueryFn query_consumer_servlet(rgma::ConsumerServlet& cs,
                                            std::string table) {
  return [cs = &cs, table](net::Interface& client, trace::Ctx ctx) {
    return cs->query(client, table, "", ctx);
  };
}

/// R-GMA direct query against one ProducerServlet (the paper's
/// Experiment 3 "queried the ProducerServlet directly").
inline TracedQueryFn query_producer_servlet(rgma::ProducerServlet& ps,
                                            std::string table) {
  return [ps = &ps, table](net::Interface& client, trace::Ctx ctx) {
    return ps->client_query(client, table, "", ctx);
  };
}

/// R-GMA Registry (directory server) lookup.
inline TracedQueryFn query_registry(rgma::Registry& registry,
                                    std::string table) {
  return [registry = &registry, table](net::Interface& client,
                                       trace::Ctx ctx) {
    return registry->client_query(client, table, ctx);
  };
}

}  // namespace gridmon::core
