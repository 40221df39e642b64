#include "gridmon/core/scenarios.hpp"

namespace gridmon::core {
namespace {

/// Fill a producer with `rows` latest-value tuples so SELECTs have data
/// to chew on from the first query.
void prefill_producer(rgma::Producer& producer, const std::string& host,
                      int rows = 30) {
  for (int i = 0; i < rows; ++i) {
    producer.publish({rdbms::Value::text(host),
                      rdbms::Value::text("cpu_load"),
                      rdbms::Value::real(0.1 * i),
                      rdbms::Value::real(static_cast<double>(i))});
  }
}

/// Run one throwaway query to completion (a prefill's cache warm-up).
sim::Task<void> warm_up(sim::Task<mds::MdsReply> query) {
  (void)co_await query;
}

}  // namespace

void instrument_host(Testbed& tb, trace::Collector& col,
                     const std::string& host) {
  tb.host(host).cpu().ps().set_probe(&col.track(host + ".cpu"));
  tb.nic(host).tx().set_probe(&col.track(host + ".nic_tx"));
  tb.nic(host).rx().set_probe(&col.track(host + ".nic_rx"));
}

std::vector<mds::ProviderSpec> default_providers(int count) {
  std::vector<mds::ProviderSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    mds::ProviderSpec spec;
    spec.name = "ip" + std::to_string(i);
    spec.entries = 4;
    spec.bytes_per_entry = 2000;
    // The paper's cache experiments keep provider data "always in cache";
    // the nocache configurations ignore the TTL anyway.
    spec.cache_ttl = 1e18;
    specs.push_back(spec);
  }
  return specs;
}

GrisScenario::GrisScenario(Testbed& tb, int providers, bool cache,
                           const std::string& host)
    : GrisScenario(tb, default_providers(providers),
                   [cache] {
                     mds::GrisConfig config;
                     config.cache_enabled = cache;
                     return config;
                   }(),
                   host) {}

GrisScenario::GrisScenario(Testbed& tb, std::vector<mds::ProviderSpec> providers,
                           mds::GrisConfig config, const std::string& host)
    : Scenario(tb) {
  gris = std::make_unique<mds::Gris>(tb.network(), tb.host(host), tb.nic(host),
                                     host + ".mcs.anl.gov",
                                     std::move(providers), config);
}

AgentScenario::AgentScenario(Testbed& tb, int modules,
                             const std::string& agent_host,
                             const std::string& manager_host)
    : Scenario(tb) {
  manager = std::make_unique<hawkeye::Manager>(
      tb.network(), tb.host(manager_host), tb.nic(manager_host));
  agent = std::make_unique<hawkeye::Agent>(
      tb.network(), tb.host(agent_host), tb.nic(agent_host),
      agent_host + ".mcs.anl.gov", hawkeye::scaled_modules(modules));
  agent->start_advertising(*manager);
}

RgmaScenario::RgmaScenario(Testbed& tb, int producers, Consumers consumers)
    : Scenario(tb) {
  registry = std::make_unique<rgma::Registry>(tb.network(), tb.host("lucky1"),
                                              tb.nic("lucky1"));
  registry->start_sweeper();
  producer_servlet = std::make_unique<rgma::ProducerServlet>(
      tb.network(), tb.host("lucky3"), tb.nic("lucky3"), "ps-lucky3");
  for (int i = 0; i < producers; ++i) {
    auto& p = producer_servlet->add_producer("producer" + std::to_string(i),
                                             "cpuload");
    prefill_producer(p, "lucky3");
  }
  producer_servlet->start_registration(*registry);

  auto add_cs = [&](const std::string& host) {
    auto cs = std::make_unique<rgma::ConsumerServlet>(
        tb.network(), tb.host(host), tb.nic(host), "cs-" + host, *registry);
    cs->add_producer_servlet(*producer_servlet);
    consumer_servlets.emplace(host, std::move(cs));
  };
  switch (consumers) {
    case Consumers::PerLuckyNode:
      for (const auto& name : tb.lucky_names()) add_cs(name);
      break;
    case Consumers::SingleAtUc:
      add_cs("uc01");
      break;
    case Consumers::None:
      break;
  }
}

void RgmaScenario::instrument(trace::Collector& col) {
  registry->instrument(col);
  producer_servlet->instrument(col);
  for (auto& [host, cs] : consumer_servlets) cs->instrument(col);
}

void RgmaScenario::register_faults(fault::Injector& inj) {
  inj.add_service("server", *producer_servlet);
  inj.add_service("registry", *registry);
  for (auto& [host, cs] : consumer_servlets) {
    inj.add_service("cs-" + host, *cs);
  }
}

TracedQueryFn RgmaScenario::mediated_query(const std::string& table) {
  // Route a user to the ConsumerServlet on its own host, or to the single
  // shared servlet when only one exists (the UC setup).
  return [this, table](net::Interface& client, trace::Ctx ctx) {
    auto it = consumer_servlets.find(client.host());
    if (it == consumer_servlets.end()) it = consumer_servlets.begin();
    return it->second->query(client, table, "", ctx);
  };
}

TracedQueryFn RgmaScenario::direct_query(const std::string& table) {
  return [this, table](net::Interface& client, trace::Ctx ctx) {
    return producer_servlet->client_query(client, table, "", ctx);
  };
}

GiisScenario::GiisScenario(Testbed& tb, int gris_count, int providers_per_gris,
                           double cachettl)
    : Scenario(tb) {
  mds::GiisConfig config;
  config.cachettl = cachettl;
  giis = std::make_unique<mds::Giis>(tb.network(), tb.host("lucky0"),
                                     tb.nic("lucky0"), "giis-lucky0", config);
  const std::vector<std::string> gris_hosts{"lucky3", "lucky4", "lucky5",
                                            "lucky6", "lucky7"};
  for (int i = 0; i < gris_count; ++i) {
    const std::string& host =
        gris_hosts[static_cast<std::size_t>(i) % gris_hosts.size()];
    gris.push_back(std::make_unique<mds::Gris>(
        tb.network(), tb.host(host), tb.nic(host),
        host + "-gris" + std::to_string(i),
        default_providers(providers_per_gris)));
    giis->add_registrant(*gris.back());
  }
}

void GiisScenario::instrument(trace::Collector& col) {
  giis->instrument(col);
  for (auto& g : gris) g->instrument(col);
}

void GiisScenario::register_faults(fault::Injector& inj) {
  inj.add_service("server", *giis);
  for (std::size_t i = 0; i < gris.size(); ++i) {
    inj.add_service("gris" + std::to_string(i), *gris[i]);
  }
}

void GiisScenario::prefill() {
  // One throwaway query triggers the initial cache pull from every GRIS.
  testbed_.sim().spawn(
      warm_up(giis->query(testbed_.nic("uc01"), mds::QueryScope::Part)));
  testbed_.sim().run(testbed_.sim().now() + 60);
}

ManagerScenario::ManagerScenario(Testbed& tb, int modules_per_agent,
                                 hawkeye::ManagerConfig config)
    : Scenario(tb) {
  manager = std::make_unique<hawkeye::Manager>(tb.network(), tb.host("lucky3"),
                                               tb.nic("lucky3"), config);
  for (const auto& name : tb.lucky_names()) {
    if (name == "lucky3") continue;
    agents.push_back(std::make_unique<hawkeye::Agent>(
        tb.network(), tb.host(name), tb.nic(name), name + ".mcs.anl.gov",
        hawkeye::scaled_modules(modules_per_agent)));
    agents.back()->start_advertising(*manager);
  }
}

void ManagerScenario::instrument(trace::Collector& col) {
  manager->instrument(col);
  for (auto& a : agents) a->instrument(col);
}

void ManagerScenario::register_faults(fault::Injector& inj) {
  // The Manager itself has no collectors; a collector outage on "server"
  // means every advertising startd's modules hang at once.
  fault::Injector::Hooks hooks;
  hooks.crash = [m = manager.get()](bool blackhole) { m->crash(blackhole); };
  hooks.restart = [m = manager.get()] { m->restart(); };
  hooks.collectors = [as = &agents](bool down) {
    for (auto& a : *as) a->set_collectors_down(down);
  };
  inj.add_target("server", std::move(hooks));
  inj.add_service("manager", *manager);
  for (std::size_t i = 0; i < agents.size(); ++i) {
    inj.add_service("agent" + std::to_string(i), *agents[i]);
  }
}

RegistryScenario::RegistryScenario(Testbed& tb, int servlet_count,
                                   int producers_each,
                                   rgma::RegistryConfig config)
    : Scenario(tb) {
  registry = std::make_unique<rgma::Registry>(tb.network(), tb.host("lucky1"),
                                              tb.nic("lucky1"),
                                              std::move(config));
  registry->start_sweeper();
  const std::vector<std::string> hosts{"lucky3", "lucky4", "lucky5", "lucky6",
                                       "lucky7"};
  for (int i = 0; i < servlet_count; ++i) {
    const std::string& host = hosts[static_cast<std::size_t>(i) % hosts.size()];
    auto servlet = std::make_unique<rgma::ProducerServlet>(
        tb.network(), tb.host(host), tb.nic(host),
        "ps-" + host + "-" + std::to_string(i));
    for (int p = 0; p < producers_each; ++p) {
      auto& producer = servlet->add_producer(
          "producer-" + std::to_string(i) + "-" + std::to_string(p),
          "cpuload");
      prefill_producer(producer, host);
    }
    servlet->start_registration(*registry);
    servlets.push_back(std::move(servlet));
  }
}

void RegistryScenario::instrument(trace::Collector& col) {
  registry->instrument(col);
  for (auto& s : servlets) s->instrument(col);
}

void RegistryScenario::register_faults(fault::Injector& inj) {
  inj.add_service("server", *registry);
  inj.add_service("registry", *registry);
  for (std::size_t i = 0; i < servlets.size(); ++i) {
    inj.add_service("ps" + std::to_string(i), *servlets[i]);
  }
}

GiisAggregationScenario::GiisAggregationScenario(Testbed& tb, int gris_count,
                                                 int providers_per_gris)
    : Scenario(tb) {
  mds::GiisConfig config;
  config.cachettl = 1e18;
  giis = std::make_unique<mds::Giis>(tb.network(), tb.host("lucky0"),
                                     tb.nic("lucky0"), "giis-lucky0", config);
  const std::vector<std::string> hosts{"lucky1", "lucky3", "lucky4",
                                       "lucky5", "lucky6", "lucky7"};
  for (int i = 0; i < gris_count; ++i) {
    const std::string& host = hosts[static_cast<std::size_t>(i) % hosts.size()];
    gris.push_back(std::make_unique<mds::Gris>(
        tb.network(), tb.host(host), tb.nic(host),
        host + "-gris" + std::to_string(i),
        default_providers(providers_per_gris)));
    giis->add_registrant(*gris.back());
  }
}

void GiisAggregationScenario::instrument(trace::Collector& col) {
  giis->instrument(col);
  for (auto& g : gris) g->instrument(col);
}

void GiisAggregationScenario::register_faults(fault::Injector& inj) {
  inj.add_service("server", *giis);
  for (std::size_t i = 0; i < gris.size(); ++i) {
    inj.add_service("gris" + std::to_string(i), *gris[i]);
  }
}

void GiisAggregationScenario::prefill() {
  testbed_.sim().spawn(
      warm_up(giis->query(testbed_.nic("uc01"), mds::QueryScope::Part)));
  testbed_.sim().run(testbed_.sim().now() + 120);
}

ManagerAggregationScenario::ManagerAggregationScenario(
    Testbed& tb, int machines, int modules_per_machine,
    hawkeye::ManagerConfig config)
    : Scenario(tb) {
  manager = std::make_unique<hawkeye::Manager>(tb.network(), tb.host("lucky3"),
                                               tb.nic("lucky3"),
                                               std::move(config));
  const std::vector<std::string> hosts{"lucky0", "lucky1", "lucky4",
                                       "lucky5", "lucky6", "lucky7"};
  for (int i = 0; i < machines; ++i) {
    const std::string& host = hosts[static_cast<std::size_t>(i) % hosts.size()];
    advertisers.push_back(std::make_unique<hawkeye::Advertiser>(
        tb.network(), tb.host(host), tb.nic(host),
        "sim-machine-" + std::to_string(i), modules_per_machine));
    advertisers.back()->start(*manager);
  }
}

void ManagerAggregationScenario::prefill() {
  testbed_.sim().run(testbed_.sim().now() + 60);
}

StandaloneRgmaScenario::StandaloneRgmaScenario(
    Testbed& tb, int producers, rgma::ProducerServletConfig config,
    double self_publish_interval, const std::string& host)
    : Scenario(tb) {
  servlet = std::make_unique<rgma::ProducerServlet>(
      tb.network(), tb.host(host), tb.nic(host), "ps-" + host, config);
  for (int i = 0; i < producers; ++i) {
    auto& p = servlet->add_producer("producer" + std::to_string(i),
                                    "cpuload");
    prefill_producer(p, host);
  }
  if (self_publish_interval > 0) {
    servlet->start_publishing(self_publish_interval);
  }
}

HierarchyScenario::HierarchyScenario(Testbed& tb, int gris_count,
                                     bool two_level, double cachettl)
    : Scenario(tb) {
  mds::GiisConfig root_config;
  root_config.cachettl = cachettl;
  root = std::make_unique<mds::Giis>(tb.network(), tb.host("lucky0"),
                                     tb.nic("lucky0"), "root", root_config);
  const std::vector<std::string> hosts{"lucky1", "lucky3", "lucky4",
                                       "lucky5", "lucky6", "lucky7"};
  if (two_level) {
    mds::GiisConfig mid_config;
    mid_config.cachettl = cachettl;
    for (std::size_t m = 0; m < hosts.size(); ++m) {
      mids.push_back(std::make_unique<mds::Giis>(
          tb.network(), tb.host(hosts[m]), tb.nic(hosts[m]),
          "site-" + std::to_string(m), mid_config));
      root->add_registrant(*mids.back());
    }
  }
  for (int i = 0; i < gris_count; ++i) {
    const std::string& host = hosts[static_cast<std::size_t>(i) % hosts.size()];
    gris.push_back(std::make_unique<mds::Gris>(
        tb.network(), tb.host(host), tb.nic(host),
        host + "-gris" + std::to_string(i), default_providers(10)));
    if (two_level) {
      mids[static_cast<std::size_t>(i) % mids.size()]->add_registrant(
          *gris.back());
    } else {
      root->add_registrant(*gris.back());
    }
  }
}

void HierarchyScenario::instrument(trace::Collector& col) {
  root->instrument(col);
  for (auto& m : mids) m->instrument(col);
  for (auto& g : gris) g->instrument(col);
}

void HierarchyScenario::register_faults(fault::Injector& inj) {
  inj.add_service("server", *root);
  for (std::size_t i = 0; i < mids.size(); ++i) {
    inj.add_service("site" + std::to_string(i), *mids[i]);
  }
  for (std::size_t i = 0; i < gris.size(); ++i) {
    inj.add_service("gris" + std::to_string(i), *gris[i]);
  }
}

void HierarchyScenario::prefill() {
  testbed_.sim().spawn(
      warm_up(root->query(testbed_.nic("uc01"), mds::QueryScope::Part)));
  testbed_.sim().run(testbed_.sim().now() + 120);
}

TracedQueryFn HierarchyScenario::site_routed_query() {
  return [this](net::Interface& client, trace::Ctx ctx) {
    auto& mid = *mids[next_++ % mids.size()];
    return mid.query(client, mds::QueryScope::Part, ctx);
  };
}

CompositeScenario::CompositeScenario(Testbed& tb, int source_servlets)
    : Scenario(tb) {
  rgma::CompositeProducerConfig config;
  config.merge_history = static_cast<std::size_t>(source_servlets) * 10 * 5;
  composite = std::make_unique<rgma::CompositeProducer>(
      tb.network(), tb.host("lucky3"), tb.nic("lucky3"), "agg", "cpuload",
      config);
  const std::vector<std::string> hosts{"lucky0", "lucky1", "lucky4",
                                       "lucky5", "lucky6", "lucky7"};
  for (int i = 0; i < source_servlets; ++i) {
    const std::string& host = hosts[static_cast<std::size_t>(i) % hosts.size()];
    auto servlet = std::make_unique<rgma::ProducerServlet>(
        tb.network(), tb.host(host), tb.nic(host), "src-" + std::to_string(i));
    for (int p = 0; p < 10; ++p) {
      auto& producer = servlet->add_producer(
          "p-" + std::to_string(i) + "-" + std::to_string(p), "cpuload");
      tb.sim().spawn(publish_loop(tb, *servlet, producer, host,
                                  (i * 37 + p * 7) % 30));
    }
    composite->attach_source(*servlet);
    sources.push_back(std::move(servlet));
  }
}

sim::Task<void> CompositeScenario::publish_loop(Testbed& tb,
                                                rgma::ProducerServlet& servlet,
                                                rgma::Producer& producer,
                                                std::string host, int phase) {
  auto& sim = tb.sim();
  co_await sim.delay(static_cast<double>(phase));
  for (;;) {
    rdbms::Row row{rdbms::Value::text(host), rdbms::Value::text("load1"),
                   rdbms::Value::real(0.5), rdbms::Value::real(sim.now())};
    co_await servlet.publish(producer, std::move(row));
    co_await sim.delay(30.0);
  }
}

FanoutScenario::FanoutScenario(Testbed& tb, int subscribers) : Scenario(tb) {
  servlet = std::make_unique<rgma::ProducerServlet>(
      tb.network(), tb.host("lucky3"), tb.nic("lucky3"), "ps");
  producer = &servlet->add_producer("stream", "loadstream");
  for (int i = 0; i < subscribers; ++i) {
    const std::string& host =
        tb.uc_names()[static_cast<std::size_t>(i) % tb.uc_names().size()];
    servlet->subscribe(tb.nic(host), "loadstream", "",
                       [this](const rdbms::Row& row) {
                         double sent_at = row[3].as_number();
                         latency.add(testbed_.sim().now() - sent_at);
                       });
  }
  tb.sim().spawn(publish_loop(*this));
}

sim::Task<void> FanoutScenario::publish_loop(FanoutScenario& self) {
  auto& sim = self.testbed_.sim();
  for (;;) {
    rdbms::Row row{rdbms::Value::text("lucky3"), rdbms::Value::text("load1"),
                   rdbms::Value::real(0.5), rdbms::Value::real(sim.now())};
    co_await self.servlet->publish(*self.producer, std::move(row));
    ++self.published;
    co_await sim.delay(1.0);
  }
}

ReplicatedRgmaScenario::ReplicatedRgmaScenario(Testbed& tb, int replicas,
                                               int pool_size)
    : Scenario(tb) {
  registry = std::make_unique<rgma::Registry>(tb.network(), tb.host("lucky1"),
                                              tb.nic("lucky1"));
  registry->start_sweeper();
  const std::vector<std::string> hosts{"lucky3", "lucky4", "lucky5", "lucky6",
                                       "lucky7"};
  rgma::ProducerServletConfig ps_config;
  ps_config.pool_size = pool_size;
  for (int r = 0; r < replicas; ++r) {
    const std::string& host = hosts[static_cast<std::size_t>(r) % hosts.size()];
    auto servlet = std::make_unique<rgma::ProducerServlet>(
        tb.network(), tb.host(host), tb.nic(host),
        "ps-replica-" + std::to_string(r), ps_config);
    for (int i = 0; i < 10; ++i) {
      auto& p = servlet->add_producer(
          "producer-" + std::to_string(r) + "-" + std::to_string(i),
          "cpuload");
      for (int row = 0; row < 30; ++row) {
        p.publish({rdbms::Value::text(host), rdbms::Value::text("cpu"),
                   rdbms::Value::real(row * 0.1),
                   rdbms::Value::real(static_cast<double>(row))});
      }
    }
    servlet->start_registration(*registry);
    servlets.push_back(std::move(servlet));
  }
}

void ReplicatedRgmaScenario::instrument(trace::Collector& col) {
  registry->instrument(col);
  for (auto& s : servlets) s->instrument(col);
}

void ReplicatedRgmaScenario::register_faults(fault::Injector& inj) {
  inj.add_service("server", *servlets.front());
  inj.add_service("registry", *registry);
  for (std::size_t i = 0; i < servlets.size(); ++i) {
    inj.add_service("ps" + std::to_string(i), *servlets[i]);
  }
}

TracedQueryFn ReplicatedRgmaScenario::balanced_query(const std::string& table) {
  return [this, table](net::Interface& client, trace::Ctx ctx) {
    auto& servlet = *servlets[next_++ % servlets.size()];
    return servlet.client_query(client, table, "", ctx);
  };
}

}  // namespace gridmon::core
