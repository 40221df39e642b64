#pragma once

/// \file scenarios.hpp
/// Deployment builders reproducing the service placements of the paper's
/// four experiment sets (§3.3-§3.6). Shared by the bench binaries and the
/// integration tests so every consumer measures the same configuration.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gridmon/core/adapters.hpp"
#include "gridmon/core/testbed.hpp"
#include "gridmon/core/workload.hpp"
#include "gridmon/fault/injector.hpp"
#include "gridmon/hawkeye/agent.hpp"
#include "gridmon/hawkeye/manager.hpp"
#include "gridmon/mds/giis.hpp"
#include "gridmon/mds/gris.hpp"
#include "gridmon/rgma/composite_producer.hpp"
#include "gridmon/rgma/consumer_servlet.hpp"
#include "gridmon/rgma/producer_servlet.hpp"
#include "gridmon/rgma/registry.hpp"
#include "gridmon/sim/stats.hpp"
#include "gridmon/store/log.hpp"

namespace gridmon::core {

/// Base for scenarios: guarantees every coroutine referencing scenario
/// components is destroyed (via Simulation::shutdown) before those
/// components are.
class Scenario {
 public:
  explicit Scenario(Testbed& tb) : testbed_(tb) {}
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;
  virtual ~Scenario() { testbed_.sim().shutdown(); }

  Testbed& testbed() noexcept { return testbed_; }

  /// Attach the scenario's service-level usage probes (thread pools,
  /// daemon threads) to counter tracks in `col`. Default: nothing.
  /// `col` must outlive the scenario's services.
  virtual void instrument(trace::Collector& col) { (void)col; }

  /// Register the scenario's crashable components with `inj`. Every
  /// scenario names its service under test "server"; secondary components
  /// get their own stable names ("manager", "registry", "gris0", ...).
  /// Default: nothing registered.
  virtual void register_faults(fault::Injector& inj) { (void)inj; }

  /// Advance the simulation through the deployment's settling phase
  /// (cache warm-up, first advertisements, registration rounds) so
  /// measurement starts from the steady state the paper measured.
  /// Call once, before attaching workloads. Default: nothing.
  virtual void prefill() {}

  /// The canonical client query bound by make_scenario (empty for
  /// push-only deployments such as the streaming fan-out).
  const TracedQueryFn& query_fn() const noexcept { return query_; }
  void set_query(TracedQueryFn q) { query_ = std::move(q); }

  /// Thread the overload-control layer through the deployment: server
  /// policy on every listen port, serve-stale in the caches, client
  /// breakers on the inter-service call paths. Default: nothing.
  virtual void apply_resilience(const resilience::Config& config) {
    (void)config;
  }

  /// The listen port of the service under test — measure() reads its
  /// shed counters through this. Null for push-only deployments.
  virtual const net::ServerPort* server_port() const { return nullptr; }

  /// Durability engine of the service under test (null when the service
  /// runs volatile or has no durable-state support). gridmon_run's
  /// [store] columns and the durability bench read through this.
  virtual const store::Log* store_log() const { return nullptr; }

  /// Absolute sim time the crashed service's state re-converged to its
  /// pre-crash size (-1 until it happens, or when the service does not
  /// track the notion). Feeds SweepPoint::recovery_complete.
  virtual double recovered_at() const { return -1; }

 protected:
  Testbed& testbed_;
  TracedQueryFn query_;
};

/// Attach host-level probes for `host` to `col`: the CPU run queue as
/// track "<host>.cpu" and the NIC's transmit/receive flow counts as
/// "<host>.nic_tx" / "<host>.nic_rx".
void instrument_host(Testbed& tb, trace::Collector& col,
                     const std::string& host);

/// The default ten MDS information providers ("ip0".."ip9"), 4 entries of
/// ~2 KB each.
std::vector<mds::ProviderSpec> default_providers(int count = 10);

// ---- Experiment 1 / 3: information servers ----

/// A GRIS with `providers` information providers on `host` (paper:
/// lucky7). `cache` false reproduces the "nocache" configuration.
struct GrisScenario : Scenario {
  ~GrisScenario() override { testbed_.sim().shutdown(); }

  GrisScenario(Testbed& tb, int providers, bool cache,
               const std::string& host = "lucky7");
  /// Full config control (the overload ablations shrink the listen
  /// backlog so the admission queue, not slapd's internals, is the bound).
  GrisScenario(Testbed& tb, std::vector<mds::ProviderSpec> providers,
               mds::GrisConfig config, const std::string& host = "lucky7");
  void instrument(trace::Collector& col) override { gris->instrument(col); }
  void register_faults(fault::Injector& inj) override {
    inj.add_service("server", *gris);
  }
  void apply_resilience(const resilience::Config& config) override {
    gris->set_resilience(config);
  }
  const net::ServerPort* server_port() const override {
    return &gris->port();
  }
  std::unique_ptr<mds::Gris> gris;
};

/// A Hawkeye Agent on lucky4 reporting to a Manager on lucky3 (paper's
/// Experiment 1 layout); `modules` scales Experiment 3.
struct AgentScenario : Scenario {
  ~AgentScenario() override { testbed_.sim().shutdown(); }

  AgentScenario(Testbed& tb, int modules = 11,
                const std::string& agent_host = "lucky4",
                const std::string& manager_host = "lucky3");
  void instrument(trace::Collector& col) override {
    manager->instrument(col);
    agent->instrument(col);
  }
  void register_faults(fault::Injector& inj) override {
    inj.add_service("server", *agent);
    inj.add_service("agent", *agent);
    inj.add_service("manager", *manager);
  }
  void apply_resilience(const resilience::Config& config) override {
    agent->set_resilience(config);
    manager->set_resilience(config);
  }
  const net::ServerPort* server_port() const override {
    return &agent->port();
  }
  std::unique_ptr<hawkeye::Manager> manager;
  std::unique_ptr<hawkeye::Agent> agent;
};

/// R-GMA: Registry on lucky1, one ProducerServlet with `producers`
/// Producers on lucky3, plus ConsumerServlets either on every lucky node
/// (paper's "lucky" user placement) or a single shared one at UC.
struct RgmaScenario : Scenario {
  ~RgmaScenario() override { testbed_.sim().shutdown(); }

  enum class Consumers { PerLuckyNode, SingleAtUc, None };
  RgmaScenario(Testbed& tb, int producers, Consumers consumers);
  void instrument(trace::Collector& col) override;
  void register_faults(fault::Injector& inj) override;
  void apply_resilience(const resilience::Config& config) override {
    producer_servlet->port().set_policy(config.server);
    registry->port().set_policy(config.server);
    for (auto& [machine, servlet] : consumer_servlets) {
      servlet->set_resilience(config);
    }
  }
  const net::ServerPort* server_port() const override {
    return consumer_servlets.empty()
               ? &producer_servlet->port()
               : &consumer_servlets.begin()->second->port();
  }

  std::unique_ptr<rgma::Registry> registry;
  std::unique_ptr<rgma::ProducerServlet> producer_servlet;
  std::map<std::string, std::unique_ptr<rgma::ConsumerServlet>>
      consumer_servlets;  // keyed by hosting machine

  /// Query routing each user through the ConsumerServlet on (or
  /// assigned to) its own client host.
  TracedQueryFn mediated_query(const std::string& table = "cpuload");
  /// Query going straight at the ProducerServlet (Experiment 3).
  TracedQueryFn direct_query(const std::string& table = "cpuload");
};

// ---- Experiment 2: directory servers ----

/// MDS: GIIS on lucky0 aggregating a GRIS (10 providers each) on every
/// of lucky3..lucky7, data pinned in cache (huge cachettl).
struct GiisScenario : Scenario {
  ~GiisScenario() override { testbed_.sim().shutdown(); }

  GiisScenario(Testbed& tb, int gris_count = 5, int providers_per_gris = 10,
               double cachettl = 1e18);
  void instrument(trace::Collector& col) override;
  void register_faults(fault::Injector& inj) override;
  void apply_resilience(const resilience::Config& config) override {
    giis->set_resilience(config);
    for (auto& g : gris) g->set_resilience(config);
  }
  const net::ServerPort* server_port() const override {
    return &giis->port();
  }
  std::unique_ptr<mds::Giis> giis;
  std::vector<std::unique_ptr<mds::Gris>> gris;

  /// Run the initial cache fill so measurements start warm.
  void prefill() override;
};

/// Hawkeye: Manager on lucky3 with Agents (11 modules each) advertising
/// from the six other lucky nodes.
struct ManagerScenario : Scenario {
  ~ManagerScenario() override { testbed_.sim().shutdown(); }

  explicit ManagerScenario(Testbed& tb, int modules_per_agent = 11,
                           hawkeye::ManagerConfig config = {});
  void instrument(trace::Collector& col) override;
  /// "server" crashes the Manager; its collector hook hangs every
  /// advertising agent's modules at once (the Manager has no collectors
  /// of its own, so an outage means the startd feeds go silent).
  void register_faults(fault::Injector& inj) override;
  /// Let the agents' first ads land (the benches' `run(40.0)`).
  void prefill() override { testbed_.sim().run(40.0); }
  void apply_resilience(const resilience::Config& config) override {
    manager->set_resilience(config);
    for (auto& a : agents) a->set_resilience(config);
  }
  const net::ServerPort* server_port() const override {
    return &manager->port();
  }
  const store::Log* store_log() const override {
    return manager->store_log();
  }
  double recovered_at() const override { return manager->recovered_at(); }
  std::unique_ptr<hawkeye::Manager> manager;
  std::vector<std::unique_ptr<hawkeye::Agent>> agents;
};

/// R-GMA: Registry on lucky1, a ProducerServlet with 10 producers on each
/// of the five other lucky nodes (the paper's Experiment 2 layout).
struct RegistryScenario : Scenario {
  ~RegistryScenario() override { testbed_.sim().shutdown(); }

  explicit RegistryScenario(Testbed& tb, int servlets = 5,
                            int producers_each = 10,
                            rgma::RegistryConfig config = {});
  void instrument(trace::Collector& col) override;
  void register_faults(fault::Injector& inj) override;
  /// Let the servlet registrations land (the benches' `run(10.0)`).
  void prefill() override { testbed_.sim().run(10.0); }
  void apply_resilience(const resilience::Config& config) override {
    registry->port().set_policy(config.server);
    for (auto& s : servlets) s->port().set_policy(config.server);
  }
  const net::ServerPort* server_port() const override {
    return &registry->port();
  }
  const store::Log* store_log() const override {
    return registry->store_log();
  }
  double recovered_at() const override { return registry->recovered_at(); }
  std::unique_ptr<rgma::Registry> registry;
  std::vector<std::unique_ptr<rgma::ProducerServlet>> servlets;
};

/// A lone ProducerServlet with no registry: the fault-tolerance bench's
/// direct-query target, optionally self-publishing so its latest-N
/// buffers keep refreshing (and go stale when the feed is cut).
struct StandaloneRgmaScenario : Scenario {
  ~StandaloneRgmaScenario() override { testbed_.sim().shutdown(); }

  StandaloneRgmaScenario(Testbed& tb, int producers,
                         rgma::ProducerServletConfig config = {},
                         double self_publish_interval = 0,
                         const std::string& host = "lucky3");
  void instrument(trace::Collector& col) override {
    servlet->instrument(col);
  }
  void register_faults(fault::Injector& inj) override {
    inj.add_service("server", *servlet);
  }
  void apply_resilience(const resilience::Config& config) override {
    servlet->port().set_policy(config.server);
  }
  const net::ServerPort* server_port() const override {
    return &servlet->port();
  }
  std::unique_ptr<rgma::ProducerServlet> servlet;
};

// ---- Experiment 4: aggregate information servers ----

/// MDS: GIIS on lucky0 with `gris_count` GRIS instances spread over the
/// six other lucky nodes (the paper simulated up to 500 this way).
struct GiisAggregationScenario : Scenario {
  ~GiisAggregationScenario() override { testbed_.sim().shutdown(); }

  GiisAggregationScenario(Testbed& tb, int gris_count,
                          int providers_per_gris = 10);
  void instrument(trace::Collector& col) override;
  void register_faults(fault::Injector& inj) override;
  void apply_resilience(const resilience::Config& config) override {
    giis->set_resilience(config);
    for (auto& g : gris) g->set_resilience(config);
  }
  const net::ServerPort* server_port() const override {
    return &giis->port();
  }
  std::unique_ptr<mds::Giis> giis;
  std::vector<std::unique_ptr<mds::Gris>> gris;
  void prefill() override;
};

/// Hawkeye: Manager on lucky3 with `machines` hawkeye_advertise senders
/// (30-second interval) spread over the other lucky nodes.
struct ManagerAggregationScenario : Scenario {
  ~ManagerAggregationScenario() override { testbed_.sim().shutdown(); }

  ManagerAggregationScenario(Testbed& tb, int machines,
                             int modules_per_machine = 11,
                             hawkeye::ManagerConfig config = {});
  void instrument(trace::Collector& col) override {
    manager->instrument(col);
  }
  void register_faults(fault::Injector& inj) override {
    inj.add_service("server", *manager);
    inj.add_service("manager", *manager);
  }
  void apply_resilience(const resilience::Config& config) override {
    manager->set_resilience(config);
  }
  const net::ServerPort* server_port() const override {
    return &manager->port();
  }
  const store::Log* store_log() const override {
    return manager->store_log();
  }
  double recovered_at() const override { return manager->recovered_at(); }
  std::unique_ptr<hawkeye::Manager> manager;
  std::vector<std::unique_ptr<hawkeye::Advertiser>> advertisers;

  /// Let every advertiser send at least one ad.
  void prefill() override;
};

// ---- Extensions: deployments past the paper's experiment grid ----

/// The multi-layer fix the paper's §3.6 conclusion proposes: a root GIIS
/// either aggregating `gris_count` GRIS directly (flat) or over six site
/// GIISes each owning a subset (two_level), with a finite cache TTL so
/// aggregation keeps re-pulling.
struct HierarchyScenario : Scenario {
  ~HierarchyScenario() override { testbed_.sim().shutdown(); }

  HierarchyScenario(Testbed& tb, int gris_count, bool two_level,
                    double cachettl = 45.0);
  void instrument(trace::Collector& col) override;
  void register_faults(fault::Injector& inj) override;
  void apply_resilience(const resilience::Config& config) override {
    root->set_resilience(config);
    for (auto& m : mids) m->set_resilience(config);
    for (auto& g : gris) g->set_resilience(config);
  }
  const net::ServerPort* server_port() const override {
    return &root->port();
  }
  void prefill() override;

  /// Round-robin user routing over the six site GIISes (the deployment
  /// §3.6 proposes, where "each middle-level aggregate information
  /// server manages a subset").
  TracedQueryFn site_routed_query();

  std::unique_ptr<mds::Giis> root;
  std::vector<std::unique_ptr<mds::Giis>> mids;
  std::vector<std::unique_ptr<mds::Gris>> gris;

 private:
  std::size_t next_ = 0;
};

/// The R-GMA aggregate information server the paper's Table 1 lists as
/// "None": a CompositeProducer on lucky3 subscribed to `source_servlets`
/// ProducerServlets whose producers publish on a 30 s cadence.
struct CompositeScenario : Scenario {
  ~CompositeScenario() override { testbed_.sim().shutdown(); }

  CompositeScenario(Testbed& tb, int source_servlets);
  void instrument(trace::Collector& col) override {
    composite->servlet().instrument(col);
  }
  void register_faults(fault::Injector& inj) override {
    inj.add_service("server", composite->servlet());
  }
  void apply_resilience(const resilience::Config& config) override {
    composite->servlet().port().set_policy(config.server);
    for (auto& s : sources) s->port().set_policy(config.server);
  }
  const net::ServerPort* server_port() const override {
    return &composite->servlet().port();
  }
  /// Let the first publish round reach the aggregate (`run(60.0)`).
  void prefill() override { testbed_.sim().run(60.0); }

  std::unique_ptr<rgma::CompositeProducer> composite;
  std::vector<std::unique_ptr<rgma::ProducerServlet>> sources;

 private:
  static sim::Task<void> publish_loop(Testbed& tb,
                                      rgma::ProducerServlet& servlet,
                                      rgma::Producer& producer,
                                      std::string host, int phase);
};

/// R-GMA push delivery: one ProducerServlet publishing a 1 Hz tuple
/// stream to `subscribers` consumers spread over the UC client hosts.
/// There is no pull query; the bench reads `latency` / `published`.
struct FanoutScenario : Scenario {
  ~FanoutScenario() override { testbed_.sim().shutdown(); }

  FanoutScenario(Testbed& tb, int subscribers);
  void instrument(trace::Collector& col) override {
    servlet->instrument(col);
  }
  void register_faults(fault::Injector& inj) override {
    inj.add_service("server", *servlet);
  }
  void apply_resilience(const resilience::Config& config) override {
    servlet->port().set_policy(config.server);
  }
  const net::ServerPort* server_port() const override {
    return &servlet->port();
  }

  std::unique_ptr<rgma::ProducerServlet> servlet;
  rgma::Producer* producer = nullptr;
  sim::Samples latency;  // publish -> consumer callback, seconds
  std::uint64_t published = 0;

 private:
  static sim::Task<void> publish_loop(FanoutScenario& self);
};

/// The paper's §3.3 recommendation "multiple ProducerServlets for the
/// same information": `replicas` servlets (10 producers each, 30 rows
/// prefilled) behind a Registry, consumers balanced round-robin.
struct ReplicatedRgmaScenario : Scenario {
  ~ReplicatedRgmaScenario() override { testbed_.sim().shutdown(); }

  ReplicatedRgmaScenario(Testbed& tb, int replicas, int pool_size);
  void instrument(trace::Collector& col) override;
  void register_faults(fault::Injector& inj) override;
  void apply_resilience(const resilience::Config& config) override {
    registry->port().set_policy(config.server);
    for (auto& s : servlets) s->port().set_policy(config.server);
  }
  const net::ServerPort* server_port() const override {
    return servlets.empty() ? nullptr : &servlets.front()->port();
  }
  /// Let the replica registrations land (`run(10.0)`).
  void prefill() override { testbed_.sim().run(10.0); }

  /// Round-robin consumers over the replicas.
  TracedQueryFn balanced_query(const std::string& table = "cpuload");

  std::unique_ptr<rgma::Registry> registry;
  std::vector<std::unique_ptr<rgma::ProducerServlet>> servlets;

 private:
  std::size_t next_ = 0;
};

}  // namespace gridmon::core
