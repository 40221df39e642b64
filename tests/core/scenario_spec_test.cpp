#include "gridmon/core/scenario_spec.hpp"

#include <gtest/gtest.h>

#include "gridmon/core/scenarios.hpp"
#include "gridmon/core/testbed.hpp"

namespace gridmon::core {
namespace {

TEST(IniParseTest, SectionsKeysValues) {
  auto ini = parse_ini(
      "# comment\n"
      "[Experiment]\n"
      "Service = gris   ; inline comment\n"
      "users=1, 2,3\n"
      "\n"
      "[other]\n"
      "k = v\n");
  ASSERT_TRUE(ini.contains("experiment"));
  EXPECT_EQ(ini["experiment"]["service"], "gris");
  EXPECT_EQ(ini["experiment"]["users"], "1, 2,3");
  EXPECT_EQ(ini["other"]["k"], "v");
}

TEST(IniParseTest, Errors) {
  EXPECT_THROW(parse_ini("key = before section\n"), ConfigError);
  EXPECT_THROW(parse_ini("[unterminated\n"), ConfigError);
  EXPECT_THROW(parse_ini("[s]\nno equals here\n"), ConfigError);
  EXPECT_THROW(parse_ini("[s]\n= empty key\n"), ConfigError);
}

TEST(ScenarioSpecTest, FullExample) {
  auto spec = parse_scenario_spec(
      "[experiment]\n"
      "service = gris-nocache\n"
      "users = 10, 50, 100\n"
      "collectors = 40\n"
      "clients = lucky\n"
      "warmup = 30\n"
      "duration = 120\n"
      "seed = 7\n");
  EXPECT_EQ(spec.service, ServiceKind::GrisNocache);
  EXPECT_EQ(spec.users, (std::vector<int>{10, 50, 100}));
  EXPECT_EQ(spec.collectors, 40);
  EXPECT_TRUE(spec.lucky_clients);
  EXPECT_DOUBLE_EQ(spec.warmup, 30);
  EXPECT_DOUBLE_EQ(spec.duration, 120);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.server_host(), "lucky7");
  EXPECT_EQ(spec.service_name(), "MDS GRIS (nocache)");
}

TEST(ScenarioSpecTest, DefaultsApply) {
  auto spec = parse_scenario_spec("[experiment]\nservice = manager\n");
  EXPECT_EQ(spec.service, ServiceKind::Manager);
  EXPECT_EQ(spec.users, std::vector<int>{10});
  EXPECT_EQ(spec.collectors, 10);
  EXPECT_FALSE(spec.lucky_clients);
  EXPECT_DOUBLE_EQ(spec.duration, 600);
  EXPECT_EQ(spec.server_host(), "lucky3");
}

TEST(ScenarioSpecTest, EveryServiceParses) {
  const std::pair<const char*, std::string> cases[] = {
      {"gris", "lucky7"},           {"gris-nocache", "lucky7"},
      {"giis", "lucky0"},           {"agent", "lucky4"},
      {"manager", "lucky3"},        {"registry", "lucky1"},
      {"rgma-mediated", "lucky3"},  {"rgma-direct", "lucky3"},
      {"rgma-standalone", "lucky3"}, {"giis-aggregate", "lucky0"},
      {"manager-aggregate", "lucky3"}, {"hierarchy", "lucky0"},
      {"rgma-composite", "lucky3"}, {"stream-fanout", "lucky3"},
      {"rgma-replicated", "lucky3"},
  };
  for (const auto& [name, host] : cases) {
    auto spec = parse_scenario_spec(
        std::string("[experiment]\nservice = ") + name + "\n");
    EXPECT_EQ(spec.server_host(), host) << name;
  }
}

TEST(ScenarioSpecTest, TopologyAndQueryKeys) {
  auto spec = parse_scenario_spec(
      "[experiment]\n"
      "service = hierarchy\n"
      "query = site-routed\n"
      "gris_count = 120\n"
      "two_level = true\n"
      "cachettl = 45\n");
  EXPECT_EQ(spec.service, ServiceKind::Hierarchy);
  EXPECT_EQ(spec.query, QueryVariant::SiteRouted);
  EXPECT_EQ(spec.gris_count, 120);
  EXPECT_TRUE(spec.two_level);
  EXPECT_DOUBLE_EQ(spec.cachettl, 45);
  // Two-level metrics are reported for one site server.
  EXPECT_EQ(spec.server_host(), "lucky1");

  auto rep = parse_scenario_spec(
      "[experiment]\n"
      "service = rgma-replicated\n"
      "replicas = 4\n"
      "pool_size = 16\n"
      "table = memload\n");
  EXPECT_EQ(rep.replicas, 4);
  EXPECT_EQ(rep.pool_size, 16);
  EXPECT_EQ(rep.table, "memload");
}

TEST(ScenarioSpecTest, FaultSection) {
  auto spec = parse_scenario_spec(
      "[experiment]\n"
      "service = gris\n"
      "[faults]\n"
      "crash = server, 300, 360\n"
      "query_deadline = 25\n"
      "max_attempts = 5\n");
  EXPECT_FALSE(spec.faults.empty());
  EXPECT_DOUBLE_EQ(spec.query_deadline, 25);
  EXPECT_EQ(spec.max_attempts, 5);
}

TEST(ScenarioSpecTest, StoreSection) {
  auto spec = parse_scenario_spec(
      "[experiment]\n"
      "service = registry\n"
      "[store]\n"
      "mode = wal+snapshot\n"
      "fsync_latency = 0.02\n"
      "write_bandwidth = 10e6\n"
      "group_commit_window = 0.01\n"
      "snapshot_interval = 30\n"
      "replay_cpu_per_record = 1e-4\n");
  EXPECT_EQ(spec.store.mode, store::DurabilityMode::WalSnapshot);
  EXPECT_TRUE(spec.store.enabled());
  EXPECT_DOUBLE_EQ(spec.store.fsync_latency, 0.02);
  EXPECT_DOUBLE_EQ(spec.store.write_bandwidth, 10e6);
  EXPECT_DOUBLE_EQ(spec.store.group_commit_window, 0.01);
  EXPECT_DOUBLE_EQ(spec.store.snapshot_interval, 30);
  EXPECT_DOUBLE_EQ(spec.store.replay_cpu_per_record, 1e-4);

  // Omitted section = the paper's soft state.
  auto off = parse_scenario_spec("[experiment]\nservice = registry\n");
  EXPECT_EQ(off.store.mode, store::DurabilityMode::Volatile);
  EXPECT_FALSE(off.store.enabled());

  // mode = volatile is accepted anywhere (it is the no-op).
  auto vol = parse_scenario_spec(
      "[experiment]\nservice = gris\n[store]\nmode = volatile\n");
  EXPECT_FALSE(vol.store.enabled());
}

TEST(ScenarioSpecTest, StoreSectionRejections) {
  // Unknown key, bad mode, and durability on a service with no durable
  // state are all config errors.
  EXPECT_THROW(parse_scenario_spec(
                   "[experiment]\nservice = registry\n[store]\nfrob = 1\n"),
               ConfigError);
  EXPECT_THROW(
      parse_scenario_spec(
          "[experiment]\nservice = registry\n[store]\nmode = paranoid\n"),
      ConfigError);
  EXPECT_THROW(parse_scenario_spec(
                   "[experiment]\nservice = gris\n[store]\nmode = wal\n"),
               ConfigError);
}

TEST(MakeScenarioTest, StoreModeReachesServices) {
  ScenarioSpec spec;
  spec.service = ServiceKind::Registry;
  spec.store.mode = store::DurabilityMode::Wal;
  Testbed tb;
  auto scenario = make_scenario(tb, spec);
  EXPECT_NE(scenario->store_log(), nullptr);
  EXPECT_EQ(scenario->store_log()->config().mode, store::DurabilityMode::Wal);

  ScenarioSpec vol;
  vol.service = ServiceKind::Registry;
  Testbed tb2;
  auto volatile_scenario = make_scenario(tb2, vol);
  EXPECT_EQ(volatile_scenario->store_log(), nullptr);
}

TEST(ScenarioSpecTest, Rejections) {
  EXPECT_THROW(parse_scenario_spec("[other]\nk = v\n"), ConfigError);
  EXPECT_THROW(
      parse_scenario_spec("[experiment]\nservice = frobnicator\n"),
      ConfigError);
  EXPECT_THROW(parse_scenario_spec("[experiment]\nsrevice = gris\n"),
               ConfigError);  // typo caught
  EXPECT_THROW(parse_scenario_spec("[experiment]\nusers = ten\n"),
               ConfigError);
  EXPECT_THROW(parse_scenario_spec("[experiment]\nusers = -5\n"),
               ConfigError);
  EXPECT_THROW(parse_scenario_spec("[experiment]\nclients = mars\n"),
               ConfigError);
  EXPECT_THROW(
      parse_scenario_spec("[experiment]\n[extra]\nk = v\n"), ConfigError);
  EXPECT_THROW(parse_scenario_spec(
                   "[experiment]\nservice = gris\n[faults]\nfrob = 1\n"),
               ConfigError);
}

TEST(MakeScenarioTest, BuildsEveryServiceKind) {
  const ServiceKind kinds[] = {
      ServiceKind::Gris,          ServiceKind::GrisNocache,
      ServiceKind::Giis,          ServiceKind::Agent,
      ServiceKind::Manager,       ServiceKind::Registry,
      ServiceKind::RgmaMediated,  ServiceKind::RgmaDirect,
      ServiceKind::RgmaStandalone, ServiceKind::GiisAggregate,
      ServiceKind::ManagerAggregate, ServiceKind::Hierarchy,
      ServiceKind::RgmaComposite, ServiceKind::StreamFanout,
      ServiceKind::RgmaReplicated,
  };
  for (ServiceKind kind : kinds) {
    ScenarioSpec spec;
    spec.service = kind;
    spec.gris_count = 6;  // keep the hierarchy/aggregate builds small
    spec.machines = 5;
    spec.sources = 3;
    spec.subscribers = 4;
    Testbed tb;
    auto scenario = make_scenario(tb, spec);
    ASSERT_NE(scenario, nullptr) << static_cast<int>(kind);
    // Every pull service binds its canonical query; the push fan-out has
    // none to bind.
    if (kind == ServiceKind::StreamFanout) {
      EXPECT_FALSE(scenario->query_fn());
    } else {
      EXPECT_TRUE(scenario->query_fn()) << static_cast<int>(kind);
    }
    scenario->prefill();
  }
}

TEST(MakeScenarioTest, RejectsImpossibleQueryVariant) {
  ScenarioSpec spec;
  spec.service = ServiceKind::Agent;
  spec.query = QueryVariant::ManagerDump;
  Testbed tb;
  EXPECT_THROW(make_scenario(tb, spec), ConfigError);
}

// A spec assigned field by field skips SpecBuilder::build(); make_scenario
// runs the same validation pass, so it cannot deploy an invalid one.
TEST(MakeScenarioTest, RejectsDirectlyMutatedInvalidSpec) {
  ScenarioSpec spec = ScenarioSpec::build().service(ServiceKind::Gris).build();
  spec.warmup = -5;
  Testbed tb;
  try {
    make_scenario(tb, spec);
    FAIL() << "make_scenario should have thrown";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("warmup must be non-negative"),
              std::string::npos)
        << e.what();
  }
}

// The cross-field rules hold on the direct path too: sharding switched on
// after build() cannot smuggle in a client mode the sharded engine does
// not drive.
TEST(MakeScenarioTest, RejectsShardingEnabledAfterBuild) {
  ScenarioSpec spec = ScenarioSpec::build()
                          .service(ServiceKind::Gris)
                          .lucky_clients(true)
                          .build();
  spec.engine.shards = 2;
  Testbed tb;
  try {
    make_scenario(tb, spec);
    FAIL() << "make_scenario should have thrown";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("lucky_clients must be false"),
              std::string::npos)
        << e.what();
  }
}

// Like build(), make_scenario reports every problem of a spec at once.
TEST(MakeScenarioTest, ReportsEveryProblemOfDirectlyMutatedSpec) {
  ScenarioSpec spec;
  spec.service = ServiceKind::Gris;
  spec.collectors = 0;
  spec.duration = 0;
  Testbed tb;
  try {
    make_scenario(tb, spec);
    FAIL() << "make_scenario should have thrown";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("(2 errors)"), std::string::npos) << what;
    EXPECT_NE(what.find("collectors must be positive"), std::string::npos)
        << what;
    EXPECT_NE(what.find("duration must be positive"), std::string::npos)
        << what;
  }
}

TEST(MakeScenarioTest, QueryVariantSelectsManagerQuery) {
  ScenarioSpec spec;
  spec.service = ServiceKind::Manager;
  spec.query = QueryVariant::ManagerConstraint;
  spec.constraint = "CpuLoad > 1";
  Testbed tb;
  auto scenario = make_scenario(tb, spec);
  EXPECT_TRUE(scenario->query_fn());
}

}  // namespace
}  // namespace gridmon::core
