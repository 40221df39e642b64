/// Soft-state expiry and re-registration under crash/restart in all three
/// directory services. No explicit failure detection anywhere: dead
/// members age out of each registry when their beats stop, and reappear
/// on their own after restart — the paper's §2.1 "dynamic cleaning of
/// dead resources" made measurable. The GIIS WAN case is the
/// examples/failure_recovery.cpp flow, promoted to assertions.

#include <gtest/gtest.h>

#include <iterator>

#include "gridmon/core/scenarios.hpp"
#include "gridmon/core/testbed.hpp"
#include "gridmon/fault/injector.hpp"
#include "gridmon/hawkeye/agent.hpp"
#include "gridmon/hawkeye/manager.hpp"
#include "gridmon/mds/giis.hpp"
#include "gridmon/rgma/producer_servlet.hpp"
#include "gridmon/rgma/registry.hpp"

namespace gridmon {
namespace {

/// One client query of each Manager kind. The four share one front (the
/// daemon thread, ad expiry and the stale check), so each must see the
/// same pool.
struct ManagerProbe {
  const char* kind;
  sim::Task<hawkeye::HawkeyeReply> (*query)(hawkeye::Manager&,
                                            net::Interface&);
};

const ManagerProbe kManagerProbes[] = {
    {"status",
     [](hawkeye::Manager& m, net::Interface& nic) {
       return m.query_status(nic);
     }},
    {"dump",
     [](hawkeye::Manager& m, net::Interface& nic) {
       return m.query_dump(nic);
     }},
    {"constraint",
     [](hawkeye::Manager& m, net::Interface& nic) {
       return m.query_constraint(nic, "true");
     }},
    {"lookup",
     [](hawkeye::Manager& m, net::Interface& nic) {
       return m.lookup_agent(nic, "lucky4.mcs.anl.gov", nullptr);
     }},
};

sim::Task<void> run_probe(ManagerProbe probe, hawkeye::Manager& m,
                          net::Interface& nic, hawkeye::HawkeyeReply* out) {
  *out = co_await probe.query(m, nic);
}

/// The failure_recovery example: a GIIS aggregating a local and a remote
/// GRIS loses the remote one to a WAN partition, ages it out on its
/// registration TTL, and re-learns it after the heal.
TEST(SoftStateRecoveryTest, GiisAgesOutPartitionedRegistrantAndRelearns) {
  core::Testbed tb;
  mds::GiisConfig config;
  config.registration_ttl = 90;
  config.cachettl = 30;
  mds::Giis giis(tb.network(), tb.host("lucky0"), tb.nic("lucky0"), "giis",
                 config);
  mds::Gris local(tb.network(), tb.host("lucky3"), tb.nic("lucky3"),
                  "lucky3.mcs.anl.gov", core::default_providers(3));
  mds::Gris remote(tb.network(), tb.host("uc01"), tb.nic("uc01"),
                   "grid.uchicago.edu", core::default_providers(3));
  giis.add_registrant(local);
  giis.add_registrant(remote);

  fault::Injector inj(tb.sim(), &tb.network());
  fault::FaultPlan plan;
  plan.partition("anl", "uc", 60, 400);
  inj.arm(plan);

  tb.sim().run(50);
  EXPECT_EQ(giis.live_registrant_count(), 2u);

  // The remote GRIS's beats stop crossing the WAN at t=60; its last
  // registration expires no later than 60 + ttl = 150.
  tb.sim().run(320);
  EXPECT_EQ(giis.live_registrant_count(), 1u);

  // Heal at t=400: the next beat (interval 30) re-establishes it.
  tb.sim().run(500);
  EXPECT_EQ(giis.live_registrant_count(), 2u);
  tb.sim().shutdown();
}

/// A crashed GRIS skips its registration beats; restart resumes them and
/// the GIIS entry revives without operator action.
TEST(SoftStateRecoveryTest, GiisRecoversCrashedGris) {
  core::Testbed tb;
  mds::GiisConfig config;
  config.registration_ttl = 90;
  config.cachettl = 30;
  mds::Giis giis(tb.network(), tb.host("lucky0"), tb.nic("lucky0"), "giis",
                 config);
  mds::Gris gris(tb.network(), tb.host("lucky3"), tb.nic("lucky3"),
                 "lucky3.mcs.anl.gov", core::default_providers(3));
  giis.add_registrant(gris);

  fault::Injector inj(tb.sim(), &tb.network());
  inj.add_service("server", gris);
  fault::FaultPlan plan;
  plan.crash("server", 60, 250);
  inj.arm(plan);

  tb.sim().run(50);
  EXPECT_EQ(giis.live_registrant_count(), 1u);
  EXPECT_TRUE(gris.process_up());

  tb.sim().run(100);
  EXPECT_FALSE(gris.process_up());

  // Last beat was at or before the crash: expires by 60 + 90 = 150.
  tb.sim().run(200);
  EXPECT_EQ(giis.live_registrant_count(), 0u);

  // Restart at 250; the next beat lands within one interval (30 s).
  tb.sim().run(320);
  EXPECT_TRUE(gris.process_up());
  EXPECT_EQ(giis.live_registrant_count(), 1u);
  tb.sim().shutdown();
}

/// R-GMA: producer leases lapse while their servlet is down and are swept;
/// the restarted servlet's renewals repopulate the Registry.
TEST(SoftStateRecoveryTest, RegistrysweepsAndRelearnsProducerLeases) {
  core::Testbed tb;
  rgma::Registry registry(tb.network(), tb.host("lucky0"), tb.nic("lucky0"));
  rgma::ProducerServlet ps(tb.network(), tb.host("lucky3"), tb.nic("lucky3"),
                           "ps-lucky3");
  for (int i = 0; i < 3; ++i) {
    ps.add_producer("producer" + std::to_string(i), "cpuload");
  }
  ps.start_registration(registry);
  registry.start_sweeper();

  fault::Injector inj(tb.sim(), &tb.network());
  inj.add_service("server", ps);
  fault::FaultPlan plan;
  plan.crash("server", 50, 260);
  inj.arm(plan);

  tb.sim().run(10);
  EXPECT_EQ(registry.registered_count(), 3u);

  // Leases (120 s) renewed last at or before t=50 expire by 170 and the
  // 30-second sweeper clears them shortly after.
  tb.sim().run(220);
  EXPECT_EQ(registry.registered_count(), 0u);

  // Restart at 260: the re-registration loop (45 s period) re-leases all
  // producers on its next pass.
  tb.sim().run(330);
  EXPECT_EQ(registry.registered_count(), 3u);
  tb.sim().shutdown();
}

/// R-GMA: the Registry's own producer table is volatile. A crash empties
/// it and the restarted Registry re-learns every producer from the next
/// lease renewals — no servlet-side involvement needed.
TEST(SoftStateRecoveryTest, RegistryCrashRelearnsFromRenewals) {
  core::Testbed tb;
  rgma::Registry registry(tb.network(), tb.host("lucky0"), tb.nic("lucky0"));
  rgma::ProducerServlet ps(tb.network(), tb.host("lucky3"), tb.nic("lucky3"),
                           "ps-lucky3");
  for (int i = 0; i < 3; ++i) {
    ps.add_producer("producer" + std::to_string(i), "cpuload");
  }
  ps.start_registration(registry);
  registry.start_sweeper();

  tb.sim().run(10);
  EXPECT_EQ(registry.registered_count(), 3u);

  registry.crash();
  EXPECT_EQ(registry.registered_count(), 0u);
  registry.restart();

  // One re-registration period (45 s) later everything is back.
  tb.sim().run(70);
  EXPECT_EQ(registry.registered_count(), 3u);
  tb.sim().shutdown();
}

/// Hawkeye: ads from a crashed agent expire out of the Manager at
/// ad_lifetime (flagged stale before that); the restarted agent's next
/// advertise beat re-populates the pool.
TEST(SoftStateRecoveryTest, ManagerExpiresCrashedAgentAds) {
  core::Testbed tb;
  auto& sim = tb.sim();
  hawkeye::ManagerConfig config;
  config.ad_lifetime = 90;
  config.stale_after = 35;
  hawkeye::Manager manager(tb.network(), tb.host("lucky3"), tb.nic("lucky3"),
                           config);
  hawkeye::Agent agent(tb.network(), tb.host("lucky4"), tb.nic("lucky4"),
                       "lucky4.mcs.anl.gov", hawkeye::scaled_modules(5));
  agent.start_advertising(manager);

  fault::Injector inj(sim, &tb.network());
  inj.add_service("agent", agent);
  fault::FaultPlan plan;
  plan.crash("agent", 40, 160);
  inj.arm(plan);

  // The last beat lands in [10, 40): probe while the resident ad is old
  // enough to flag replies stale (age > 35) but short of ad_lifetime (90),
  // again once it must have expired, and again after the restart beats.
  // Every query kind probes at each time.
  constexpr double kProbeAt[] = {85, 140, 205};
  hawkeye::HawkeyeReply replies[std::size(kManagerProbes)][3];
  for (std::size_t k = 0; k < std::size(kManagerProbes); ++k) {
    for (std::size_t t = 0; t < 3; ++t) {
      sim.schedule(kProbeAt[t], [&, k, t] {
        sim.spawn(run_probe(kManagerProbes[k], manager, tb.nic("lucky5"),
                            &replies[k][t]));
      });
    }
  }

  sim.run(38);
  EXPECT_GE(manager.machine_count(), 1u);
  sim.run(240);

  for (std::size_t k = 0; k < std::size(kManagerProbes); ++k) {
    SCOPED_TRACE(kManagerProbes[k].kind);
    const auto& [stale_reply, expired_reply, recovered_reply] = replies[k];
    EXPECT_TRUE(stale_reply.admitted);
    EXPECT_GE(stale_reply.machines, 1u);
    EXPECT_TRUE(stale_reply.stale);

    EXPECT_TRUE(expired_reply.admitted);
    EXPECT_EQ(expired_reply.machines, 0u);

    EXPECT_TRUE(recovered_reply.admitted);
    EXPECT_GE(recovered_reply.machines, 1u);
    EXPECT_FALSE(recovered_reply.stale);
  }
  tb.sim().shutdown();
}

/// Hawkeye: the Manager's resident ad database is volatile across its own
/// crash, and the agents' steady beats rebuild it after restart.
TEST(SoftStateRecoveryTest, ManagerCrashRelearnsPoolFromBeats) {
  core::Testbed tb;
  hawkeye::Manager manager(tb.network(), tb.host("lucky3"), tb.nic("lucky3"));
  hawkeye::Agent agent(tb.network(), tb.host("lucky4"), tb.nic("lucky4"),
                       "lucky4.mcs.anl.gov", hawkeye::scaled_modules(5));
  agent.start_advertising(manager);

  tb.sim().run(35);
  EXPECT_GE(manager.machine_count(), 1u);

  manager.crash();
  EXPECT_EQ(manager.machine_count(), 0u);
  manager.restart();

  tb.sim().run(70);
  EXPECT_GE(manager.machine_count(), 1u);
  tb.sim().shutdown();
}

}  // namespace
}  // namespace gridmon
