#include "gridmon/net/server_port.hpp"

#include <gtest/gtest.h>

#include "gridmon/sim/simulation.hpp"
#include "gridmon/sim/task.hpp"

namespace gridmon::net {
namespace {

TEST(ServerPortTest, AdmitsUpToBacklog) {
  sim::Simulation s;
  ServerPort port(s, 3);
  EXPECT_TRUE(port.try_admit());
  EXPECT_TRUE(port.try_admit());
  EXPECT_TRUE(port.try_admit());
  EXPECT_FALSE(port.try_admit());
  EXPECT_EQ(port.in_flight(), 3);
  EXPECT_EQ(port.total_admitted(), 3u);
  EXPECT_EQ(port.total_refused(), 1u);
}

TEST(ServerPortTest, ReleaseReopensSlot) {
  sim::Simulation s;
  ServerPort port(s, 1);
  EXPECT_TRUE(port.try_admit());
  EXPECT_FALSE(port.try_admit());
  port.release();
  EXPECT_TRUE(port.try_admit());
  EXPECT_EQ(port.total_refused(), 1u);
}

TEST(ServerPortTest, SlotReleasesOnScopeExit) {
  sim::Simulation s;
  ServerPort port(s, 1);
  {
    ASSERT_TRUE(port.try_admit());
    AdmissionSlot slot(&port);
    EXPECT_EQ(port.in_flight(), 1);
  }
  EXPECT_EQ(port.in_flight(), 0);
}

TEST(ServerPortTest, MovedSlotReleasesOnce) {
  sim::Simulation s;
  ServerPort port(s, 2);
  ASSERT_TRUE(port.try_admit());
  AdmissionSlot a(&port);
  AdmissionSlot b = std::move(a);
  a.release();  // no-op: ownership moved
  EXPECT_EQ(port.in_flight(), 1);
  b.release();
  EXPECT_EQ(port.in_flight(), 0);
  b.release();  // idempotent
  EXPECT_EQ(port.in_flight(), 0);
}

TEST(ServerPortTest, DefaultSlotHoldsNothing) {
  AdmissionSlot slot;
  slot.release();  // harmless
}

TEST(ServerPortTest, CrashRefusesUntilRestart) {
  sim::Simulation s;
  ServerPort port(s, 4);
  port.crash();
  EXPECT_FALSE(port.up());
  EXPECT_EQ(port.state(), PortState::Refusing);
  EXPECT_FALSE(port.try_admit());
  EXPECT_EQ(port.total_refused(), 1u);
  port.restart();
  EXPECT_TRUE(port.up());
  EXPECT_TRUE(port.try_admit());
}

TEST(ServerPortTest, AdmitSynchronousWhenUp) {
  sim::Simulation s;
  ServerPort port(s, 1);
  Admission first = Admission::TimedOut;
  Admission second = Admission::TimedOut;
  s.spawn([](ServerPort& p, Admission& a, Admission& b) -> sim::Task<void> {
    a = co_await p.admit(10.0);
    b = co_await p.admit(10.0);
  }(port, first, second));
  s.run(0.0);  // no time must pass: admit() completes synchronously
  EXPECT_EQ(first, Admission::Ok);
  EXPECT_EQ(second, Admission::Refused);
}

TEST(ServerPortTest, BlackholeTimesOutThenRecovers) {
  sim::Simulation s;
  ServerPort port(s, 4);
  port.crash(/*blackhole=*/true);
  EXPECT_EQ(port.state(), PortState::Blackhole);

  Admission hung = Admission::Ok;
  double hung_at = -1;
  s.spawn([](sim::Simulation& sim, ServerPort& p, Admission& out,
             double& when) -> sim::Task<void> {
    out = co_await p.admit(5.0);
    when = sim.now();
  }(s, port, hung, hung_at));

  Admission waited = Admission::Refused;
  s.spawn([](sim::Simulation& sim, ServerPort& p,
             Admission& out) -> sim::Task<void> {
    co_await sim.delay(1.0);
    out = co_await p.admit(30.0);  // restart at t=10 beats this deadline
  }(s, port, waited));

  s.schedule(10.0, [&] { port.restart(); });
  s.run(60.0);
  EXPECT_EQ(hung, Admission::TimedOut);
  EXPECT_DOUBLE_EQ(hung_at, 5.0);
  EXPECT_EQ(waited, Admission::Ok);
}

TEST(ServerPortTest, BlackholeWithoutTimeoutWaitsForRestart) {
  sim::Simulation s;
  ServerPort port(s, 4);
  port.crash(/*blackhole=*/true);
  Admission got = Admission::TimedOut;
  double at = -1;
  s.spawn([](sim::Simulation& sim, ServerPort& p, Admission& out,
             double& when) -> sim::Task<void> {
    out = co_await p.admit();
    when = sim.now();
  }(s, port, got, at));
  s.schedule(3.0, [&] { port.crash(/*blackhole=*/true); });  // still down
  s.schedule(7.0, [&] { port.restart(); });
  s.run();
  EXPECT_EQ(got, Admission::Ok);
  EXPECT_DOUBLE_EQ(at, 7.0);
  EXPECT_EQ(port.in_flight(), 1);
}

// Attempts parked on a blackhole (timed and untimed) and in the policy
// queue die with their frames at shutdown, and the ports then die with
// those entries unwoken (run under ASan in CI).
TEST(ServerPortTest, ShutdownWithAdmitsParked) {
  sim::Simulation s;
  ServerPort blackholed(s, 4);
  ServerPort full(s, 1);
  resilience::ServerPolicy policy;
  policy.enabled = true;
  policy.queue_limit = 8;
  full.set_policy(policy);
  ASSERT_TRUE(full.try_admit());
  blackholed.crash(/*blackhole=*/true);
  auto attempt = [](ServerPort& p, double timeout) -> sim::Task<void> {
    (void)co_await p.admit(timeout);
  };
  s.spawn(attempt(blackholed, -1));
  s.spawn(attempt(blackholed, 50.0));
  s.spawn(attempt(full, -1));
  s.run(1.0);
  EXPECT_EQ(full.queued(), 1u);
  s.shutdown();
  EXPECT_EQ(s.run(), 0u);
}

static_assert(sizeof(void*) != 8 || sizeof(ServerPort::Admit) <= 48);

}  // namespace
}  // namespace gridmon::net
