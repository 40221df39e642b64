#include "gridmon/sim/ps_server.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gridmon/sim/simulation.hpp"
#include "gridmon/sim/task.hpp"

namespace gridmon::sim {
namespace {

Task<void> job(Simulation& sim, PsServer& ps, double start, double work,
               std::vector<double>* finish_times) {
  co_await sim.delay(start);
  co_await ps.consume(work);
  finish_times->push_back(sim.now());
}

TEST(PsServerTest, SingleJobRunsAtFullSingleRate) {
  Simulation sim;
  // CPU with 2 cores: total rate 2, one job gets rate 1.
  PsServer cpu(sim, 2.0, 2);
  std::vector<double> done;
  sim.spawn(job(sim, cpu, 0, 3.0, &done));
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 3.0, 1e-9);
}

TEST(PsServerTest, JobsWithinParallelismDoNotInterfere) {
  Simulation sim;
  PsServer cpu(sim, 2.0, 2);
  std::vector<double> done;
  sim.spawn(job(sim, cpu, 0, 3.0, &done));
  sim.spawn(job(sim, cpu, 0, 5.0, &done));
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 3.0, 1e-9);
  EXPECT_NEAR(done[1], 5.0, 1e-9);
}

TEST(PsServerTest, OverloadSharesEqually) {
  Simulation sim;
  // One core, two equal jobs arriving together: each runs at rate 1/2, so
  // both finish at 2s for 1s of work.
  PsServer cpu(sim, 1.0, 1);
  std::vector<double> done;
  sim.spawn(job(sim, cpu, 0, 1.0, &done));
  sim.spawn(job(sim, cpu, 0, 1.0, &done));
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 1e-9);
  EXPECT_NEAR(done[1], 2.0, 1e-9);
}

TEST(PsServerTest, LateArrivalSlowsExistingJob) {
  Simulation sim;
  PsServer cpu(sim, 1.0, 1);
  std::vector<double> done;
  // Job A: 2s of work. Job B arrives at t=1 with 0.5s of work.
  // t in [0,1): A alone, does 1s of its work.
  // t in [1, 2): both share; B finishes its 0.5 at t=2; A does 0.5 more.
  // t in [2, 2.5): A alone, finishes remaining 0.5 at t=2.5.
  sim.spawn(job(sim, cpu, 0.0, 2.0, &done));
  sim.spawn(job(sim, cpu, 1.0, 0.5, &done));
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 1e-9);
  EXPECT_NEAR(done[1], 2.5, 1e-9);
}

TEST(PsServerTest, PerJobCapLimitsLoneFlow) {
  Simulation sim;
  // 100 units/s link, but each flow capped at 10 units/s.
  PsServer link(sim, 100.0, 1, 10.0);
  std::vector<double> done;
  sim.spawn(job(sim, link, 0, 50.0, &done));
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 5.0, 1e-9);
}

TEST(PsServerTest, ManyFlowsShareLinkFairly) {
  Simulation sim;
  PsServer link(sim, 10.0, 1);
  std::vector<double> done;
  for (int i = 0; i < 10; ++i) sim.spawn(job(sim, link, 0, 10.0, &done));
  sim.run();
  ASSERT_EQ(done.size(), 10u);
  // 10 flows x 10 units over a 10-unit/s link: all complete at t=10.
  for (double t : done) EXPECT_NEAR(t, 10.0, 1e-6);
}

TEST(PsServerTest, ZeroWorkCompletesImmediately) {
  Simulation sim;
  PsServer cpu(sim, 1.0, 1);
  std::vector<double> done;
  sim.spawn(job(sim, cpu, 0, 0.0, &done));
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 0.0, 1e-12);
}

TEST(PsServerTest, ServedTotalMatchesDeliveredWork) {
  Simulation sim;
  PsServer cpu(sim, 2.0, 2);
  std::vector<double> done;
  sim.spawn(job(sim, cpu, 0, 3.0, &done));
  sim.spawn(job(sim, cpu, 1, 4.0, &done));
  sim.run();
  EXPECT_NEAR(cpu.served_total(), 7.0, 1e-9);
}

TEST(PsServerTest, ActiveJobsReflectsPopulation) {
  Simulation sim;
  PsServer cpu(sim, 1.0, 1);
  std::vector<double> done;
  for (int i = 0; i < 4; ++i) sim.spawn(job(sim, cpu, 0, 8.0, &done));
  sim.run(1.0);
  EXPECT_EQ(cpu.active_jobs(), 4);
  sim.run();
  EXPECT_EQ(cpu.active_jobs(), 0);
}

TEST(PsServerTest, StaggeredArrivalsExactSchedule) {
  Simulation sim;
  // 1 core. J1 (3s) at t=0, J2 (3s) at t=0, J3 (2s) at t=3.
  // [0,3): two jobs at rate .5 -> each has 1.5 remaining at t=3.
  // [3,?): three jobs at rate 1/3.
  //   J3 needs 2 -> would end at t=9; J1/J2 need 1.5 -> end at t=7.5.
  // [7.5]: J1, J2 done (J3 has 2 - 4.5/3 = .5 left).
  // After 7.5: J3 alone at rate 1, finishes at t=8.
  PsServer cpu(sim, 1.0, 1);
  std::vector<double> done;
  sim.spawn(job(sim, cpu, 0, 3.0, &done));
  sim.spawn(job(sim, cpu, 0, 3.0, &done));
  sim.spawn(job(sim, cpu, 3.0, 2.0, &done));
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_NEAR(done[0], 7.5, 1e-9);
  EXPECT_NEAR(done[1], 7.5, 1e-9);
  EXPECT_NEAR(done[2], 8.0, 1e-9);
}

TEST(PsServerTest, HighConcurrencyConserved) {
  Simulation sim;
  PsServer cpu(sim, 4.0, 4);
  std::vector<double> done;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    sim.spawn(job(sim, cpu, 0.01 * i, 0.5, &done));
  }
  sim.run();
  ASSERT_EQ(done.size(), static_cast<std::size_t>(n));
  EXPECT_NEAR(cpu.served_total(), n * 0.5, 1e-6);
}

// A server torn down with a completion still pending (a host removed
// mid-run) must take that wake-up with it: running the simulation
// afterwards fires nothing and never touches the freed server. Covers
// both the exact mode and the virtual-time mode.
TEST(PsServerTest, DestroyedServerLeavesNoPendingWakeup) {
  for (std::size_t jobs : {std::size_t{1}, PsServer::kVirtualThreshold}) {
    Simulation sim;
    auto cpu = std::make_unique<PsServer>(sim, 1.0, 1);
    std::vector<double> done;
    for (std::size_t i = 0; i < jobs; ++i) {
      sim.spawn(job(sim, *cpu, 0, 5.0, &done));
    }
    sim.run(1.0);
    ASSERT_EQ(cpu->active_jobs(), static_cast<int>(jobs));
    ASSERT_EQ(cpu->virtual_mode(), jobs >= PsServer::kVirtualThreshold);
    cpu.reset();
    EXPECT_EQ(sim.run(), 0u) << jobs << " jobs";
    EXPECT_TRUE(done.empty());
  }
}

}  // namespace
}  // namespace gridmon::sim
