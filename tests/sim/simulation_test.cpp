#include "gridmon/sim/simulation.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "gridmon/sim/task.hpp"

namespace gridmon::sim {
namespace {

TEST(SimulationTest, ClockStartsAtZero) {
  Simulation sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(SimulationTest, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(SimulationTest, TiesFireInInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulationTest, RunUntilStopsAtBoundary) {
  Simulation sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(5.0, [&] { ++fired; });
  sim.run(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, DelayAdvancesClock) {
  Simulation sim;
  double woke_at = -1;
  auto proc = [](Simulation& s, double* out) -> Task<void> {
    co_await s.delay(2.5);
    *out = s.now();
  };
  sim.spawn(proc(sim, &woke_at));
  sim.run();
  EXPECT_DOUBLE_EQ(woke_at, 2.5);
}

TEST(SimulationTest, SequentialDelaysAccumulate) {
  Simulation sim;
  std::vector<double> times;
  auto proc = [](Simulation& s, std::vector<double>* out) -> Task<void> {
    for (int i = 0; i < 4; ++i) {
      co_await s.delay(1.0);
      out->push_back(s.now());
    }
  };
  sim.spawn(proc(sim, &times));
  sim.run();
  ASSERT_EQ(times.size(), 4u);
  EXPECT_DOUBLE_EQ(times[3], 4.0);
}

TEST(SimulationTest, ZeroOrNegativeDelayIsImmediate) {
  Simulation sim;
  bool done = false;
  auto proc = [](Simulation& s, bool* out) -> Task<void> {
    co_await s.delay(0.0);
    co_await s.delay(-1.0);
    *out = true;
  };
  sim.spawn(proc(sim, &done));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(SimulationTest, SpawnedTasksArePruned) {
  Simulation sim;
  auto proc = [](Simulation& s) -> Task<void> { co_await s.delay(1.0); };
  for (int i = 0; i < 10; ++i) sim.spawn(proc(sim));
  sim.run();
  EXPECT_EQ(sim.live_task_count(), 0u);
}

// The in-loop sweep is skipped while no detached task has finished, so
// it must still run once one has. A ticker keeps the queue busy past the
// prune interval, so only the amortized sweep (not the end-of-run one)
// can reclaim the ten short tasks; both drivers must do it.
TEST(SimulationTest, FinishedTasksArePrunedMidRun) {
  auto ticker = [](Simulation& s) -> Task<void> {
    for (int i = 0; i < 5000; ++i) co_await s.delay(0.001);
  };
  auto brief = [](Simulation& s) -> Task<void> { co_await s.delay(0.01); };
  for (bool by_count : {false, true}) {
    Simulation sim;
    sim.spawn(ticker(sim));
    for (int i = 0; i < 10; ++i) sim.spawn(brief(sim));
    if (by_count) {
      sim.run_events(3000);
    } else {
      sim.run(3.0);
    }
    EXPECT_EQ(sim.live_task_count(), 1u) << (by_count ? "run_events" : "run");
    sim.run();
    EXPECT_EQ(sim.live_task_count(), 0u);
  }
}

TEST(SimulationTest, ShutdownDestroysSuspendedTasks) {
  Simulation sim;
  int destroyed = 0;
  struct Guard {
    int* counter;
    ~Guard() { ++*counter; }
  };
  auto proc = [](Simulation& s, int* counter) -> Task<void> {
    Guard g{counter};
    co_await s.delay(1e9);  // parked "forever"
  };
  sim.spawn(proc(sim, &destroyed));
  sim.run(1.0);
  EXPECT_EQ(destroyed, 0);
  sim.shutdown();
  EXPECT_EQ(destroyed, 1);
}

TEST(SimulationTest, ManyEventsThroughput) {
  Simulation sim;
  int count = 0;
  for (int i = 0; i < 100000; ++i) {
    sim.schedule(static_cast<double>(i) * 1e-3, [&] { ++count; });
  }
  std::size_t executed = sim.run();
  EXPECT_EQ(executed, 100000u);
  EXPECT_EQ(count, 100000);
}

}  // namespace
}  // namespace gridmon::sim
