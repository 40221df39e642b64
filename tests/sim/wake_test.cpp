/// sim::Wake: frame-free Steps share every wake-up path with coroutines —
/// the event queue, processor-sharing completions and Event waiters.

#include "gridmon/sim/wake.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "gridmon/sim/event.hpp"
#include "gridmon/sim/ps_server.hpp"
#include "gridmon/sim/simulation.hpp"
#include "gridmon/sim/task.hpp"

namespace gridmon::sim {
namespace {

/// A Step that logs "<name>@<time>" each time it is woken.
struct Probe : Step {
  Simulation* sim;
  std::vector<std::string>* log;
  std::string name;
  Probe(Simulation& s, std::vector<std::string>& l, std::string n)
      : Step{&Probe::fire}, sim(&s), log(&l), name(std::move(n)) {}
  static void fire(Step* step) {
    auto* self = static_cast<Probe*>(step);
    self->log->push_back(self->name + "@" + std::to_string(self->sim->now()));
  }
};

Task<void> sleeper(Simulation& sim, double t, std::vector<std::string>* log,
                   std::string name) {
  co_await sim.delay(t);
  log->push_back(name + "@" + std::to_string(sim.now()));
}

TEST(WakeTest, TagsStepsAndHandlesApart) {
  Simulation sim;
  std::vector<std::string> log;
  Probe p(sim, log, "step");
  Wake w(&p);
  EXPECT_EQ(w.bits() & Wake::kStepTag, Wake::kStepTag);
  EXPECT_EQ(w.bits() & Wake::kFreeBit, 0u);
  w();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "step@0.000000");
  EXPECT_FALSE(Wake());
}

// Steps, coroutine resumptions and callbacks at one timestamp fire in
// scheduling order: one sequence counter orders all three kinds.
TEST(WakeTest, StepsShareTheEventOrder) {
  Simulation sim;
  std::vector<std::string> log;
  Probe a(sim, log, "a"), b(sim, log, "b");
  sim.schedule_resume(1.0, &a);
  sim.spawn(sleeper(sim, 1.0, &log, "task"));  // its delay is pushed later
  sim.schedule(1.0, [&] { log.push_back("cb@1"); });
  sim.schedule_resume(0.5, &b);
  sim.schedule_resume(1.0, &b);
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"b@0.500000", "a@1.000000",
                                           "cb@1", "b@1.000000",
                                           "task@1.000000"}));
}

// consume_then serves a Step exactly like consume() serves a coroutine:
// same shares, same completion times, FIFO among simultaneous finishes.
TEST(WakeTest, PsServerRunsStepsAtCompletion) {
  Simulation sim;
  PsServer link(sim, 10.0, 1);
  std::vector<std::string> log;
  Probe first(sim, log, "first"), second(sim, log, "second");
  link.consume_then(10.0, &first);
  auto job = [](Simulation& s, PsServer& ps,
                std::vector<std::string>* out) -> Task<void> {
    co_await ps.consume(10.0);
    out->push_back("task@" + std::to_string(s.now()));
  };
  sim.spawn(job(sim, link, &log));
  sim.schedule(0.5, [&] { link.consume_then(2.5, &second); });
  sim.run();
  // Two jobs share 10/s; the third arrives at 0.5 with 2.5 units.
  EXPECT_EQ(log, (std::vector<std::string>{"second@1.250000",
                                           "first@2.250000",
                                           "task@2.250000"}));
}

TEST(WakeTest, EventParkWakesStepsThroughTheQueue) {
  Simulation sim;
  Event ev(sim);
  std::vector<std::string> log;
  Probe p(sim, log, "parked");
  ev.park(&p);
  sim.schedule(2.0, [&] {
    ev.trigger();
    log.push_back("triggered");  // the wake-up is queued, not inline
  });
  sim.run();
  EXPECT_EQ(log,
            (std::vector<std::string>{"triggered", "parked@2.000000"}));
}

TEST(WakeTest, ParkForReportsWhichSideWon) {
  Simulation sim;
  Event ev(sim);
  std::vector<std::string> log;
  Probe early(sim, log, "early"), late(sim, log, "late");
  bool early_by_event = false, late_by_event = false;
  ev.park_for(&early, 5.0, &early_by_event);  // event at 3 wins
  sim.schedule(3.0, [&] { ev.trigger(); });
  sim.run();
  ev.reset();
  // The first run ended at the early wait's dead deadline, t = 5.
  ev.park_for(&late, 1.0, &late_by_event);  // deadline at 6 wins
  sim.schedule(2.0, [&] { ev.trigger(); });  // finds it done: no re-wake
  sim.run();
  EXPECT_TRUE(early_by_event);
  EXPECT_FALSE(late_by_event);
  EXPECT_EQ(log,
            (std::vector<std::string>{"early@3.000000", "late@6.000000"}));
}

}  // namespace
}  // namespace gridmon::sim
