/// Unit + scenario tests for the overload-resilience subsystem: backoff
/// policy, retry budget, circuit-breaker state machine, ServerPort queue
/// disciplines (FIFO/LIFO/deadline-EDF) with deadline shedding, the
/// open-arrival retry schedules, seed-determinism with resilience on,
/// the metastable-failure regression (an outage-then-heal storm
/// converges with budgets and breakers, and stays degraded without), and
/// a half-open probe lost to the query deadline re-opening the breaker.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gridmon/core/frontier.hpp"
#include "gridmon/core/testbed.hpp"
#include "gridmon/core/workload.hpp"
#include "gridmon/net/server_port.hpp"
#include "gridmon/resilience/backoff.hpp"
#include "gridmon/resilience/circuit_breaker.hpp"
#include "gridmon/resilience/policy.hpp"
#include "gridmon/resilience/retry_budget.hpp"
#include "gridmon/sim/rng.hpp"
#include "gridmon/sim/simulation.hpp"

namespace gridmon {
namespace {

using resilience::BackoffPolicy;
using resilience::CircuitBreaker;
using resilience::CircuitBreakerConfig;
using resilience::QueueDiscipline;
using resilience::RetryBudget;
using resilience::RetryBudgetConfig;

// ---------------------------------------------------------------- backoff

TEST(BackoffPolicy, ScheduleModeReusesLastEntryPastTheEnd) {
  BackoffPolicy p;
  p.schedule = {3, 6, 12};
  EXPECT_DOUBLE_EQ(p.raw_delay(0), 3);
  EXPECT_DOUBLE_EQ(p.raw_delay(1), 6);
  EXPECT_DOUBLE_EQ(p.raw_delay(2), 12);
  EXPECT_DOUBLE_EQ(p.raw_delay(3), 12);
  EXPECT_DOUBLE_EQ(p.raw_delay(100), 12);
}

TEST(BackoffPolicy, ExponentialModeGrowsAndCaps) {
  BackoffPolicy p;  // empty schedule -> exponential
  p.base = 2.0;
  p.growth = 2.0;
  p.cap = 30.0;
  EXPECT_DOUBLE_EQ(p.raw_delay(0), 2);
  EXPECT_DOUBLE_EQ(p.raw_delay(1), 4);
  EXPECT_DOUBLE_EQ(p.raw_delay(2), 8);
  EXPECT_DOUBLE_EQ(p.raw_delay(3), 16);
  EXPECT_DOUBLE_EQ(p.raw_delay(4), 30);   // capped
  EXPECT_DOUBLE_EQ(p.raw_delay(50), 30);  // stays capped, no overflow
}

TEST(BackoffPolicy, GrowthOneReproducesConstantLegacyFallback) {
  BackoffPolicy p;
  p.base = 1.0;
  p.growth = 1.0;
  EXPECT_DOUBLE_EQ(p.raw_delay(0), 1);
  EXPECT_DOUBLE_EQ(p.raw_delay(7), 1);
}

TEST(BackoffPolicy, DelayConsumesExactlyOneDrawEvenAtZeroJitter) {
  // The determinism contract: a jittered delay and the legacy inline
  // arithmetic leave the RNG stream in the same position.
  BackoffPolicy p;
  p.schedule = {3, 6, 12};
  p.jitter = 0;
  sim::Rng a(1234), b(1234);
  double d = p.delay(0, a);
  EXPECT_DOUBLE_EQ(d, 3.0 * b.uniform(1.0, 1.0));
  EXPECT_EQ(a.next_u64(), b.next_u64());  // streams still aligned
}

TEST(BackoffPolicy, JitterBoundsTheDelayMultiplicatively) {
  BackoffPolicy p;
  p.schedule = {10};
  p.jitter = 0.02;
  sim::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    double d = p.delay(0, rng);
    EXPECT_GE(d, 10.0 * 0.98);
    EXPECT_LE(d, 10.0 * 1.02);
  }
}

// ------------------------------------------------------------ retry budget

TEST(RetryBudget, StartsFullAndExhausts) {
  RetryBudgetConfig cfg;
  cfg.capacity = 3.0;
  cfg.fill_ratio = 0.1;
  RetryBudget b(cfg);
  EXPECT_DOUBLE_EQ(b.tokens(), 3.0);
  EXPECT_TRUE(b.try_withdraw());
  EXPECT_TRUE(b.try_withdraw());
  EXPECT_TRUE(b.try_withdraw());
  EXPECT_FALSE(b.try_withdraw());  // drained
  EXPECT_EQ(b.withdrawals(), 3u);
  EXPECT_EQ(b.suppressed(), 1u);
}

TEST(RetryBudget, DepositsAreCappedAtCapacity) {
  RetryBudgetConfig cfg;
  cfg.capacity = 1.0;
  cfg.fill_ratio = 0.4;
  RetryBudget b(cfg);
  for (int i = 0; i < 100; ++i) b.deposit();
  EXPECT_DOUBLE_EQ(b.tokens(), 1.0);
}

TEST(RetryBudget, FillRatioBoundsRetryAmplification) {
  // Four fresh requests at fill_ratio 0.25 fund exactly one retry: in
  // steady state retries are ~25% of offered load, never a storm.
  // (0.25 is binary-exact, so "exactly one token" really is exact.)
  RetryBudgetConfig cfg;
  cfg.capacity = 10.0;
  cfg.fill_ratio = 0.25;
  RetryBudget b(cfg);
  while (b.try_withdraw()) {
  }  // drain the initial bank
  ASSERT_EQ(b.withdrawals(), 10u);
  for (int i = 0; i < 4; ++i) b.deposit();
  EXPECT_TRUE(b.try_withdraw());
  EXPECT_FALSE(b.try_withdraw());
}

// ---------------------------------------------------------- circuit breaker

CircuitBreakerConfig small_breaker() {
  CircuitBreakerConfig cfg;
  cfg.window = 8;
  cfg.min_samples = 4;
  cfg.failure_threshold = 0.5;
  cfg.open_duration = 10.0;
  cfg.half_open_probes = 1;
  return cfg;
}

TEST(CircuitBreaker, StaysClosedBelowMinSamples) {
  CircuitBreaker cb(small_breaker());
  for (int i = 0; i < 3; ++i) cb.record(0.0, false);
  EXPECT_EQ(cb.state(0.0), CircuitBreaker::State::Closed);
  EXPECT_TRUE(cb.allow(0.0));
  EXPECT_EQ(cb.trips(), 0u);
}

TEST(CircuitBreaker, TripsAtFailureThresholdAndFastFails) {
  CircuitBreaker cb(small_breaker());
  for (int i = 0; i < 4; ++i) cb.record(1.0, false);
  EXPECT_EQ(cb.state(1.0), CircuitBreaker::State::Open);
  EXPECT_EQ(cb.trips(), 1u);
  EXPECT_FALSE(cb.allow(1.0));
  EXPECT_FALSE(cb.allow(5.0));
  EXPECT_EQ(cb.fast_fails(), 2u);
}

TEST(CircuitBreaker, MixedOutcomesBelowThresholdDoNotTrip) {
  CircuitBreaker cb(small_breaker());
  // One failure in four — and no prefix of the stream ever reaches the
  // 50% trip fraction either (2/5 is the worst case).
  for (int i = 0; i < 20; ++i) cb.record(0.0, i % 4 != 0);
  EXPECT_EQ(cb.state(0.0), CircuitBreaker::State::Closed);
  EXPECT_EQ(cb.trips(), 0u);
}

TEST(CircuitBreaker, HalfOpenGrantsOnlyTheProbeSlot) {
  CircuitBreaker cb(small_breaker());
  for (int i = 0; i < 4; ++i) cb.record(0.0, false);  // trip at t=0
  EXPECT_EQ(cb.state(9.9), CircuitBreaker::State::Open);
  EXPECT_EQ(cb.state(10.0), CircuitBreaker::State::HalfOpen);
  EXPECT_TRUE(cb.allow(10.0));    // the probe
  EXPECT_FALSE(cb.allow(10.0));   // everyone else keeps fast-failing
  EXPECT_FALSE(cb.allow(11.0));
}

TEST(CircuitBreaker, ProbeSuccessClosesAndClearsTheWindow) {
  CircuitBreaker cb(small_breaker());
  for (int i = 0; i < 4; ++i) cb.record(0.0, false);
  ASSERT_TRUE(cb.allow(10.0));
  cb.record(10.5, true);
  EXPECT_EQ(cb.state(10.5), CircuitBreaker::State::Closed);
  // The window was cleared: three fresh failures are below min_samples.
  for (int i = 0; i < 3; ++i) cb.record(11.0, false);
  EXPECT_EQ(cb.state(11.0), CircuitBreaker::State::Closed);
}

TEST(CircuitBreaker, ProbeFailureReopensAndRestartsTheTimer) {
  CircuitBreaker cb(small_breaker());
  for (int i = 0; i < 4; ++i) cb.record(0.0, false);  // open at t=0
  ASSERT_TRUE(cb.allow(10.0));                        // probe at t=10
  cb.record(10.0, false);                             // probe fails
  EXPECT_EQ(cb.trips(), 2u);
  EXPECT_EQ(cb.state(19.9), CircuitBreaker::State::Open);  // timer restarted
  EXPECT_EQ(cb.state(20.0), CircuitBreaker::State::HalfOpen);
}

TEST(CircuitBreaker, StaleOutcomeAfterTripIsIgnored) {
  CircuitBreaker cb(small_breaker());
  for (int i = 0; i < 4; ++i) cb.record(0.0, false);
  cb.record(1.0, true);  // a response from before the trip arrives late
  EXPECT_EQ(cb.state(1.0), CircuitBreaker::State::Open);
}

// ------------------------------------------- ServerPort queue disciplines

/// Parks an admit() with the given absolute deadline, logs (id, outcome)
/// on resume, and — on success — releases the slot so the hand-off chain
/// continues deterministically.
sim::Task<void> park(net::ServerPort& port, double deadline, int id,
                     std::vector<std::pair<int, net::Admission>>& log) {
  net::Admission a = co_await port.admit(-1, deadline);
  log.emplace_back(id, a);
  if (a == net::Admission::Ok) port.release();
}

void install_policy(net::ServerPort& port, QueueDiscipline d,
                    double deadline_budget = 0) {
  resilience::ServerPolicy pol;
  pol.enabled = true;
  pol.discipline = d;
  pol.deadline_budget = deadline_budget;
  port.set_policy(pol);
}

std::vector<int> handoff_order(QueueDiscipline d,
                               const std::vector<double>& deadlines) {
  sim::Simulation s;
  resilience::ServerPolicy pol;
  pol.enabled = true;
  pol.discipline = d;
  net::ServerPort port(s, 1);
  port.set_policy(pol);
  EXPECT_TRUE(port.try_admit());  // occupy the only slot
  std::vector<std::pair<int, net::Admission>> log;
  for (std::size_t i = 0; i < deadlines.size(); ++i) {
    s.spawn(park(port, deadlines[i], static_cast<int>(i + 1), log));
  }
  s.schedule(1.0, [&] { port.release(); });  // start the hand-off chain
  s.run(5.0);
  std::vector<int> order;
  for (const auto& [id, a] : log) {
    EXPECT_EQ(a, net::Admission::Ok);
    order.push_back(id);
  }
  return order;
}

TEST(ServerPortDiscipline, FifoHandsSlotsInArrivalOrder) {
  EXPECT_EQ(handoff_order(QueueDiscipline::Fifo, {-1, -1, -1}),
            (std::vector<int>{1, 2, 3}));
}

TEST(ServerPortDiscipline, LifoHandsSlotsNewestFirst) {
  EXPECT_EQ(handoff_order(QueueDiscipline::Lifo, {-1, -1, -1}),
            (std::vector<int>{3, 2, 1}));
}

TEST(ServerPortDiscipline, EdfHandsSlotsByEarliestDeadline) {
  // Arrival order 1,2,3 with deadlines 30,10,20: EDF serves 2,3,1.
  EXPECT_EQ(handoff_order(QueueDiscipline::DeadlineEdf, {30, 10, 20}),
            (std::vector<int>{2, 3, 1}));
}

TEST(ServerPortDiscipline, EdfBreaksDeadlineTiesByArrival) {
  EXPECT_EQ(handoff_order(QueueDiscipline::DeadlineEdf, {10, 10, 10}),
            (std::vector<int>{1, 2, 3}));
}

TEST(ServerPortDiscipline, ExpiredWaitersAreShedAtHandoffTime) {
  sim::Simulation s;
  net::ServerPort port(s, 1);
  install_policy(port, QueueDiscipline::DeadlineEdf);
  ASSERT_TRUE(port.try_admit());
  std::vector<std::pair<int, net::Admission>> log;
  s.spawn(park(port, 5.0, 1, log));   // will expire before the release
  s.spawn(park(port, 50.0, 2, log));  // still live
  s.schedule(10.0, [&] { port.release(); });
  s.run(20.0);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], (std::pair{1, net::Admission::Shed}));
  EXPECT_EQ(log[1], (std::pair{2, net::Admission::Ok}));
  EXPECT_EQ(port.total_shed(), 1u);
}

TEST(ServerPortDiscipline, DeadlineBudgetDerivesAbsoluteDeadlines) {
  // No explicit deadline: the policy's budget (5 s of queue wait) applies,
  // so a release at t=10 sheds a waiter parked at t=0.
  sim::Simulation s;
  net::ServerPort port(s, 1);
  install_policy(port, QueueDiscipline::Fifo, /*deadline_budget=*/5.0);
  ASSERT_TRUE(port.try_admit());
  std::vector<std::pair<int, net::Admission>> log;
  s.spawn(park(port, -1, 1, log));
  s.schedule(10.0, [&] { port.release(); });
  s.run(20.0);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], (std::pair{1, net::Admission::Shed}));
}

TEST(ServerPortDiscipline, QueueLimitBoundsParkedWaiters) {
  sim::Simulation s;
  resilience::ServerPolicy pol;
  pol.enabled = true;
  pol.queue_limit = 2;
  net::ServerPort port(s, 1);
  port.set_policy(pol);
  ASSERT_TRUE(port.try_admit());
  std::vector<std::pair<int, net::Admission>> log;
  s.spawn(park(port, -1, 1, log));
  s.spawn(park(port, -1, 2, log));
  s.spawn(park(port, -1, 3, log));  // queue full: refused immediately
  s.run(1.0);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], (std::pair{3, net::Admission::Refused}));
  EXPECT_EQ(port.queued(), 2u);
}

TEST(ServerPortDiscipline, CrashRefusesAllParkedWaiters) {
  sim::Simulation s;
  net::ServerPort port(s, 1);
  install_policy(port, QueueDiscipline::Fifo);
  ASSERT_TRUE(port.try_admit());
  std::vector<std::pair<int, net::Admission>> log;
  s.spawn(park(port, -1, 1, log));
  s.spawn(park(port, -1, 2, log));
  s.schedule(2.0, [&] { port.crash(); });
  s.run(5.0);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].second, net::Admission::Refused);
  EXPECT_EQ(log[1].second, net::Admission::Refused);
  EXPECT_EQ(port.queued(), 0u);
}

TEST(ServerPort, OverloadSignalTracksPressureThreshold) {
  sim::Simulation s;
  resilience::ServerPolicy pol;
  pol.enabled = true;
  pol.pressure_threshold = 0.9;
  net::ServerPort port(s, 10);
  port.set_policy(pol);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(port.try_admit());
  EXPECT_FALSE(port.overloaded());
  ASSERT_TRUE(port.try_admit());  // 9/10 = threshold
  EXPECT_TRUE(port.overloaded());
}

TEST(ServerPort, DisabledPolicyNeverQueuesOrSheds) {
  sim::Simulation s;
  net::ServerPort port(s, 1);  // no policy installed
  ASSERT_TRUE(port.try_admit());
  std::vector<std::pair<int, net::Admission>> log;
  s.spawn(park(port, -1, 1, log));
  s.run(1.0);
  ASSERT_EQ(log.size(), 1u);  // refused synchronously, never parked
  EXPECT_EQ(log[0].second, net::Admission::Refused);
  EXPECT_EQ(port.total_queued(), 0u);
  EXPECT_EQ(port.total_shed(), 0u);
}

// ------------------------------------------- open-arrival retry schedule

/// A schedule shorter than the retry count repeats its last entry, for
/// open arrivals exactly as for closed-loop users.
TEST(OpenArrivalRetries, LastScheduleEntryRepeats) {
  core::Testbed tb;
  std::vector<double> at;
  core::TracedQueryFn refused =
      [&tb, &at](net::Interface&,
                 trace::Ctx) -> sim::Task<core::QueryAttempt> {
    at.push_back(tb.sim().now());
    co_return core::QueryAttempt{};
  };
  core::WorkloadConfig cfg;
  cfg.max_attempts = 5;  // four retries on a two-entry schedule
  cfg.retry_schedule = {1, 4};
  cfg.retry_jitter = 0;
  core::UserWorkload w(tb, refused, cfg);
  w.start_arrivals(0.001, tb.uc_names());
  tb.sim().run(10000.0);
  ASSERT_GE(at.size(), 5u);
  EXPECT_DOUBLE_EQ(at[1] - at[0], 1.0);
  EXPECT_DOUBLE_EQ(at[2] - at[1], 4.0);
  EXPECT_DOUBLE_EQ(at[3] - at[2], 4.0);
  EXPECT_DOUBLE_EQ(at[4] - at[3], 4.0);
  // Every finished query spent exactly its five attempts.
  EXPECT_GT(w.counters().abandoned, 0u);
  EXPECT_EQ(w.counters().abandoned + w.outstanding(), w.total_queries());
  EXPECT_GE(w.total_attempts(), 5 * w.counters().abandoned);
  EXPECT_LT(w.total_attempts(), 5 * w.total_queries() + 1);
}

// --------------------------- outage-then-heal storm (metastable failure)

struct StormResult {
  double pre_goodput = 0;    // deadline-met completions/s before the outage
  double post_goodput = 0;   // same, in the recovery window after the heal
  double amp = 0;            // attempts / queries over the whole run
  std::uint64_t suppressed = 0;
  std::uint64_t fast_fails = 0;
  std::vector<core::Completion> completions;
  std::uint64_t queries = 0;
  std::uint64_t attempts = 0;
  std::uint64_t abandoned = 0;
};

/// One open-loop run against a single-port server: 7 q/s Poisson arrivals
/// into a backlog-6 server with 0.6 s service time (capacity 10 q/s), a
/// refusing outage over [80, 140), measured to t=200. A query is "good"
/// when its response time is within 10 s. The budget's fill ratio (0.2)
/// comfortably funds the fault-free retry demand, so pre-outage behavior
/// matches the baseline; it is ~30x short of funding the outage storm.
StormResult run_storm(bool resilient, std::uint64_t seed) {
  constexpr double kDeadline = 10.0;
  core::TestbedConfig tc;
  tc.seed = seed;
  core::Testbed tb(tc);
  net::ServerPort port(tb.sim(), 6);
  core::TracedQueryFn query =
      [&tb, &port](net::Interface&,
                   trace::Ctx) -> sim::Task<core::QueryAttempt> {
    if (!port.try_admit()) co_return core::QueryAttempt{};
    co_await tb.sim().delay(0.6);
    port.release();
    co_return core::QueryAttempt{true, 0};
  };
  core::WorkloadConfig cfg;
  // 80% utilization of the fault-free server, and clients patient enough
  // (12 retries spread over ~90 s; the schedule's last entry repeats)
  // that an outage's arrivals are all still retrying when the server
  // heals — the fuel of a metastable retry storm.
  cfg.max_attempts = 13;
  cfg.retry_schedule = {2, 4, 8};
  if (resilient) {
    cfg.resilience.enabled = true;
    cfg.resilience.budget.capacity = 10.0;
    cfg.resilience.budget.fill_ratio = 0.2;
    cfg.resilience.breaker.window = 20;
    cfg.resilience.breaker.min_samples = 10;
    cfg.resilience.breaker.failure_threshold = 0.5;
    cfg.resilience.breaker.open_duration = 10.0;
  }
  core::UserWorkload w(tb, query, cfg);
  w.start_arrivals(7.0, tb.uc_names());
  tb.sim().schedule(80.0, [&] { port.crash(); });
  tb.sim().schedule(140.0, [&] { port.restart(); });
  tb.sim().run(200.0);

  StormResult r;
  r.pre_goodput = w.goodput(20, 80, kDeadline);
  r.post_goodput = w.goodput(150, 200, kDeadline);
  r.amp = static_cast<double>(w.total_attempts()) /
          static_cast<double>(w.total_queries());
  r.suppressed = w.resilience_policy().budget().suppressed();
  r.fast_fails = w.resilience_policy().breaker().fast_fails();
  r.completions = w.completions();
  r.queries = w.total_queries();
  r.attempts = w.total_attempts();
  r.abandoned = w.counters().abandoned;
  return r;
}

TEST(ResilienceDeterminism, SameSeedIsByteIdenticalWithResilienceOn) {
  StormResult a = run_storm(true, 7);
  StormResult b = run_storm(true, 7);
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    // Exact double equality: the two runs must replay the same event
    // sequence bit-for-bit, not merely land close.
    EXPECT_EQ(a.completions[i].t, b.completions[i].t) << i;
    EXPECT_EQ(a.completions[i].response_time, b.completions[i].response_time)
        << i;
  }
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.suppressed, b.suppressed);
  EXPECT_EQ(a.fast_fails, b.fast_fails);
}

/// The storm's observable surface at round-trip precision: one counters
/// line, then every completion.
std::string storm_digest(const StormResult& r) {
  std::ostringstream out;
  out.precision(17);
  out << "pre=" << r.pre_goodput << " post=" << r.post_goodput
      << " amp=" << r.amp << " queries=" << r.queries
      << " attempts=" << r.attempts << " abandoned=" << r.abandoned
      << " suppressed=" << r.suppressed << " fast_fails=" << r.fast_fails
      << " completions=" << r.completions.size() << "\n";
  for (const auto& c : r.completions) {
    out << c.t << ' ' << c.response_time << ' ' << c.bytes << ' ' << c.stale
        << '\n';
  }
  return out.str();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Recorded bytes of both storm series at seed 7: the counters line
/// verbatim, the completion log by size and FNV-1a hash. Pins the open
/// arrival process (fork points, draw order, retry ladder, budget and
/// breaker decisions) across refactors of the client driver.
TEST(ResilienceDeterminism, StormMatchesRecordedGolden) {
  struct Golden {
    bool resilient;
    const char* head;
    std::size_t size;
    std::uint64_t hash;
  };
  const Golden goldens[] = {
      {false,
       "pre=7.0999999999999996 post=3.54 amp=4.4932862190812717 "
       "queries=1415 attempts=6358 abandoned=95 suppressed=0 fast_fails=0 "
       "completions=1138\n",
       48235, 13869375535415754446ull},
      {true,
       "pre=5.6833333333333336 post=5.2999999999999998 "
       "amp=0.69399293286219077 queries=1415 attempts=982 abandoned=632 "
       "suppressed=632 fast_fails=702 completions=776\n",
       33304, 11080319153182429281ull},
  };
  for (const Golden& g : goldens) {
    std::string d = storm_digest(run_storm(g.resilient, 7));
    EXPECT_EQ(d.substr(0, d.find('\n') + 1), g.head) << g.resilient;
    EXPECT_EQ(d.size(), g.size) << g.resilient;
    EXPECT_EQ(fnv1a(d), g.hash) << g.resilient;
  }
}

TEST(ResilienceDeterminism, DifferentSeedsDiverge) {
  StormResult a = run_storm(true, 7);
  StormResult b = run_storm(true, 8);
  EXPECT_NE(a.queries, b.queries);
}

TEST(MetastableFailure, BudgetsAndBreakersConvergeAfterHeal) {
  StormResult base = run_storm(false, 42);
  StormResult res = run_storm(true, 42);

  // Fault-free warm period: both configurations carry the offered load.
  EXPECT_GT(base.pre_goodput, 5.0);
  EXPECT_GT(res.pre_goodput, 5.0);

  // The resilient client actually used its mechanisms during the outage.
  EXPECT_GT(res.suppressed, 0u);
  EXPECT_GT(res.fast_fails, 0u);

  // Budgets bound retry amplification; the baseline storms.
  EXPECT_LT(res.amp, base.amp);

  // The regression proper: with budgets the post-heal window recovers to
  // near the pre-outage goodput; without them the pent-up retry storm
  // keeps the server saturated with dead work and goodput stays degraded.
  EXPECT_GT(res.post_goodput, 0.8 * res.pre_goodput);
  EXPECT_LT(base.post_goodput, 0.7 * base.pre_goodput);
  EXPECT_GT(res.post_goodput, base.post_goodput);
}

// ------------------------------------------------- half-open probe

/// A service that refuses every query for 20 s, so the client's breaker
/// trips; then blackholes every query past the 3 s deadline until
/// t = 40, so each half-open probe loses its race; then answers. Ten
/// closed-loop users on either engine (the sharded one at K = 1).
/// Returns the attempts that reached the service after it healed: none
/// if a lost probe kept its slot and pinned the breaker half-open.
std::uint64_t served_after_heal(bool sharded) {
  core::Testbed tb;
  std::uint64_t served = 0;
  core::TracedQueryFn query =
      [&tb, &served](net::Interface&,
                     trace::Ctx) -> sim::Task<core::QueryAttempt> {
    double now = tb.sim().now();
    if (now < 20) co_return core::QueryAttempt{};
    if (now < 40) {
      co_await tb.sim().delay(1000);
      co_return core::QueryAttempt{};
    }
    ++served;
    co_await tb.sim().delay(0.1);
    co_return core::QueryAttempt{true, 0};
  };
  core::WorkloadConfig cfg;
  cfg.query_deadline = 3;
  cfg.resilience.enabled = true;
  cfg.resilience.breaker.window = 8;
  cfg.resilience.breaker.min_samples = 4;
  cfg.resilience.breaker.open_duration = 5;
  if (sharded) {
    core::FrontierConfig fc;
    fc.client = cfg;
    core::FrontierWorkload w(tb, query, fc);
    w.spawn_users(10);
    w.run(100);
  } else {
    core::UserWorkload w(tb, query, cfg);
    w.spawn_users(10, tb.uc_names());
    w.run(100);
  }
  return served;
}

TEST(HalfOpenProbe, LostRaceReopensTheBreakerOnLegacyEngine) {
  EXPECT_GT(served_after_heal(false), 100u);
}

TEST(HalfOpenProbe, LostRaceReopensTheBreakerOnShardedEngine) {
  EXPECT_GT(served_after_heal(true), 100u);
}

/// The shared rule both engines call: a probe that lost its race is a
/// failure, so the breaker re-opens for open_duration and grants the
/// next probe when that has passed.
TEST(HalfOpenProbe, SettleLostReopensAndRestartsTheTimer) {
  resilience::ClientPolicyConfig cfg;
  cfg.enabled = true;
  cfg.breaker = small_breaker();
  resilience::ClientPolicy policy(cfg);
  for (int i = 0; i < 4; ++i) policy.record(0.0, false);  // open at t=0
  ASSERT_TRUE(policy.allow(10.0));                         // the probe
  EXPECT_FALSE(policy.allow(12.0));
  EXPECT_EQ(core::settle_lost(policy, 13.0), core::Verdict::Abandon);
  EXPECT_EQ(policy.breaker().trips(), 2u);
  EXPECT_EQ(policy.breaker_state(22.9), CircuitBreaker::State::Open);
  EXPECT_EQ(policy.breaker_state(23.0), CircuitBreaker::State::HalfOpen);
  EXPECT_TRUE(policy.allow(23.0));
}

}  // namespace
}  // namespace gridmon
