/// Property tests for the indexed min-heap EventQueue: under a long
/// randomized schedule of interleaved pushes and pops, every pop must
/// return exactly the event a reference ordered set says is next — the
/// strict (timestamp, sequence) total order that makes equal-timestamp
/// events fire in insertion order. This is the invariant the simulator's
/// byte-determinism rests on, checked independently of heap layout,
/// slot recycling, and free-list state.

#include "gridmon/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "gridmon/sim/rng.hpp"

namespace gridmon::sim {
namespace {

TEST(EventQueueProperty, RandomizedScheduleMatchesReferenceOrder) {
  EventQueue q;
  Rng rng(0x9e3779b97f4a7c15ull);
  // Reference: ordered by (at, seq); seq equals the event id because ids
  // are assigned in push order, one per push.
  std::set<std::pair<double, std::uint64_t>> ref;
  std::uint64_t next_id = 0;
  std::vector<std::uint64_t> fired;
  constexpr int kOps = 1'000'000;
  fired.reserve(kOps);

  auto pop_and_check = [&] {
    SimTime at = -1;
    EventQueue::Fired f = q.pop(at);
    f();
    ASSERT_FALSE(fired.empty());
    auto it = ref.begin();
    ASSERT_EQ(fired.back(), it->second)
        << "pop order diverged from (at, seq) reference at event "
        << fired.size();
    ASSERT_EQ(at, it->first);
    ref.erase(it);
  };

  for (int op = 0; op < kOps; ++op) {
    if (q.empty() || rng.uniform(0.0, 1.0) < 0.6) {
      // Only 64 distinct timestamps: most events tie, so FIFO tie-break
      // carries nearly all of the ordering.
      double at = std::floor(rng.uniform(0.0, 64.0));
      std::uint64_t id = next_id++;
      q.push(at, [id, &fired] { fired.push_back(id); });
      ref.insert({at, id});
    } else {
      ASSERT_NO_FATAL_FAILURE(pop_and_check());
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  while (!q.empty()) {
    ASSERT_NO_FATAL_FAILURE(pop_and_check());
  }
  EXPECT_EQ(fired.size(), next_id);
  EXPECT_TRUE(ref.empty());
}

// Degenerate case the heap cannot distinguish by timestamp at all: every
// event at the same instant must fire in exact insertion order even
// across pops that recycle payload slots out of order.
TEST(EventQueueProperty, AllEqualTimestampsFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  constexpr int kEvents = 10'000;
  int pushed = 0;
  // Interleave: push two, pop one, so the free list keeps churning.
  SimTime at = -1;
  for (int i = 0; i < kEvents; ++i) {
    q.push(7.0, [i, &fired] { fired.push_back(i); });
    ++pushed;
    if (pushed % 2 == 0) q.pop(at)();
  }
  while (!q.empty()) q.pop(at)();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_EQ(fired[static_cast<std::size_t>(i)], i);
  }
}

// ---- Differential test: re-armable timers vs lazy supersession ----

/// What a popped event did: a callback (payload: its push number), a
/// coroutine wake-up (payload: the frame's tag) or a timer (payload: its
/// id).
enum class Kind { Callback, Wakeup, Timer };
using Firing = std::pair<Kind, std::uint64_t>;

/// A coroutine frame that logs its tag on every resumption and suspends
/// again, so one frame can stand behind many pending wake-ups.
class Recorder {
 public:
  struct promise_type {
    Recorder get_return_object() {
      return Recorder(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
  Recorder(Recorder&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;
  Recorder& operator=(Recorder&&) = delete;
  ~Recorder() {
    if (h_) h_.destroy();
  }
  std::coroutine_handle<> handle() const noexcept { return h_; }

 private:
  explicit Recorder(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

Recorder record_wakeups(std::vector<Firing>* log, std::uint64_t tag) {
  for (;;) {
    co_await std::suspend_always{};
    log->push_back({Kind::Wakeup, tag});
  }
}

struct TimerCtx {
  std::vector<Firing>* log;
  std::uint64_t id;
};

void log_timer(void* ctx) {
  auto* t = static_cast<TimerCtx*>(ctx);
  t->log->push_back({Kind::Timer, t->id});
}

/// The reference models the superseded design: every push, wake-up and
/// (re-)arm inserts a fresh (at, seq) entry; re-arming or cancelling a
/// timer leaves its old entry behind as dead, and a pop skips dead
/// entries. The real queue must fire the same live entries in the same
/// order, with no dead pops. Timestamps take 16 values, so most ties
/// between callbacks, wake-ups and timers are decided by seq alone.
TEST(EventQueueProperty, TimersMatchLazySupersessionReference) {
  constexpr int kTimers = 16;
  constexpr int kFrames = 8;
  constexpr int kOps = 400'000;
  EventQueue q;
  Rng rng(0xd1b54a32d192ed03ull);
  std::vector<Firing> log;
  std::vector<Recorder> frames;
  for (int f = 0; f < kFrames; ++f) {
    frames.push_back(record_wakeups(&log, static_cast<std::uint64_t>(f)));
  }
  std::array<TimerCtx, kTimers> ctx{};
  std::array<EventQueue::TimerId, kTimers> ids{};
  for (int t = 0; t < kTimers; ++t) {
    ctx[t] = TimerCtx{&log, static_cast<std::uint64_t>(t)};
    ids[t] = q.add_timer(&log_timer, &ctx[t]);
  }

  std::set<std::pair<double, std::uint64_t>> ref;  // (at, seq), dead too
  std::map<std::uint64_t, Firing> payload;         // seq -> expected firing
  std::set<std::uint64_t> dead;                    // superseded seqs in ref
  std::array<std::optional<std::uint64_t>, kTimers> pending{};
  std::uint64_t seq = 0;
  std::uint64_t pushes = 0;
  std::size_t popped = 0;
  std::size_t dead_skipped = 0;

  auto insert = [&](double at, Firing what) {
    ref.insert({at, seq});
    payload[seq] = what;
    ++seq;
  };
  auto supersede = [&](int t) {
    if (pending[t]) dead.insert(*pending[t]);
    pending[t].reset();
  };
  auto pop_and_check = [&] {
    while (dead.count(ref.begin()->second) != 0) {
      dead.erase(ref.begin()->second);
      ref.erase(ref.begin());
      ++dead_skipped;
    }
    auto [at, s] = *ref.begin();
    Firing want = payload.at(s);
    ref.erase(ref.begin());
    payload.erase(s);
    if (want.first == Kind::Timer) pending[want.second].reset();
    SimTime got_at = -1;
    std::size_t before = log.size();
    q.pop(got_at)();
    ASSERT_EQ(log.size(), before + 1);
    ASSERT_EQ(got_at, at) << "pop " << popped;
    ASSERT_EQ(log.back(), want) << "pop " << popped << ", seq " << s;
    ++popped;
  };

  for (int op = 0; op < kOps; ++op) {
    double at = std::floor(rng.uniform(0.0, 16.0));
    double u = rng.uniform(0.0, 1.0);
    if (u < 0.0005) {
      q.clear();
      ref.clear();
      payload.clear();
      dead.clear();
      pending.fill(std::nullopt);
    } else if (u < 0.2) {
      std::uint64_t id = pushes++;
      q.push(at, [&log, id] { log.push_back({Kind::Callback, id}); });
      insert(at, {Kind::Callback, id});
    } else if (u < 0.4) {
      auto f = static_cast<std::size_t>(rng.uniform(0.0, kFrames));
      q.push_resume(at, frames[f].handle());
      insert(at, {Kind::Wakeup, f});
    } else if (u < 0.6) {
      auto t = static_cast<int>(rng.uniform(0.0, kTimers));
      supersede(t);
      q.arm(ids[t], at);
      pending[t] = seq;
      insert(at, {Kind::Timer, static_cast<std::uint64_t>(t)});
    } else if (u < 0.65) {
      auto t = static_cast<int>(rng.uniform(0.0, kTimers));
      supersede(t);
      q.cancel(ids[t]);
    } else if (!q.empty()) {
      ASSERT_NO_FATAL_FAILURE(pop_and_check());
    }
    ASSERT_EQ(q.size(), ref.size() - dead.size()) << "op " << op;
    for (int t = 0; t < kTimers; ++t) {
      ASSERT_EQ(q.armed(ids[t]), pending[t].has_value());
    }
  }
  while (!q.empty()) ASSERT_NO_FATAL_FAILURE(pop_and_check());
  EXPECT_EQ(ref.size(), dead.size());
  // The schedule must actually have exercised supersession and ties.
  EXPECT_GT(dead_skipped, 10'000u);
  EXPECT_GT(popped, 50'000u);
}

// A timer's callback may re-arm its own timer, and a removed timer's id is
// handed out again disarmed.
TEST(EventQueueProperty, TimerRearmsFromItsOwnCallbackAndIdsRecycle) {
  struct Self {
    EventQueue* q;
    EventQueue::TimerId id;
    std::vector<SimTime> fired;
    SimTime last = 0;
  };
  EventQueue q;
  Self self{&q, 0, {}};
  self.id = q.add_timer(
      [](void* p) {
        auto* s = static_cast<Self*>(p);
        s->fired.push_back(s->last);
        if (s->fired.size() < 3) s->q->arm(s->id, s->last += 1.0);
      },
      &self);
  q.arm(self.id, 0.0);
  SimTime at = -1;
  while (!q.empty()) q.pop(at)();
  EXPECT_EQ(self.fired, (std::vector<SimTime>{0.0, 1.0, 2.0}));
  q.arm(self.id, 5.0);
  q.remove_timer(self.id);
  EXPECT_TRUE(q.empty());
  int other = 0;
  EventQueue::TimerId reused = q.add_timer(
      [](void* p) { ++*static_cast<int*>(p); }, &other);
  EXPECT_EQ(reused, self.id);
  EXPECT_FALSE(q.armed(reused));
  q.arm(reused, 1.0);
  q.pop(at)();
  EXPECT_EQ(other, 1);
}

}  // namespace
}  // namespace gridmon::sim
