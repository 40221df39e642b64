#pragma once

/// \file event.hpp
/// One-shot / resettable notification primitive for coroutine processes.

#include <coroutine>
#include <memory>
#include <utility>
#include <vector>

#include "gridmon/sim/simulation.hpp"
#include "gridmon/sim/wake.hpp"

namespace gridmon::sim {

/// A level-triggered event. Awaiting a triggered event completes
/// immediately; otherwise the awaiter parks until `trigger()` is called.
/// `reset()` re-arms the event. `wait_for(timeout)` additionally races the
/// wait against a deadline, which is what lets a network stall or a
/// blackholed connection fail instead of hanging forever.
///
/// Waiters are sim::Wake targets: a coroutine (through the awaiters) or a
/// frame-free state machine's Step (through park() and park_for()).
class Event {
  /// Race state of one deadline-bounded wait, shared by the waiter list
  /// and the deadline callback: whichever fires first wakes the waiter,
  /// and the other finds `done`.
  struct Race {
    Wake wake;
    bool done = false;
    bool* by_event;  // set true when the event wins; owned by the waiter
  };
  /// A parked waiter. Plain (untimed) waits store just the Wake — no
  /// allocation; only deadline-racing waits carry shared race state.
  /// One vector keeps FIFO wake-up order across both kinds.
  struct Entry {
    Wake wake;
    std::shared_ptr<Race> timed;  // null for plain waits
  };

 public:
  explicit Event(Simulation& sim) : sim_(sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool triggered() const noexcept { return triggered_; }
  Simulation& sim() const noexcept { return sim_; }

  /// Fire the event: release all current waiters (scheduled at the current
  /// time, preserving FIFO order) and latch the triggered state.
  /// Wake-ups are queued, not run inline, so no waiter can observe the
  /// list mid-iteration; clearing after the loop keeps its capacity for
  /// the next round of waits.
  void trigger() {
    triggered_ = true;
    for (auto& w : waiters_) {
      if (w.timed) {
        if (w.timed->done) continue;  // already woken by its deadline
        w.timed->done = true;
        *w.timed->by_event = true;
      }
      sim_.schedule_resume(0, w.wake);
    }
    waiters_.clear();
  }

  void reset() noexcept { triggered_ = false; }

  /// Park `w` until the next trigger(). Precondition: !triggered().
  void park(Wake w) { waiters_.push_back(Entry{w, nullptr}); }

  /// Park `w` until the next trigger() or until `timeout` (> 0) seconds
  /// pass, whichever comes first. The event sets `*by_event` to true when
  /// it wins the race; the waiter initialises it to false and must stay
  /// alive until woken. A waiter abandoned at its deadline is skipped by
  /// a later trigger(), so the two wake-ups never both fire. The deadline
  /// runs `w` inline from its own event. Precondition: !triggered().
  void park_for(Wake w, double timeout, bool* by_event) {
    auto race = std::make_shared<Race>(Race{w, false, by_event});
    waiters_.push_back(Entry{w, race});
    sim_.schedule(timeout, [race] {
      if (race->done) return;  // event won the race
      race->done = true;
      race->wake();
    });
  }

  struct Awaiter {
    Event& ev;
    bool await_ready() const noexcept { return ev.triggered_; }
    void await_suspend(std::coroutine_handle<> h) { ev.park(h); }
    void await_resume() const noexcept {}
  };
  Awaiter operator co_await() noexcept { return Awaiter{*this}; }

  /// Awaitable: wait until the event triggers OR `timeout` seconds pass,
  /// whichever comes first. Resumes with true if the event fired (or was
  /// already triggered), false on deadline.
  struct TimedAwaiter {
    Event& ev;
    double timeout;
    bool parked = false;
    bool by_event = false;
    bool await_ready() const noexcept {
      return ev.triggered_ || timeout <= 0;
    }
    void await_suspend(std::coroutine_handle<> h) {
      parked = true;
      ev.park_for(h, timeout, &by_event);
    }
    bool await_resume() const noexcept {
      return parked ? by_event : ev.triggered_;
    }
  };
  TimedAwaiter wait_for(double timeout) noexcept {
    return TimedAwaiter{*this, timeout};
  }

 private:
  Simulation& sim_;
  bool triggered_ = false;
  std::vector<Entry> waiters_;
};

/// Counts outstanding sub-tasks; `wait()` completes when the count reaches
/// zero. The usual pattern for fan-out/fan-in:
///
///   WaitGroup wg(sim);
///   for (auto& sub : subqueries) sim.spawn(wg.track(run(sub)));
///   co_await wg.wait();
class WaitGroup {
 public:
  explicit WaitGroup(Simulation& sim) : sim_(sim), ev_(sim) {}

  void add(int n = 1) {
    count_ += n;
    if (count_ > 0) ev_.reset();
  }

  void done() {
    if (--count_ == 0) ev_.trigger();
  }

  /// Wrap a task so its completion (normal or exceptional) decrements the
  /// group. Adds 1 to the count immediately.
  Task<void> track(Task<void> inner) {
    add(1);
    return run_tracked(std::move(inner), *this);
  }

  /// Awaitable completing when the count reaches zero. A group that never
  /// had tasks added is already complete.
  Event::Awaiter wait() noexcept {
    if (count_ == 0) ev_.trigger();
    return Event::Awaiter{ev_};
  }

  /// Wait at most `timeout` seconds; returns true if the group drained.
  /// Late tasks keep running — the caller simply stops waiting for them.
  /// (Implemented by polling at `poll_interval`, which avoids cancellable
  /// waits; fine for the coarse timeouts services use.)
  Task<bool> wait_for(double timeout, double poll_interval = 0.5) {
    double deadline = sim_.now() + timeout;
    while (count_ > 0) {
      if (sim_.now() >= deadline) co_return false;
      double remaining = deadline - sim_.now();
      co_await sim_.delay(remaining < poll_interval ? remaining
                                                    : poll_interval);
    }
    co_return true;
  }

  int pending() const noexcept { return count_; }

 private:
  static Task<void> run_tracked(Task<void> inner, WaitGroup& wg) {
    // Parameters live in the coroutine frame, so `inner` stays alive for
    // the duration of the child task. done() fires only on completion
    // (normal or exceptional) — NOT when the frame is destroyed at
    // shutdown, because the WaitGroup may already be gone by then.
    try {
      co_await inner;
    } catch (...) {
    }
    wg.done();
  }

  Simulation& sim_;
  int count_ = 0;
  Event ev_;
};

}  // namespace gridmon::sim
