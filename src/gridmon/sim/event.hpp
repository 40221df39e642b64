#pragma once

/// \file event.hpp
/// One-shot / resettable notification primitive for coroutine processes.

#include <coroutine>
#include <memory>
#include <utility>
#include <vector>

#include "gridmon/sim/simulation.hpp"

namespace gridmon::sim {

/// A level-triggered event. Awaiting a triggered event completes
/// immediately; otherwise the awaiter parks until `trigger()` is called.
/// `reset()` re-arms the event. `wait_for(timeout)` additionally races the
/// wait against a deadline, which is what lets a network stall or a
/// blackholed connection fail instead of hanging forever.
class Event {
  struct Waiter {
    std::coroutine_handle<> handle;
    bool done = false;      // resumed (by trigger or deadline)
    bool by_event = false;  // resumed because the event fired
  };
  /// A parked coroutine. Plain (untimed) waits store just the handle —
  /// no allocation; only deadline-racing waits carry shared race state.
  /// One vector keeps FIFO wake-up order across both kinds.
  struct Entry {
    std::coroutine_handle<> handle;
    std::shared_ptr<Waiter> timed;  // null for plain waits
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
        w.timed->by_event = true;
        sim_.schedule_resume(0, w.timed->handle);
      } else {
        sim_.schedule_resume(0, w.handle);
      }
    }
    waiters_.clear();
  }

  void reset() noexcept { triggered_ = false; }

  struct Awaiter {
    Event& ev;
    bool await_ready() const noexcept { return ev.triggered_; }
    void await_suspend(std::coroutine_handle<> h) {
      ev.waiters_.push_back(Entry{h, nullptr});
    }
    void await_resume() const noexcept {}
  };
  Awaiter operator co_await() noexcept { return Awaiter{*this}; }

  /// Awaitable: wait until the event triggers OR `timeout` seconds pass,
  /// whichever comes first. Resumes with true if the event fired (or was
  /// already triggered), false on deadline. A waiter abandoned at its
  /// deadline is skipped by a later trigger(), so the two wake-ups can
  /// never double-resume the coroutine.
  struct TimedAwaiter {
    Event& ev;
    double timeout;
    std::shared_ptr<Waiter> waiter;
    bool await_ready() const noexcept {
      return ev.triggered_ || timeout <= 0;
    }
    void await_suspend(std::coroutine_handle<> h) {
      waiter = std::make_shared<Waiter>();
      waiter->handle = h;
      ev.waiters_.push_back(Entry{h, waiter});
      auto w = waiter;
      ev.sim_.schedule(timeout, [w] {
        if (w->done) return;  // event won the race
        w->done = true;
        w->handle.resume();
      });
    }
    bool await_resume() const noexcept {
      return waiter ? waiter->by_event : ev.triggered_;
    }
  };
  TimedAwaiter wait_for(double timeout) noexcept {
    return TimedAwaiter{*this, timeout, nullptr};
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
