#pragma once

/// \file simulation.hpp
/// The simulation executive: clock, pending-event set, and detached-task
/// ownership. Single-threaded and fully deterministic.

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "gridmon/sim/event_queue.hpp"
#include "gridmon/sim/task.hpp"
#include "gridmon/sim/wake.hpp"

namespace gridmon::sim {

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation() { shutdown(); }

  /// Current simulated time in seconds.
  SimTime now() const noexcept { return now_; }

  /// Schedule a callback `delay` seconds from now. Negative delays clamp
  /// to zero (fires after already-pending events at the current time).
  void schedule(SimTime delay, EventQueue::Callback cb) {
    queue_.push(now_ + (delay > 0 ? delay : 0), std::move(cb));
  }

  /// Schedule a wake-up (a coroutine resumption or a Step) `delay`
  /// seconds from now. Stored as one word in the event queue: no
  /// std::function, no allocation.
  void schedule_resume(SimTime delay, Wake w) {
    queue_.push_resume(now_ + (delay > 0 ? delay : 0), w);
  }

  /// Register a re-armable timer that calls `fn(ctx)` when it fires; it
  /// starts disarmed. The owner removes it before `ctx` dies.
  EventQueue::TimerId add_timer(EventQueue::TimerFn fn, void* ctx) {
    return queue_.add_timer(fn, ctx);
  }

  /// Fire timer `id` `delay` seconds from now (negative delays clamp to
  /// zero), superseding its pending firing if it has one.
  void arm_timer(EventQueue::TimerId id, SimTime delay) {
    queue_.arm(id, now_ + (delay > 0 ? delay : 0));
  }

  /// Disarm timer `id`; no-op if it is not armed.
  void cancel_timer(EventQueue::TimerId id) { queue_.cancel(id); }

  /// Disarm and unregister timer `id`.
  void remove_timer(EventQueue::TimerId id) { queue_.remove_timer(id); }

  /// Launch a detached process. The simulation owns the coroutine frame and
  /// releases it after the task runs to completion (or at shutdown).
  void spawn(Task<void> task) {
    auto handle = task.native_handle();
    tasks_.push_back(std::move(task));
    queue_.push(now_, [handle] {
      if (handle && !handle.done()) handle.resume();
    });
  }

  /// Awaitable: suspend the current coroutine for `seconds` of simulated
  /// time. `co_await sim.delay(1.0);`
  struct DelayAwaiter {
    Simulation& sim;
    SimTime seconds;
    bool await_ready() const noexcept { return seconds <= 0; }
    void await_suspend(std::coroutine_handle<> h) const {
      sim.schedule_resume(seconds, h);
    }
    void await_resume() const noexcept {}
  };
  DelayAwaiter delay(SimTime seconds) { return DelayAwaiter{*this, seconds}; }

  /// Run until the pending-event set drains or the clock passes `until`
  /// (infinite by default). Returns the number of events executed.
  ///
  /// A zero-delay event cycle (events endlessly rescheduling at the same
  /// timestamp) would freeze simulated time; the kSameTimeEventLimit
  /// guard turns that bug into a loud failure instead of a silent hang.
  std::size_t run(SimTime until = kForever) {
    std::size_t executed = 0;
    std::size_t at_same_time = 0;
    while (!queue_.empty()) {
      SimTime at = queue_.next_time();
      if (at > until) break;
      SimTime fire_at;
      auto fired = queue_.pop(fire_at);
      assert(fire_at >= now_ && "event queue went backwards");
      if (fire_at == now_) {
        if (++at_same_time > kSameTimeEventLimit) {
          throw std::logic_error(
              "simulation stalled: >10M events at t=" + std::to_string(now_));
        }
      } else {
        at_same_time = 0;
      }
      now_ = fire_at;
      fired();
      ++executed;
      if (++events_since_prune_ >= prune_threshold_) maybe_prune();
    }
    if (now_ < until && until != kForever) now_ = until;
    // Reclaim frames eagerly only when the run drained the queue; a
    // windowed caller (sim::ShardGroup drives the simulation in
    // lookahead-sized slices, tens of thousands of calls per run) would
    // otherwise pay an O(live tasks) sweep per window — quadratic over
    // the run. Sliced calls rely on the amortized in-loop prune above.
    if (executed > 0 && queue_.empty()) prune_done_tasks();
    return executed;
  }

  /// Execute at most `max_events` events (diagnostics / incremental
  /// driving). Returns the number executed.
  std::size_t run_events(std::size_t max_events) {
    std::size_t executed = 0;
    while (!queue_.empty() && executed < max_events) {
      SimTime fire_at;
      auto fired = queue_.pop(fire_at);
      now_ = fire_at;
      fired();
      ++executed;
      if (++events_since_prune_ >= prune_threshold_) maybe_prune();
    }
    return executed;
  }

  /// Destroy all detached coroutine frames, drop pending events and disarm
  /// every timer without running them. Must be called (or ~Simulation
  /// reached) while every resource the frames reference is still alive.
  void shutdown() {
    // Destroying a frame runs destructors of its locals, which may release
    // resources and schedule wake-ups; those land in the queue and are then
    // discarded.
    tasks_.clear();
    queue_.clear();
  }

  /// Number of live detached tasks (mostly for tests/diagnostics).
  std::size_t live_task_count() const noexcept { return tasks_.size(); }

  static constexpr SimTime kForever = 1e300;

 private:
  static constexpr std::size_t kPruneInterval = 1024;
  static constexpr std::size_t kSameTimeEventLimit = 10'000'000;

  /// The amortized in-loop sweep, skipped while no detached coroutine on
  /// this thread has finished since the last one: in a 100k-user run none
  /// of the client tasks ever finishes, and the sweep would read every
  /// cold frame for nothing.
  void maybe_prune() {
    if (detail::detached_finished() == pruned_at_) {
      events_since_prune_ = 0;
      return;
    }
    prune_done_tasks();
  }

  void prune_done_tasks() {
    pruned_at_ = detail::detached_finished();
    events_since_prune_ = 0;
    std::erase_if(tasks_, [](const Task<void>& t) { return t.done(); });
    // Each prune is O(live tasks); spacing prunes at least that many
    // events apart keeps the amortized cost per event constant even with
    // 100k spawned user processes.
    prune_threshold_ = std::max(kPruneInterval, tasks_.size());
  }

  EventQueue queue_;
  SimTime now_ = 0;
  std::size_t events_since_prune_ = 0;
  std::size_t prune_threshold_ = kPruneInterval;
  // The detached-finish counter's value at the last sweep.
  std::uint64_t pruned_at_ = 0;
  std::vector<Task<void>> tasks_;
};

}  // namespace gridmon::sim
