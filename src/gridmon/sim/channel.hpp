#pragma once

/// \file channel.hpp
/// Unbounded FIFO mailbox between coroutine processes (the "Store" of
/// classic DES libraries). Producers push without blocking; consumers
/// `co_await ch.pop()`.

#include <cassert>
#include <coroutine>
#include <deque>
#include <utility>

#include "gridmon/sim/simulation.hpp"

namespace gridmon::sim {

template <typename T>
class Channel {
 public:
  explicit Channel(Simulation& sim) : sim_(sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void push(T item) {
    items_.push_back(std::move(item));
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_.schedule_resume(0, h);
    }
  }

  struct PopAwaiter {
    Channel& ch;
    bool await_ready() const noexcept { return !ch.items_.empty(); }
    void await_suspend(std::coroutine_handle<> h) {
      ch.waiters_.push_back(h);
    }
    T await_resume() {
      // An item may have been stolen by another consumer resumed earlier at
      // the same timestamp; in the simulator's FIFO wake-up discipline this
      // cannot happen (one wake-up per push), so the queue is non-empty.
      assert(!ch.items_.empty() &&
             "Channel wake-up with no item: one-wake-per-push invariant "
             "violated");
      T item = std::move(ch.items_.front());
      ch.items_.pop_front();
      return item;
    }
  };

  PopAwaiter pop() noexcept { return PopAwaiter{*this}; }

  std::size_t size() const noexcept { return items_.size(); }
  bool empty() const noexcept { return items_.empty(); }

 private:
  Simulation& sim_;
  std::deque<T> items_;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace gridmon::sim
