#pragma once

/// \file event_queue.hpp
/// Deterministic pending-event set for the discrete-event simulator.
///
/// Events at equal timestamps fire in insertion order (a monotonically
/// increasing sequence number breaks ties), which keeps every run with the
/// same seed bit-identical.
///
/// Implementation: an indexed binary min-heap. The heap array holds only
/// the ordering keys (timestamp, sequence number) plus an index into a
/// slab of payload slots, so sift operations move 24-byte keys and never
/// touch the payloads. Slots are recycled through a free list, and
/// coroutine wake-ups (the vast majority of events) are stored as bare
/// handles — no std::function, no allocation. The strict total order on
/// (at, seq) means the pop sequence is independent of the heap's internal
/// layout, so this structure is drop-in byte-compatible with the previous
/// std::priority_queue implementation.

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace gridmon::sim {

/// Simulated time in seconds.
using SimTime = double;

class EventQueue {
 public:
  // Cold-path API boundary only: arbitrary callables enter via
  // schedule()/push(), which fire once per process spawn or timer, not
  // per event. The per-event hot path is push_resume()/pop(), which moves
  // bare coroutine handles and never touches this type.
  using Callback = std::function<void()>;

  /// The payload of a popped event: either a callback or a bare coroutine
  /// handle. Invoke with operator().
  class Fired {
   public:
    void operator()() {
      if (handle_) {
        handle_.resume();
      } else {
        cb_();
      }
    }

   private:
    friend class EventQueue;
    Callback cb_;
    std::coroutine_handle<> handle_;
  };

  /// Schedule `cb` to fire at absolute time `at`.
  void push(SimTime at, Callback cb) {
    std::uint32_t slot = acquire_slot();
    slots_[slot].cb = std::move(cb);
    slots_[slot].handle = nullptr;
    heap_.push_back(Key{at, next_seq_++, slot});
    sift_up(heap_.size() - 1);
  }

  /// Schedule a coroutine resumption at absolute time `at`. Equivalent to
  /// push(at, [h] { h.resume(); }) but stores the handle directly, keeping
  /// the wake-up path allocation-free.
  void push_resume(SimTime at, std::coroutine_handle<> h) {
    std::uint32_t slot = acquire_slot();
    slots_[slot].handle = h;
    heap_.push_back(Key{at, next_seq_++, slot});
    sift_up(heap_.size() - 1);
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Timestamp of the earliest pending event. Precondition: !empty().
  SimTime next_time() const { return heap_.front().at; }

  /// Remove and return the earliest pending event's payload.
  /// Precondition: !empty().
  Fired pop(SimTime& at_out) {
    assert(!heap_.empty());
    Key top = heap_.front();
    at_out = top.at;
    Fired fired;
    Slot& s = slots_[top.slot];
    fired.handle_ = s.handle;
    if (!s.handle) fired.cb_ = std::move(s.cb);
    release_slot(top.slot);
    Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = last;
      sift_down(0);
    }
    return fired;
  }

  void clear() {
    heap_.clear();
    slots_.clear();
    free_head_ = kNil;
  }

 private:
  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    Callback cb;
    std::coroutine_handle<> handle;
    std::uint32_t next_free = kNil;
  };
  static constexpr std::uint32_t kNil = 0xffffffffu;

  static bool earlier(const Key& a, const Key& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i) {
    Key k = heap_[i];
    while (i > 0) {
      std::size_t parent = (i - 1) / 2;
      if (!earlier(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  void sift_down(std::size_t i) {
    Key k = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
      if (!earlier(heap_[child], k)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = k;
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNil) {
      std::uint32_t s = free_head_;
      free_head_ = slots_[s].next_free;
      return s;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void release_slot(std::uint32_t s) noexcept {
    slots_[s].handle = nullptr;
    slots_[s].next_free = free_head_;
    free_head_ = s;
  }

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;
  std::uint64_t next_seq_ = 0;
};

}  // namespace gridmon::sim
