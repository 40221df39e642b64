#pragma once

/// \file event_queue.hpp
/// Deterministic pending-event set for the discrete-event simulator.
///
/// Events at equal timestamps fire in insertion order (a monotonically
/// increasing sequence number breaks ties), which keeps every run with the
/// same seed bit-identical.
///
/// Implementation: two indexed binary min-heaps over (timestamp, sequence
/// number) keys, drawing sequence numbers from one counter.
///
/// * The event heap holds one-shot events. Its 24-byte key carries the
///   payload reference itself: a wake-up (the vast majority of events)
///   stores its sim::Wake word — a coroutine frame address, or a Step
///   address tagged in bit 1 — and a callback stores its index in a slab
///   of std::function slots with bit 0 set (a Wake never sets bit 0). A
///   wake-up never touches the slab.
/// * The timer heap holds re-armable timers, at most one pending entry per
///   timer, each a plain function pointer plus context pointer. Re-arming
///   takes a fresh sequence number and sifts the entry in place, so a
///   timer that is re-armed a million times leaves no stale entries behind
///   (a processor-sharing server re-arms its completion timer on every
///   arrival and departure).
///
/// pop() takes the earlier of the two tops. The strict total order on
/// (at, seq) means the pop sequence is independent of either heap's
/// internal layout: re-arming a timer fires exactly what pushing a fresh
/// event and ignoring the superseded one would fire, minus the dead pops.

#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "gridmon/sim/wake.hpp"

namespace gridmon::sim {

/// Simulated time in seconds.
using SimTime = double;

class EventQueue {
 public:
  // Cold-path API boundary only: arbitrary callables enter via push(),
  // once per process spawn, timeout, fault or commit window, not per
  // event. The per-event hot paths are push_resume() (coroutine handles
  // and Steps) and re-armable timers (function pointers); neither touches
  // this type.
  using Callback = std::function<void()>;
  using TimerFn = void (*)(void*);
  using TimerId = std::uint32_t;

  /// The payload of a popped event: a wake-up, a timer, or a callback.
  /// Invoke with operator().
  class Fired {
   public:
    void operator()() {
      if (wake_) {
        wake_();
      } else if (timer_fn_ != nullptr) {
        timer_fn_(timer_ctx_);
      } else {
        cb_();
      }
    }

   private:
    friend class EventQueue;
    Wake wake_;
    TimerFn timer_fn_ = nullptr;
    void* timer_ctx_ = nullptr;
    Callback cb_;
  };

  /// Schedule `cb` to fire at absolute time `at`.
  void push(SimTime at, Callback cb) {
    std::uint32_t slot = acquire_slot();
    slots_[slot].cb = std::move(cb);
    std::uintptr_t ref = (std::uintptr_t{slot} << 1) | kSlotTag;
    push_key(heap_, Key{at, next_seq_++, ref}, NoIndex{});
  }

  /// Schedule a wake-up (coroutine resumption or Step) at absolute time
  /// `at`. Equivalent to push(at, [w] { w(); }) but stores the Wake word
  /// in the heap key, keeping the wake-up path allocation-free.
  void push_resume(SimTime at, Wake w) {
    static_assert((Wake::kFreeBit & kSlotTag) != 0);
    push_key(heap_, Key{at, next_seq_++, w.bits()}, NoIndex{});
  }

  /// Register a re-armable timer that calls `fn(ctx)` when it fires. The
  /// timer starts disarmed. `ctx` must outlive the registration.
  TimerId add_timer(TimerFn fn, void* ctx) {
    TimerId id = timer_free_;
    if (id != kNil) {
      timer_free_ = timers_[id].next_free;
      timers_[id] = Timer{fn, ctx, kNil, kNil};
    } else {
      id = static_cast<TimerId>(timers_.size());
      timers_.push_back(Timer{fn, ctx, kNil, kNil});
    }
    return id;
  }

  /// Disarm and unregister a timer; its id may be handed out again.
  void remove_timer(TimerId id) {
    cancel(id);
    timers_[id] = Timer{nullptr, nullptr, kNil, timer_free_};
    timer_free_ = id;
  }

  /// (Re-)arm a timer to fire at absolute time `at`, superseding any
  /// pending firing. Takes a fresh sequence number, exactly as push() does.
  void arm(TimerId id, SimTime at) {
    assert(timers_[id].fn != nullptr);
    TimerKey k{at, next_seq_++, id};
    std::uint32_t pos = timers_[id].pos;
    if (pos == kNil) {
      push_key(theap_, k, TimerIndex{timers_});
      return;
    }
    // The new key has a larger seq, so it moves up only on an earlier at.
    bool sooner = earlier(k, theap_[pos]);
    theap_[pos] = k;
    if (sooner) {
      sift_up(theap_, pos, TimerIndex{timers_});
    } else {
      sift_down(theap_, pos, TimerIndex{timers_});
    }
  }

  /// Disarm a timer. No-op if it is not armed.
  void cancel(TimerId id) {
    std::uint32_t pos = timers_[id].pos;
    if (pos == kNil) return;
    timers_[id].pos = kNil;
    TimerKey last = theap_.back();
    theap_.pop_back();
    if (pos == theap_.size()) return;
    theap_[pos] = last;
    sift_up(theap_, pos, TimerIndex{timers_});
    sift_down(theap_, timers_[last.id].pos, TimerIndex{timers_});
  }

  bool armed(TimerId id) const { return timers_[id].pos != kNil; }

  bool empty() const noexcept { return heap_.empty() && theap_.empty(); }
  std::size_t size() const noexcept { return heap_.size() + theap_.size(); }

  /// Timestamp of the earliest pending event. Precondition: !empty().
  SimTime next_time() const {
    if (theap_.empty()) return heap_.front().at;
    if (heap_.empty()) return theap_.front().at;
    return heap_.front().at < theap_.front().at ? heap_.front().at
                                                : theap_.front().at;
  }

  /// Remove and return the earliest pending event's payload.
  /// Precondition: !empty().
  Fired pop(SimTime& at_out) {
    assert(!empty());
    Fired fired;
    if (!theap_.empty() &&
        (heap_.empty() || earlier(theap_.front(), heap_.front()))) {
      TimerKey top = theap_.front();
      at_out = top.at;
      Timer& t = timers_[top.id];
      fired.timer_fn_ = t.fn;
      fired.timer_ctx_ = t.ctx;
      t.pos = kNil;
      pop_top(theap_, TimerIndex{timers_});
      return fired;
    }
    Key top = heap_.front();
    at_out = top.at;
    if ((top.ref & kSlotTag) != 0) {
      auto slot = static_cast<std::uint32_t>(top.ref >> 1);
      fired.cb_ = std::move(slots_[slot].cb);
      release_slot(slot);
    } else {
      fired.wake_ = Wake::from_bits(top.ref);
    }
    pop_top(heap_, NoIndex{});
    return fired;
  }

  /// Drop every pending event and disarm every timer. Timer
  /// registrations survive.
  void clear() {
    heap_.clear();
    slots_.clear();
    free_head_ = kNil;
    for (const TimerKey& k : theap_) timers_[k.id].pos = kNil;
    theap_.clear();
  }

 private:
  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uintptr_t ref;  // Wake::bits(), or (slot << 1) | kSlotTag
  };
  struct TimerKey {
    SimTime at;
    std::uint64_t seq;
    TimerId id;
  };
  struct Slot {
    Callback cb;
    std::uint32_t next_free = kNil;
  };
  struct Timer {
    TimerFn fn = nullptr;
    void* ctx = nullptr;
    std::uint32_t pos = kNil;  // index in theap_, or kNil when disarmed
    std::uint32_t next_free = kNil;
  };
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uintptr_t kSlotTag = 1;

  // Position trackers for the shared sift code: the event heap needs
  // none, the timer heap records each key's index in its Timer.
  struct NoIndex {
    void operator()(const Key&, std::size_t) const noexcept {}
  };
  struct TimerIndex {
    std::vector<Timer>& timers;
    void operator()(const TimerKey& k, std::size_t i) const noexcept {
      timers[k.id].pos = static_cast<std::uint32_t>(i);
    }
  };

  // Orders keys of either heap against each other.
  template <class A, class B>
  static bool earlier(const A& a, const B& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  template <class K, class Index>
  static void push_key(std::vector<K>& heap, K k, Index index) {
    heap.push_back(k);
    sift_up(heap, heap.size() - 1, index);
  }

  template <class K, class Index>
  static void pop_top(std::vector<K>& heap, Index index) {
    K last = heap.back();
    heap.pop_back();
    if (heap.empty()) return;
    heap.front() = last;
    sift_down(heap, 0, index);
  }

  template <class K, class Index>
  static void sift_up(std::vector<K>& heap, std::size_t i, Index index) {
    K k = heap[i];
    while (i > 0) {
      std::size_t parent = (i - 1) / 2;
      if (!earlier(k, heap[parent])) break;
      heap[i] = heap[parent];
      index(heap[i], i);
      i = parent;
    }
    heap[i] = k;
    index(k, i);
  }

  template <class K, class Index>
  static void sift_down(std::vector<K>& heap, std::size_t i, Index index) {
    K k = heap[i];
    const std::size_t n = heap.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && earlier(heap[child + 1], heap[child])) ++child;
      if (!earlier(heap[child], k)) break;
      heap[i] = heap[child];
      index(heap[i], i);
      i = child;
    }
    heap[i] = k;
    index(k, i);
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
    slots_[s].next_free = free_head_;
    free_head_ = s;
  }

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;
  std::vector<TimerKey> theap_;
  std::vector<Timer> timers_;
  std::uint32_t timer_free_ = kNil;
  std::uint64_t next_seq_ = 0;
};

}  // namespace gridmon::sim
