#pragma once

/// \file wake.hpp
/// One wake-up target for the kernel: a suspended coroutine, or a
/// frame-free state machine step.
///
/// The event queue, processor-sharing servers and events park a `Wake`
/// where they used to park a coroutine handle. A `Step` is the header of
/// an awaitable state machine (net::Transfer, net::Connect,
/// net::ServerPort::Admit) that lives in the awaiting coroutine's frame:
/// waking it calls its function pointer, which advances the machine and,
/// when the operation is complete, resumes the awaiting coroutine. Such
/// an operation costs no coroutine frame of its own.
///
/// A Wake is one word. Coroutine frames are at least 16-aligned and a
/// Step at least 8-aligned, so bit 1 tags a Step; bit 0 stays free for
/// the event queue's callback-slot tag.

#include <cassert>
#include <coroutine>
#include <cstdint>

namespace gridmon::sim {

/// Header of a frame-free state machine: `fn(this)` advances it.
struct Step {
  void (*fn)(Step*);
};

class Wake {
 public:
  /// Tag bits a Wake never sets in its payload address.
  static constexpr std::uintptr_t kStepTag = 2;
  static constexpr std::uintptr_t kFreeBit = 1;

  Wake() noexcept = default;
  Wake(std::coroutine_handle<> h) noexcept
      : bits_(reinterpret_cast<std::uintptr_t>(h.address())) {
    assert((bits_ & (kStepTag | kFreeBit)) == 0 &&
           "coroutine frame address must be 4-aligned");
  }
  Wake(Step* step) noexcept
      : bits_(reinterpret_cast<std::uintptr_t>(step) | kStepTag) {
    assert((reinterpret_cast<std::uintptr_t>(step) & 3) == 0);
  }

  /// Resume the coroutine or run the step.
  void operator()() const {
    if ((bits_ & kStepTag) != 0) {
      Step* step = reinterpret_cast<Step*>(bits_ & ~kStepTag);
      step->fn(step);
    } else {
      std::coroutine_handle<>::from_address(reinterpret_cast<void*>(bits_))
          .resume();
    }
  }

  explicit operator bool() const noexcept { return bits_ != 0; }

  /// The tagged word, for storage in a heap key (bit 0 is always clear).
  std::uintptr_t bits() const noexcept { return bits_; }
  static Wake from_bits(std::uintptr_t bits) noexcept {
    Wake w;
    w.bits_ = bits;
    return w;
  }

 private:
  std::uintptr_t bits_ = 0;
};

}  // namespace gridmon::sim
