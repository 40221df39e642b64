#pragma once

/// \file resource.hpp
/// Counting semaphore with FIFO hand-off — models thread pools, connection
/// limits, and other capacity-constrained server resources.

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>

#include "gridmon/sim/probe.hpp"
#include "gridmon/sim/simulation.hpp"

namespace gridmon::sim {

class Resource;

/// RAII ownership of one resource slot (Core Guidelines CP.20: never plain
/// acquire/release).
class ResourceLease {
 public:
  ResourceLease() noexcept = default;
  explicit ResourceLease(Resource* r) noexcept : resource_(r) {}
  ResourceLease(ResourceLease&& o) noexcept
      : resource_(std::exchange(o.resource_, nullptr)) {}
  ResourceLease& operator=(ResourceLease&& o) noexcept {
    if (this != &o) {
      release();
      resource_ = std::exchange(o.resource_, nullptr);
    }
    return *this;
  }
  ResourceLease(const ResourceLease&) = delete;
  ResourceLease& operator=(const ResourceLease&) = delete;
  ~ResourceLease() { release(); }

  void release() noexcept;
  bool owns() const noexcept { return resource_ != nullptr; }

 private:
  Resource* resource_ = nullptr;
};

/// FIFO counting semaphore. `co_await res.acquire()` yields a ResourceLease.
class Resource {
 public:
  Resource(Simulation& sim, int capacity)
      : sim_(sim), capacity_(capacity) {
    assert(capacity > 0);
  }
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  int capacity() const noexcept { return capacity_; }
  int in_use() const noexcept { return in_use_; }
  int queue_length() const noexcept {
    return static_cast<int>(waiters_.size());
  }
  /// Total slot-seconds consumed so far (for utilization sampling).
  double busy_integral() const noexcept {
    return busy_integral_ + in_use_ * (sim_.now() - last_change_);
  }
  /// Cumulative number of successful acquisitions.
  std::uint64_t total_acquisitions() const noexcept { return acquisitions_; }

  /// Attach (or detach with nullptr) an occupancy probe: fired whenever
  /// held slots or the waiter queue change.
  void set_probe(UsageProbe* probe) noexcept { probe_ = probe; }

  struct AcquireAwaiter {
    Resource& r;
    bool suspended = false;
    bool await_ready() const noexcept { return r.in_use_ < r.capacity_; }
    void await_suspend(std::coroutine_handle<> h) {
      suspended = true;
      r.waiters_.push_back(h);
      r.notify_probe();
    }
    ResourceLease await_resume() {
      if (!suspended) {
        // Immediate path: claim a free slot ourselves.
        r.note_change();
        ++r.in_use_;
        r.notify_probe();
      }
      // Suspended path: the releaser handed over its slot, so occupancy is
      // already correct.
      ++r.acquisitions_;
      return ResourceLease(&r);
    }
  };

  AcquireAwaiter acquire() noexcept { return AcquireAwaiter{*this}; }

 private:
  friend class ResourceLease;

  void release_slot() {
    if (!waiters_.empty()) {
      // Hand the slot directly to the next waiter; occupancy is unchanged.
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_.schedule_resume(0, h);
    } else {
      note_change();
      --in_use_;
      assert(in_use_ >= 0);
    }
    notify_probe();
  }

  void note_change() {
    busy_integral_ += in_use_ * (sim_.now() - last_change_);
    last_change_ = sim_.now();
  }

  void notify_probe() {
    if (probe_ != nullptr) {
      probe_->on_usage(sim_.now(), static_cast<double>(in_use_),
                       static_cast<double>(waiters_.size()));
    }
  }

  Simulation& sim_;
  int capacity_;
  int in_use_ = 0;
  std::uint64_t acquisitions_ = 0;
  double busy_integral_ = 0;
  SimTime last_change_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
  UsageProbe* probe_ = nullptr;
};

inline void ResourceLease::release() noexcept {
  if (resource_ != nullptr) {
    resource_->release_slot();
    resource_ = nullptr;
  }
}

}  // namespace gridmon::sim
