#pragma once

/// \file frame_pool.hpp
/// Size-bucketed free-list allocator for coroutine frames.
///
/// A simulation run creates and destroys millions of short-lived coroutine
/// frames (one per query attempt, transfer, timer). The default allocator
/// round-trips each frame through malloc/free; this pool instead recycles
/// freed frames in per-size buckets, so steady-state frame allocation is a
/// pointer swap. Memory is retained until process exit (the pool holds the
/// peak frame population, which is bounded by the peak number of live
/// coroutines).
///
/// The pool is thread_local: the simulator is single-threaded, and this
/// keeps independent test threads from sharing free lists.

#include <cstddef>
#include <cstdint>
#include <new>

namespace gridmon::sim::detail {

/// Deterministic frame counters: the same run allocates the same frames.
struct FramePoolStats {
  std::uint64_t allocations = 0;  // frames handed out
  std::uint64_t pool_hits = 0;    // of those, recycled from a free list
  /// Bytes held by live frames, header and bucket rounding included.
  std::size_t live_bytes = 0;
};

class FramePool {
 public:
  const FramePoolStats& stats() const noexcept { return stats_; }

  void* allocate(std::size_t size) {
    // A 16-byte header keeps max_align_t alignment for the frame and
    // records the block size so deallocate() can rebucket without a size
    // argument (coroutine frame deletes are unsized on some compilers).
    std::size_t total = size + kHeader;
    void* raw;
    if (total > kMaxPooled) {
      raw = ::operator new(total);
    } else {
      std::size_t bucket = (total + kGranularity - 1) / kGranularity;
      total = bucket * kGranularity;
      FreeNode*& head = buckets_[bucket - 1];
      if (head != nullptr) {
        raw = head;
        head = head->next;
        ++stats_.pool_hits;
      } else {
        raw = ::operator new(total);
      }
    }
    *static_cast<std::size_t*>(raw) = total;
    ++stats_.allocations;
    stats_.live_bytes += total;
    return static_cast<char*>(raw) + kHeader;
  }

  void deallocate(void* p) noexcept {
    void* raw = static_cast<char*>(p) - kHeader;
    std::size_t total = *static_cast<std::size_t*>(raw);
    stats_.live_bytes -= total;
    if (total > kMaxPooled) {
      ::operator delete(raw);
      return;
    }
    auto* node = static_cast<FreeNode*>(raw);
    std::size_t bucket = total / kGranularity;
    node->next = buckets_[bucket - 1];
    buckets_[bucket - 1] = node;
  }

  ~FramePool() {
    for (FreeNode*& head : buckets_) {
      while (head != nullptr) {
        FreeNode* next = head->next;
        ::operator delete(head);
        head = next;
      }
    }
  }

 private:
  static constexpr std::size_t kHeader = 16;
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kMaxPooled = 8192;

  struct FreeNode {
    FreeNode* next;
  };

  FreeNode* buckets_[kMaxPooled / kGranularity] = {};
  FramePoolStats stats_;
};

inline FramePool& frame_pool() {
  static thread_local FramePool pool;
  return pool;
}

}  // namespace gridmon::sim::detail
