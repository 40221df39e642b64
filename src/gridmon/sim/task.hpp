#pragma once

/// \file task.hpp
/// Coroutine task type for simulation processes.
///
/// A `Task<T>` is a lazily-started coroutine: creating one does not run any
/// code; it runs when first awaited (or when handed to Simulation::spawn).
/// Awaiting a task suspends the caller until the task completes and then
/// yields its result (symmetric transfer, so arbitrarily deep call chains do
/// not grow the machine stack).
///
/// Tasks are single-owner, move-only RAII handles over the coroutine frame
/// (Core Guidelines R.1). A task that is awaited is kept alive by the
/// awaiting coroutine's frame; a task that is spawned is owned by the
/// Simulation until it finishes.

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "gridmon/sim/frame_pool.hpp"

namespace gridmon::sim {

template <typename T>
class Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }

  // Route every Task<T> coroutine frame through the recycling pool; frame
  // churn (one frame per query attempt / transfer / timer) dominates the
  // allocator profile of large sweeps otherwise.
  static void* operator new(std::size_t size) {
    return frame_pool().allocate(size);
  }
  static void operator delete(void* p) noexcept {
    frame_pool().deallocate(p);
  }
};

/// On final suspend, transfer control to whichever coroutine was awaiting
/// this one (if any). The frame itself is destroyed by the owning Task.
template <typename Promise>
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    auto cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;

  Task<T> get_return_object();
  FinalAwaiter<Promise> final_suspend() noexcept { return {}; }
  void return_value(T v) { value = std::move(v); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  FinalAwaiter<Promise> final_suspend() noexcept { return {}; }
  void return_void() {}
};

}  // namespace detail

/// A lazily-started simulation coroutine returning T.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using handle_type = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(handle_type h) noexcept : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  /// True if this task holds a live coroutine frame.
  bool valid() const noexcept { return static_cast<bool>(handle_); }
  /// True once the coroutine has run to completion.
  bool done() const noexcept { return handle_ && handle_.done(); }

  /// Start or resume the coroutine directly. Used by the Simulation when
  /// running spawned (detached) tasks; most code should `co_await` instead.
  void resume() const {
    if (handle_ && !handle_.done()) handle_.resume();
  }

  /// Rethrow any exception the completed coroutine captured.
  void rethrow_if_exception() const {
    if (handle_ && handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

  struct Awaiter {
    handle_type handle;
    bool await_ready() const noexcept { return !handle || handle.done(); }
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<> cont) noexcept {
      handle.promise().continuation = cont;
      return handle;  // start the child coroutine now
    }
    T await_resume() const {
      if (handle.promise().exception) {
        std::rethrow_exception(handle.promise().exception);
      }
      if constexpr (!std::is_void_v<T>) {
        return std::move(*handle.promise().value);
      }
    }
  };

  Awaiter operator co_await() const& noexcept { return Awaiter{handle_}; }

  handle_type native_handle() const noexcept { return handle_; }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  handle_type handle_;
};

namespace detail {

template <typename T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace gridmon::sim
