#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdio>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "support/frame_pool.hpp"

namespace diva::sim {

namespace detail {

/// The pool every coroutine frame of this thread is drawn from. Reads,
/// writes, locks, barriers and mailbox receives each create a frame per
/// call, so after warm-up the frames of a loop recycle instead of
/// hitting the heap.
///
/// Leaked on purpose: a frame can still be live while thread-local and
/// static objects are destroyed at exit (a task parked in a static or a
/// thread-local owner), and freeing it must still find the pool. Parked
/// blocks stay reachable from the pool, so leak checkers see no leak.
/// Only the thread that first creates a coroutine instantiates a pool;
/// the topology-build workers (support/parallel.hpp) never do.
inline support::FramePool& framePool() {
  thread_local support::FramePool* pool = new support::FramePool;
  return *pool;
}

/// Frame allocation for every promise type. The compiler passes the
/// frame size to the sized delete, so no header tracks it.
struct PooledFrame {
  static void* operator new(std::size_t n) { return framePool().allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    framePool().deallocate(p, n);
  }
};

struct PromiseBase : PooledFrame {
  std::coroutine_handle<> continuation;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) const noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  [[noreturn]] void unhandled_exception() noexcept {
    std::fputs("diva::sim: unhandled exception escaped a simulated task\n", stderr);
    std::terminate();
  }
};

/// Where a finished task leaves its result.
template <typename T>
struct ReturnSlot {
  std::optional<T> value;
  template <typename U>
  void return_value(U&& v) {
    value.emplace(std::forward<U>(v));
  }
};

template <>
struct ReturnSlot<void> {
  void return_void() noexcept {}
};

}  // namespace detail

/// Lazy coroutine task. `Task<T>` is the return type of every simulated
/// activity that can suspend (node programs, DIVA operations). Tasks are
/// cold-start: nothing runs until the task is awaited (or detached via
/// `spawn`). On completion the awaiting coroutine is resumed symmetrically.
/// Value and void tasks share this one template; every frame, whatever its
/// `T`, comes from the thread's frame pool (`detail::framePool`).
///
/// Error model: the simulator is deterministic and single-threaded; an
/// exception escaping a coroutine indicates a bug in the library or the
/// application program, so we fail fast instead of propagating.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase, detail::ReturnSlot<T> {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  ~Task() { destroy(); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    handle_.promise().continuation = cont;
    return handle_;
  }
  T await_resume() {
    if constexpr (!std::is_void_v<T>) return std::move(*handle_.promise().value);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) handle_.destroy();
  }
  std::coroutine_handle<promise_type> handle_;
};

namespace detail {

/// Self-destroying wrapper used by `spawn`: runs eagerly, frame frees
/// itself at completion.
struct Detached {
  struct promise_type : PooledFrame {
    Detached get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    [[noreturn]] void unhandled_exception() noexcept {
      std::fputs("diva::sim: unhandled exception escaped a detached task\n", stderr);
      std::terminate();
    }
  };
};

inline Detached spawnImpl(Task<void> task) { co_await std::move(task); }

}  // namespace detail

/// Launch a task as an independent simulated activity ("process"). The
/// task starts running immediately (until its first suspension point);
/// its frame is reclaimed automatically when it finishes.
inline void spawn(Task<void> task) { detail::spawnImpl(std::move(task)); }

}  // namespace diva::sim
