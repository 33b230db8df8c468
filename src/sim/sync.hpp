#pragma once

#include <coroutine>
#include <deque>
#include <optional>
#include <utility>

#include "sim/engine.hpp"
#include "support/check.hpp"

namespace diva::sim {

/// Multi-waiter condition: tasks suspend on `wait()`, `notifyAll()` resumes
/// every waiter (as fresh events at the current time, preserving the
/// engine's deterministic ordering — notify never re-enters the notifier).
class Condition {
 public:
  explicit Condition(Engine& engine) : engine_(&engine) {}

  auto wait() { return Awaiter{this}; }

  void notifyAll() {
    while (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      engine_->resumeAt(engine_->now(), h);
    }
  }

  void notifyOne() {
    if (waiters_.empty()) return;
    auto h = waiters_.front();
    waiters_.pop_front();
    engine_->resumeAt(engine_->now(), h);
  }

  std::size_t numWaiters() const { return waiters_.size(); }

 private:
  struct Awaiter {
    Condition* cond;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { cond->waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  Engine* engine_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// One-shot future: exactly one producer calls `resolve`, exactly one
/// consumer awaits `wait()`. Used to connect protocol completions (which
/// are event-driven) back to the application coroutine that issued the
/// operation. Resolving before the consumer waits is fine.
template <typename T>
class OneShot {
 public:
  explicit OneShot(Engine& engine) : engine_(&engine) {}
  OneShot(const OneShot&) = delete;
  OneShot& operator=(const OneShot&) = delete;

  void resolve(T value) {
    DIVA_CHECK_MSG(!value_.has_value(), "OneShot resolved twice");
    value_.emplace(std::move(value));
    if (waiter_) engine_->resumeAt(engine_->now(), std::exchange(waiter_, nullptr));
  }

  bool resolved() const { return value_.has_value(); }

  auto wait() { return Awaiter{this}; }

 private:
  struct Awaiter {
    OneShot* self;
    bool await_ready() const noexcept { return self->value_.has_value(); }
    void await_suspend(std::coroutine_handle<> h) {
      DIVA_CHECK_MSG(!self->waiter_, "OneShot awaited twice");
      self->waiter_ = h;
    }
    T await_resume() { return std::move(*self->value_); }
  };

  Engine* engine_;
  std::optional<T> value_;
  std::coroutine_handle<> waiter_ = nullptr;
};

/// Join primitive: `add` registered activities call `done` when they
/// finish; `wait()` suspends until the count reaches zero.
class WaitGroup {
 public:
  explicit WaitGroup(Engine& engine) : cond_(engine) {}

  void add(int n = 1) { count_ += n; }
  void done() {
    DIVA_CHECK_MSG(count_ > 0, "WaitGroup::done without matching add");
    if (--count_ == 0) cond_.notifyAll();
  }
  int count() const { return count_; }

  auto wait() { return Awaiter{this}; }

 private:
  struct Awaiter {
    WaitGroup* wg;
    bool await_ready() const noexcept { return wg->count_ == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      auto aw = wg->cond_.wait();
      aw.await_suspend(h);
    }
    void await_resume() const noexcept {}
  };
  int count_ = 0;
  Condition cond_;
};

}  // namespace diva::sim
