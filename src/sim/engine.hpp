#pragma once

#include <bit>
#include <coroutine>
#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace diva::sim {

/// Single-threaded discrete-event simulation engine.
///
/// Events are processed in strict (time, insertion order) order: among
/// events with equal timestamps, FIFO. All model code — network transits,
/// protocol handlers, coroutine resumptions — runs inside events, so a
/// run is a pure function of its inputs and seeds.
///
/// The pending-event structure lives in `sim::EventQueue` (see
/// event_queue.hpp): a sorted front tier (a flat array of per-timestamp
/// runs) at the head of the schedule, a calendar-style bucket ring for the
/// densely clustered near future, and a far heap of per-event
/// (time, push sequence) nodes for the tail beyond the ring's window —
/// and for the whole schedule until the ring has calibrated.
/// Callbacks live in pooled `EventFn` slots (40-byte inline capture
/// storage, see event_fn.hpp), so in steady state — once the slot pool,
/// run array and far heap have grown to the simulation's working set —
/// scheduling and dispatching an event allocates nothing, and destroying
/// the engine mid-run reclaims every pending capture.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time. Valid inside event callbacks and after run().
  Time now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (clamped to `now()` if in the past).
  /// The `<=` clamp also normalizes -0.0 to +0.0, preserving the invariant
  /// that timestamps are non-negative doubles (whose raw bit patterns
  /// order the same way as their values).
  template <typename F>
  void scheduleAt(Time t, F&& fn) {
    if (t <= now_) t = now_;
    queue_.push(t, std::forward<F>(fn));
  }

  /// Schedule `fn` `dt` microseconds from now.
  template <typename F>
  void scheduleAfter(Time dt, F&& fn) {
    scheduleAt(now_ + dt, std::forward<F>(fn));
  }

  /// Resume a suspended coroutine at absolute time `t`.
  void resumeAt(Time t, std::coroutine_handle<> h) {
    scheduleAt(t, [h] { h.resume(); });
  }

  /// Pre-size the queue for a known burst of `events` pending events:
  /// the far heap, run array and slot pool grow up front and the
  /// fixed-size bucket ring is allocated, so the burst never grows a
  /// structure mid-run.
  void reserve(std::size_t events) { queue_.reserve(events); }

  /// Run until the event queue drains. Returns the final simulated time.
  Time run() {
    EventFn fn;
    while (!queue_.empty()) {
      // The callback is moved out and its slot recycled before it runs,
      // so it is free to schedule — including at the current time, which
      // lands behind every event already pending at it. If it throws
      // (fail-fast checks propagate out of run()), invokeAndReset still
      // destroys the capture and the queue stays consistent.
      std::uint64_t timeBits;
      queue_.popFrontInto(fn, timeBits);
      now_ = std::bit_cast<Time>(timeBits);
      ++processed_;
      fn.invokeAndReset();
    }
    return now_;
  }

  /// Total number of events processed so far (diagnostics / micro-bench).
  std::uint64_t eventsProcessed() const { return processed_; }

  /// Number of events currently pending (diagnostics).
  std::size_t pendingEvents() const { return queue_.pending(); }

  bool idle() const { return queue_.empty(); }

  /// Queue tier traffic and tuned bucket width (diagnostics / bench).
  /// Ring pushes are derived here — every event ever scheduled that went
  /// through neither sorted tier — so the O(1) ring path carries no
  /// counter of its own.
  EventQueue::Stats queueStats() const {
    EventQueue::Stats s = queue_.stats();
    s.ringPushes = processed_ + queue_.pending() - s.sortedPushes - s.overflowPushes;
    return s;
  }

  /// Live queue-tier occupancy (diagnostics / time-series sampling).
  EventQueue::Occupancy queueOccupancy() const { return queue_.occupancy(); }

  /// Awaitable that suspends the current task until `now() + dt`.
  auto delay(Time dt) { return DelayAwaiter{this, now_ + dt}; }

  /// Awaitable that suspends the current task until absolute time `t`.
  auto delayUntil(Time t) { return DelayAwaiter{this, t}; }

 private:
  struct DelayAwaiter {
    Engine* engine;
    Time when;
    bool await_ready() const noexcept { return when <= engine->now(); }
    void await_suspend(std::coroutine_handle<> h) const { engine->resumeAt(when, h); }
    void await_resume() const noexcept {}
  };

  EventQueue queue_;
  Time now_ = kTimeZero;
  std::uint64_t processed_ = 0;
};

}  // namespace diva::sim
