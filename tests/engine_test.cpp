// Unit tests for the discrete-event simulation kernel: event ordering,
// coroutine task semantics, conditions and one-shot futures.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "support/frame_pool.hpp"

namespace diva::sim {
namespace {

TEST(Engine, ProcessesEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.scheduleAt(30.0, [&] { order.push_back(3); });
  e.scheduleAt(10.0, [&] { order.push_back(1); });
  e.scheduleAt(20.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 30.0);
}

TEST(Engine, SimultaneousEventsAreFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) e.scheduleAt(5.0, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, EventsScheduledInsideEventsRun) {
  Engine e;
  int depth = 0;
  e.scheduleAt(1.0, [&] {
    e.scheduleAfter(1.0, [&] {
      ++depth;
      e.scheduleAfter(1.0, [&] { ++depth; });
    });
  });
  e.run();
  EXPECT_EQ(depth, 2);
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, FifoAmongEqualsAcrossMixedSchedule) {
  // Same-time events must fire in scheduling order even when they are
  // interleaved with events at other times, scheduled from inside events,
  // and separated by many pops of the shared timestamp.
  Engine e;
  std::vector<int> order;
  e.scheduleAt(50.0, [&] { order.push_back(100); });
  for (int i = 0; i < 8; ++i) {
    e.scheduleAt(10.0, [&order, i] { order.push_back(i); });
    e.scheduleAt(90.0, [&order, i] { order.push_back(200 + i); });
  }
  e.scheduleAt(10.0, [&] {
    // Runs at t=10 after the first eight; schedules more at the same time.
    for (int i = 8; i < 12; ++i) e.scheduleAt(10.0, [&order, i] { order.push_back(i); });
  });
  e.run();
  std::vector<int> expect;
  for (int i = 0; i < 12; ++i) expect.push_back(i);
  expect.push_back(100);
  for (int i = 0; i < 8; ++i) expect.push_back(200 + i);
  EXPECT_EQ(order, expect);
}

TEST(Engine, NegativeZeroTimeNormalizes) {
  Engine e;
  double seen = -1.0;
  e.scheduleAt(-0.0, [&] { seen = e.now(); });
  e.scheduleAt(0.0, [&] {});
  e.run();
  EXPECT_DOUBLE_EQ(seen, 0.0);
  EXPECT_FALSE(std::signbit(e.now()));
}

TEST(Engine, MillionEventChurnIsAccountedAndDeterministic) {
  // Steady-state churn at working depth: a population of self-
  // rescheduling events with pseudo-random deltas. Guards the exact event
  // count (every scheduled event fires exactly once) and that two
  // identical runs land on identical clocks.
  struct Churn {
    Engine* e;
    std::uint64_t* budget;
    std::uint64_t rng;
    void operator()() const {
      if (*budget == 0) return;
      --*budget;
      const std::uint64_t next = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      e->scheduleAfter(static_cast<double>(next % 97), Churn{e, budget, next});
    }
  };
  auto runOnce = [] {
    Engine e;
    std::uint64_t budget = 1'000'000 - 512;
    for (std::uint64_t i = 0; i < 512; ++i) {
      e.scheduleAt(static_cast<double>(i % 17), Churn{&e, &budget, i});
    }
    e.run();
    EXPECT_EQ(budget, 0u);
    EXPECT_EQ(e.eventsProcessed(), 1'000'000u);
    EXPECT_TRUE(e.idle());
    EXPECT_EQ(e.pendingEvents(), 0u);
    return e.now();
  };
  const double a = runOnce();
  const double b = runOnce();
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Engine, LargeCapturesStillWork) {
  // Captures beyond EventFn's 48-byte inline buffer take the heap
  // fallback; semantics must be identical.
  Engine e;
  std::array<std::uint64_t, 16> big{};
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i + 1;
  std::uint64_t sum = 0;
  e.scheduleAt(1.0, [big, &sum] {
    for (const auto v : big) sum += v;
  });
  e.run();
  EXPECT_EQ(sum, 136u);
}

TEST(Engine, DestroyedWithPendingEventsReclaimsCaptures) {
  // Captures owning resources must be destroyed when the engine dies with
  // events still queued (the shared_ptr use-count proves it).
  auto token = std::make_shared<int>(7);
  {
    Engine e;
    e.scheduleAt(10.0, [token] {});
    e.scheduleAt(20.0, [token] {});
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Engine, PastEventsClampToNow) {
  Engine e;
  double seen = -1.0;
  e.scheduleAt(10.0, [&] {
    e.scheduleAt(5.0, [&] { seen = e.now(); });  // in the past
  });
  e.run();
  EXPECT_DOUBLE_EQ(seen, 10.0);
}

TEST(Engine, EventCountIsTracked) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.scheduleAt(i, [] {});
  e.run();
  EXPECT_EQ(e.eventsProcessed(), 7u);
}

TEST(Task, DelayAdvancesTime) {
  Engine e;
  double t1 = -1, t2 = -1;
  spawn([](Engine& eng, double& a, double& b) -> Task<> {
    co_await eng.delay(100.0);
    a = eng.now();
    co_await eng.delay(50.0);
    b = eng.now();
  }(e, t1, t2));
  e.run();
  EXPECT_DOUBLE_EQ(t1, 100.0);
  EXPECT_DOUBLE_EQ(t2, 150.0);
}

TEST(Task, NestedTasksReturnValues) {
  Engine e;
  int result = 0;
  auto inner = [](Engine& eng) -> Task<int> {
    co_await eng.delay(10.0);
    co_return 42;
  };
  spawn([](Engine& eng, auto innerFn, int& out) -> Task<> {
    const int a = co_await innerFn(eng);
    const int b = co_await innerFn(eng);
    out = a + b;
  }(e, inner, result));
  e.run();
  EXPECT_EQ(result, 84);
  EXPECT_DOUBLE_EQ(e.now(), 20.0);
}

TEST(Task, OversizedFrameFallsThroughToTheHeap) {
  // A frame larger than FramePool::kMaxPooled bypasses the pool's size
  // classes: it must still run across a suspension, complete and be
  // freed. Under ASan a size mismatch between the frame's allocation and
  // its sized delete fails here, and an unfreed frame leaks.
  Engine e;
  std::uint64_t sum = 0;
  spawn([](Engine& eng, std::uint64_t& out) -> Task<> {
    std::array<std::uint8_t, 2 * support::FramePool::kMaxPooled> buf{};
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(i);
    co_await eng.delay(1.0);  // buf lives across the suspension, so in the frame
    for (const std::uint8_t v : buf) out += v;
  }(e, sum));
  EXPECT_EQ(sum, 0u);
  e.run();
  EXPECT_EQ(sum, 2 * support::FramePool::kMaxPooled / 256 * (255u * 256u / 2u));
}

TEST(Task, ManyConcurrentTasksInterleaveDeterministically) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    spawn([](Engine& eng, std::vector<int>& ord, int id) -> Task<> {
      co_await eng.delay(10.0 * (8 - id));  // reverse completion order
      ord.push_back(id);
    }(e, order, i));
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{7, 6, 5, 4, 3, 2, 1, 0}));
}

TEST(Condition, NotifyAllWakesEveryWaiter) {
  Engine e;
  Condition cond(e);
  int woke = 0;
  for (int i = 0; i < 5; ++i) {
    spawn([](Condition& c, int& n) -> Task<> {
      co_await c.wait();
      ++n;
    }(cond, woke));
  }
  e.scheduleAt(10.0, [&] { cond.notifyAll(); });
  e.run();
  EXPECT_EQ(woke, 5);
}

TEST(Condition, NotifyOneWakesOneWaiter) {
  Engine e;
  Condition cond(e);
  int woke = 0;
  for (int i = 0; i < 3; ++i) {
    spawn([](Condition& c, int& n) -> Task<> {
      co_await c.wait();
      ++n;
    }(cond, woke));
  }
  e.scheduleAt(1.0, [&] { cond.notifyOne(); });
  e.run();
  EXPECT_EQ(woke, 1);
  EXPECT_EQ(cond.numWaiters(), 2u);
  // Drain the remaining waiters: abandoned detached coroutines would leak
  // their frames, and the full suite must stay clean under LSan.
  cond.notifyAll();
  e.run();
  EXPECT_EQ(woke, 3);
}

TEST(OneShot, ResolveBeforeWaitIsImmediate) {
  Engine e;
  OneShot<int> shot(e);
  shot.resolve(7);
  int got = 0;
  spawn([](OneShot<int>& s, int& out) -> Task<> { out = co_await s.wait(); }(shot, got));
  e.run();
  EXPECT_EQ(got, 7);
}

TEST(OneShot, ResolveAfterWaitResumes) {
  Engine e;
  OneShot<int> shot(e);
  int got = 0;
  double when = -1;
  spawn([](Engine& eng, OneShot<int>& s, int& out, double& t) -> Task<> {
    out = co_await s.wait();
    t = eng.now();
  }(e, shot, got, when));
  e.scheduleAt(33.0, [&] { shot.resolve(5); });
  e.run();
  EXPECT_EQ(got, 5);
  EXPECT_DOUBLE_EQ(when, 33.0);
}

TEST(OneShot, DoubleResolveThrows) {
  Engine e;
  OneShot<int> shot(e);
  shot.resolve(1);
  EXPECT_THROW(shot.resolve(2), support::CheckError);
}

TEST(Determinism, SameScheduleSameEventCount) {
  auto runOnce = [] {
    Engine e;
    for (int i = 0; i < 100; ++i) {
      spawn([](Engine& eng, int id) -> Task<> {
        co_await eng.delay(static_cast<double>(id % 7));
        co_await eng.delay(static_cast<double>(id % 3));
      }(e, i));
    }
    e.run();
    return std::pair{e.eventsProcessed(), e.now()};
  };
  const auto a = runOnce();
  const auto b = runOnce();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

}  // namespace
}  // namespace diva::sim
