// Dedicated coverage for the calendar-style event queue behind
// sim::Engine (sim/event_queue.hpp): a randomized differential test
// against a std::priority_queue oracle, and targeted FIFO-among-equals
// checks across the queue's tier boundaries (bucket ring, sorted front
// tier, far heap).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <queue>
#include <tuple>
#include <vector>

#include "sim/engine.hpp"
#include "support/rng.hpp"

namespace diva::sim {
namespace {

// ---------------------------------------------------------------------------
// Differential test: the engine vs a (time, sequence) priority queue
// ---------------------------------------------------------------------------

/// Reference implementation of the engine's documented ordering: strict
/// (time, insertion order). Same clamp-to-now semantics as Engine.
class OracleEngine {
 public:
  void scheduleAt(double t, int id) {
    if (t <= now_) t = now_;
    heap_.push(Entry{t, seq_++, id});
  }

  /// Drains the queue; calls `fire(id)` for every event in order. The
  /// callback may schedule more events via scheduleAt.
  template <typename F>
  void run(F&& fire) {
    while (!heap_.empty()) {
      const Entry e = heap_.top();
      heap_.pop();
      now_ = e.time;
      fire(e.id);
    }
  }

  double now() const { return now_; }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    int id;
    bool operator>(const Entry& o) const {
      return std::tie(time, seq) > std::tie(o.time, o.seq);
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
};

/// The shared scenario: event `id` fires at some time and deterministically
/// schedules children whose deltas mix the schedule shapes the tiers are
/// built for — dense quantized near-future times (bucket ring), re-entrant
/// zero deltas (sorted front tier), far-future spikes (overflow), and
/// repeated exact timestamps (FIFO among equals). Both engines run the same
/// generator, so any divergence in firing order or clocks is a queue bug.
struct Scenario {
  std::uint64_t seed;
  int maxEvents;

  /// Children of `id` as (delta, childId) pairs, derived purely from the
  /// scenario seed and `id`.
  template <typename Schedule>
  void expand(int id, int& nextId, Schedule&& schedule) const {
    support::SplitMix64 rng(support::hashCombine(seed, static_cast<std::uint64_t>(id)));
    const int kids = static_cast<int>(rng.below(3));  // 0..2 children
    for (int k = 0; k < kids; ++k) {
      if (nextId >= maxEvents) return;
      double delta = 0.0;
      switch (rng.below(8)) {
        case 0: delta = 0.0; break;                                    // re-entrant at now
        case 1: delta = 5.0; break;                                    // the quantum
        case 2: delta = 5.0 * static_cast<double>(1 + rng.below(4)); break;
        case 3: delta = 2500.0 + static_cast<double>(rng.below(5)) * 250.0; break;
        case 4: delta = 40000.0; break;                                // deep overflow
        case 5: delta = 0.25 * static_cast<double>(rng.below(40)); break;  // sub-quantum
        default: delta = static_cast<double>(rng.below(97)); break;    // dense integers
      }
      schedule(delta, nextId++);
    }
  }
};

TEST(EventQueue, MatchesPriorityQueueOracleOnMixedSchedules) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull, 99991ull}) {
    const Scenario sc{seed, 20000};

    // Real engine run.
    std::vector<std::pair<int, double>> realLog;
    double realEnd = 0.0;
    {
      Engine e;
      int nextId = 1000;
      // Fire closure: records, then expands children (shared generator).
      struct Fire {
        Engine* e;
        const Scenario* sc;
        std::vector<std::pair<int, double>>* log;
        int* nextId;
        int id;
        void operator()() const {
          log->emplace_back(id, e->now());
          sc->expand(id, *nextId, [&](double delta, int child) {
            e->scheduleAfter(delta, Fire{e, sc, log, nextId, child});
          });
        }
      };
      for (int i = 0; i < 64; ++i) {
        e.scheduleAt(static_cast<double>(i % 13), Fire{&e, &sc, &realLog, &nextId, i});
      }
      realEnd = e.run();
    }

    // Oracle run of the same scenario.
    std::vector<std::pair<int, double>> oracleLog;
    double oracleEnd = 0.0;
    {
      OracleEngine e;
      int nextId = 1000;
      for (int i = 0; i < 64; ++i) e.scheduleAt(static_cast<double>(i % 13), i);
      e.run([&](int id) {
        oracleLog.emplace_back(id, e.now());
        sc.expand(id, nextId, [&](double delta, int child) {
          e.scheduleAt(e.now() + delta, child);
        });
      });
      oracleEnd = e.now();
    }

    ASSERT_EQ(realLog.size(), oracleLog.size()) << "seed " << seed;
    for (std::size_t i = 0; i < realLog.size(); ++i) {
      ASSERT_EQ(realLog[i].first, oracleLog[i].first)
          << "firing order diverged at event " << i << " (seed " << seed << ")";
      ASSERT_EQ(realLog[i].second, oracleLog[i].second)
          << "clock diverged at event " << i << " (seed " << seed << ")";
    }
    EXPECT_EQ(realEnd, oracleEnd) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Open-loop shape: a pre-loaded far-future burst, then hop churn
// ---------------------------------------------------------------------------

/// An open-loop workload's schedule: every arrival of a phase is queued
/// before the engine runs (node-major, ascending per node, so the pushes
/// interleave in time), spread over seconds; the work itself is chains
/// of 5 µs hops, some hops re-entrantly pushing a same-time event. Each
/// arrival also schedules a twin at its node's next arrival time, so two
/// events share that far-future instant (an arrival marker and a serve
/// coroutine's wake). Each event is (id, hops left); children derive
/// purely from the id, so the engine and the oracle run the identical
/// schedule.
struct HopChurn {
  static constexpr int kNodes = 64;
  static constexpr int kArrivalsPerNode = 64;
  static constexpr int kSeedChains = 8;
  static constexpr int kSeedHops = 3000;
  static constexpr int kArrivalHops = 20;

  /// Distinct arrival times in [1 s, 11 s), in push order.
  static std::vector<double> arrivals() {
    std::vector<double> times;
    for (int node = 0; node < kNodes; ++node) {
      double t = 1e6;
      support::SplitMix64 rng(static_cast<std::uint64_t>(node) + 1);
      for (int i = 0; i < kArrivalsPerNode; ++i) {
        t += 1.0 + rng.uniform() * 2.0 * 1e7 / kArrivalsPerNode;
        times.push_back(t + static_cast<double>(node) * 1e-3);  // distinct across nodes
      }
    }
    return times;
  }

  /// Arrival `id` (its index in arrivals()) has a twin unless it is its
  /// node's last; the twin fires at arrivals()[id + 1] with no hops.
  static bool hasTwin(int id) {
    return id < kNodes * kArrivalsPerNode && (id + 1) % kArrivalsPerNode != 0;
  }

  /// Children of event `id` with `hops` left, as (delta, hops) pairs.
  template <typename Schedule>
  static void expand(int id, int hops, Schedule&& schedule) {
    if (hops == 0) return;
    schedule(5.0, hops - 1);
    support::SplitMix64 rng(support::hashCombine(0x5eedu, static_cast<std::uint64_t>(id)));
    if (rng.below(8) == 0) schedule(0.0, 0);  // re-entrant, same instant
  }
};

TEST(EventQueue, PreloadedBurstThenHopChurnRidesTheRing) {
  const std::vector<double> arrivals = HopChurn::arrivals();

  std::vector<std::pair<int, double>> realLog;
  double realEnd = 0.0;
  EventQueue::Stats atActivation{};
  EventQueue::Stats final{};
  {
    Engine e;
    int nextId = 0;
    struct Fire {
      Engine* e;
      const std::vector<double>* arrivals;
      std::vector<std::pair<int, double>>* log;
      int* nextId;
      EventQueue::Stats* atActivation;
      int id;
      int hops;
      void operator()() const {
        if (atActivation->bucketWidthUs == 0.0 && e->queueStats().bucketWidthUs > 0.0) {
          *atActivation = e->queueStats();
        }
        log->emplace_back(id, e->now());
        HopChurn::expand(id, hops, [&](double delta, int childHops) {
          e->scheduleAfter(delta,
                           Fire{e, arrivals, log, nextId, atActivation, (*nextId)++, childHops});
        });
        if (HopChurn::hasTwin(id)) {
          e->scheduleAt((*arrivals)[static_cast<std::size_t>(id) + 1],
                        Fire{e, arrivals, log, nextId, atActivation, (*nextId)++, 0});
        }
      }
    };
    for (const double t : arrivals) {
      e.scheduleAt(t, Fire{&e, &arrivals, &realLog, &nextId, &atActivation, nextId++,
                           HopChurn::kArrivalHops});
    }
    for (int c = 0; c < HopChurn::kSeedChains; ++c) {
      e.scheduleAt(static_cast<double>(c), Fire{&e, &arrivals, &realLog, &nextId,
                                                &atActivation, nextId++, HopChurn::kSeedHops});
    }
    realEnd = e.run();
    final = e.queueStats();
  }

  std::vector<std::pair<int, double>> oracleLog;
  double oracleEnd = 0.0;
  {
    OracleEngine e;
    std::vector<int> hopsOf;
    for (const double t : arrivals) {
      e.scheduleAt(t, static_cast<int>(hopsOf.size()));
      hopsOf.push_back(HopChurn::kArrivalHops);
    }
    for (int c = 0; c < HopChurn::kSeedChains; ++c) {
      e.scheduleAt(static_cast<double>(c), static_cast<int>(hopsOf.size()));
      hopsOf.push_back(HopChurn::kSeedHops);
    }
    e.run([&](int id) {
      oracleLog.emplace_back(id, e.now());
      HopChurn::expand(id, hopsOf[static_cast<std::size_t>(id)], [&](double delta, int childHops) {
        e.scheduleAt(e.now() + delta, static_cast<int>(hopsOf.size()));
        hopsOf.push_back(childHops);
      });
      if (HopChurn::hasTwin(id)) {
        e.scheduleAt(arrivals[static_cast<std::size_t>(id) + 1], static_cast<int>(hopsOf.size()));
        hopsOf.push_back(0);
      }
    });
    oracleEnd = e.now();
  }

  ASSERT_EQ(realLog.size(), oracleLog.size());
  for (std::size_t i = 0; i < realLog.size(); ++i) {
    ASSERT_EQ(realLog[i].first, oracleLog[i].first) << "firing order diverged at event " << i;
    ASSERT_EQ(realLog[i].second, oracleLog[i].second) << "clock diverged at event " << i;
  }
  EXPECT_EQ(realEnd, oracleEnd);

  // The burst must not size the ring: once it activates, the 5 µs hops
  // land in ring buckets and only the re-entrant same-instant pushes (one
  // hop in eight) take the sorted front tier.
  ASSERT_GT(atActivation.bucketWidthUs, 0.0) << "ring never activated";
  EXPECT_LE(atActivation.bucketWidthUs, 5.0);
  const std::uint64_t ring = final.ringPushes - atActivation.ringPushes;
  const std::uint64_t sorted = final.sortedPushes - atActivation.sortedPushes;
  EXPECT_GT(ring, 4 * sorted) << "ring " << ring << ", sorted " << sorted;
}

// ---------------------------------------------------------------------------
// FIFO-among-equals across tier boundaries
// ---------------------------------------------------------------------------

/// Drives the engine past calibration with a dense schedule so the bucket
/// ring is active, then returns the calibrated width (sanity-checked so
/// the boundary tests below know which tier a given delta lands in). The
/// schedule spans 300 distinct unit-spaced times: calibration needs 256
/// positive dispatch gaps.
double activateRing(Engine& e) {
  int fired = 0;
  for (int i = 0; i < 400; ++i) {
    e.scheduleAt(static_cast<double>(i % 300), [&fired] { ++fired; });
  }
  e.run();
  const double w = e.queueStats().bucketWidthUs;
  EXPECT_GT(w, 0.0) << "ring failed to calibrate";
  return w;
}

TEST(EventQueue, FifoPreservedWhenOverflowMigratesIntoRing) {
  Engine e;
  const double w = activateRing(e);
  // The window covers kNumBuckets buckets; pick a target far beyond it
  // so the first event provably enters the overflow tier.
  const double horizon = w * static_cast<double>(EventQueue::kNumBuckets);
  const double target = e.now() + horizon * 4.0 + 1000.0;
  ASSERT_LT(e.now() + horizon, target);

  std::vector<int> order;
  // A: scheduled while `target` is beyond the window -> overflow tier.
  e.scheduleAt(target, [&] { order.push_back(0); });
  // Stepping stones walk now() forward so the window slides over `target`
  // (each step stays inside the then-current window).
  const int steps = 12;
  for (int i = 1; i <= steps; ++i) {
    const double at = e.now() + (target - 1.0 - e.now()) * i / steps;
    const int idx = i;
    e.scheduleAt(at, [&order, &e, target, idx, steps] {
      if (idx == steps) {
        // B: same absolute timestamp, scheduled after the window slid
        // (the time now lives in the ring or front tier). FIFO demands
        // it fires after A.
        e.scheduleAt(target, [&order] { order.push_back(1); });
      }
    });
  }
  e.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0) << "overflow-tier event must keep its FIFO slot";
  EXPECT_EQ(order[1], 1);
  EXPECT_GT(e.queueStats().overflowPushes, 0u) << "scenario never hit the overflow tier";
  EXPECT_GT(e.queueStats().migratedEvents, 0u) << "scenario never migrated";
}

TEST(EventQueue, FifoPreservedAcrossBucketRedistribution) {
  Engine e;
  const double w = activateRing(e);
  // Interleaved same-time pushes at a time a few buckets ahead (ring
  // tier), plus same-time pushes issued from an event in the preceding
  // bucket-or-same-bucket region (front tier after redistribution).
  const double target = e.now() + 4.0 * w + w * 0.5;
  std::vector<int> order;
  e.scheduleAt(target, [&] { order.push_back(0); });
  e.scheduleAt(target + w, [&] { order.push_back(100); });  // decoy, later bucket
  e.scheduleAt(target, [&] { order.push_back(1); });
  e.scheduleAt(target - 0.25 * w, [&] {
    // Runs just before `target`; by now target's bucket is either being
    // drained (front tier) or still in the ring — both must append.
    e.scheduleAt(target, [&order] { order.push_back(2); });
  });
  e.scheduleAt(target, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 2, 100}));
}

TEST(EventQueue, ReentrantSchedulingAtNowStaysFifoAfterCalibration) {
  Engine e;
  activateRing(e);
  std::vector<int> order;
  const double t = e.now() + 17.0;
  e.scheduleAt(t, [&] {
    order.push_back(0);
    e.scheduleAt(t, [&order] { order.push_back(2); });  // behind the pending group
  });
  e.scheduleAt(t, [&] { order.push_back(1); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, JumpOverEmptyWindowKeepsOrder) {
  // Sparse far-apart events after calibration: the ring repeatedly runs
  // dry and the window jumps to the overflow minimum.
  Engine e;
  activateRing(e);
  std::vector<double> times;
  double t = e.now();
  for (int i = 0; i < 40; ++i) {
    t += 1e5 + 13.0 * i;  // far beyond any plausible window
    e.scheduleAt(t, [&times, &e] { times.push_back(e.now()); });
  }
  e.run();
  ASSERT_EQ(times.size(), 40u);
  for (std::size_t i = 1; i < times.size(); ++i) EXPECT_LT(times[i - 1], times[i]);
  EXPECT_EQ(e.now(), t);
}

TEST(EventQueue, InfiniteTimestampsFireLastInFifoOrder) {
  // t = +infinity is a legal timestamp (a zero-bandwidth cost model
  // yields infinite stream times): it must sort after every finite time
  // and stay FIFO among equals, and must not poison the window-jump
  // arithmetic once the ring is active.
  {
    // Pushed before the ring calibrates, so they wait in the far heap
    // through activation and drain after every finite time.
    Engine pre;
    std::vector<int> preOrder;
    const double inf = std::numeric_limits<double>::infinity();
    pre.scheduleAt(inf, [&] { preOrder.push_back(97); });
    pre.scheduleAt(inf, [&] { preOrder.push_back(98); });
    activateRing(pre);
    EXPECT_EQ(preOrder, (std::vector<int>{97, 98}));
    EXPECT_EQ(pre.now(), inf);
  }
  Engine e;
  activateRing(e);
  std::vector<int> order;
  const double inf = std::numeric_limits<double>::infinity();
  e.scheduleAt(inf, [&] { order.push_back(99); });
  e.scheduleAt(e.now() + 5.0, [&] { order.push_back(1); });
  e.scheduleAt(inf, [&] { order.push_back(100); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 99, 100}));
  EXPECT_EQ(e.now(), inf);
}

TEST(EventQueue, StatsExposeTierTraffic) {
  Engine e;
  activateRing(e);
  const auto& before = e.queueStats();
  EXPECT_GT(before.bucketWidthUs, 0.0);
  // A dense burst after calibration rides the ring: total pushes grow,
  // sorted pushes stay (nearly) flat.
  const auto sortedBefore = before.sortedPushes;
  const auto ringBefore = before.ringPushes;
  for (int i = 0; i < 256; ++i) {
    e.scheduleAfter(1.0 + static_cast<double>(i % 7), [] {});
  }
  e.run();
  const auto after = e.queueStats();
  EXPECT_GE(after.ringPushes, ringBefore + 200);
  EXPECT_LE(after.sortedPushes, sortedBefore + 56);
}

}  // namespace
}  // namespace diva::sim
