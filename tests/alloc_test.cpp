// Steady-state allocation accounting for the simulator hot path, via a
// counting global allocator: once the engine, pools and dispatch tables
// have grown to a workload's working set, scheduling events and moving
// messages end to end must perform zero heap allocations. Also proves the
// pending-event leak fix without a sanitizer: tearing a machine down with
// messages still in flight returns the outstanding-allocation count to
// its pre-construction level.
//
// This lives in its own test binary: replacing the global allocator must
// not perturb the rest of the suite.

#include <gtest/gtest.h>

// GCC's inliner flags the pass-through `::operator delete(p)` →
// `std::free` chain below as a mismatched pair; the pairing is correct
// (every path allocates with malloc/aligned_alloc).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "diva/machine.hpp"
#include "diva/runtime.hpp"
#include "net/graph_topology.hpp"
#include "obs/tracer.hpp"
#include "serve/latency_histogram.hpp"
#include "sim/engine.hpp"

namespace {

std::atomic<std::uint64_t> gAllocs{0};
std::atomic<std::uint64_t> gFrees{0};

}  // namespace

// Count every allocation path the library can take (sized, aligned,
// nothrow). gtest itself allocates too, so tests only compare counts
// taken at points where no framework allocation can interleave.
void* operator new(std::size_t n) {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(a),
                                   (n + static_cast<std::size_t>(a) - 1) &
                                       ~(static_cast<std::size_t>(a) - 1))) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t a) { return ::operator new(n, a); }

void operator delete(void* p) noexcept {
  if (p != nullptr) gFrees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { ::operator delete(p); }

namespace diva {
namespace {

using net::NodeId;

std::uint64_t allocCount() { return gAllocs.load(std::memory_order_relaxed); }
std::int64_t outstanding() {
  return static_cast<std::int64_t>(gAllocs.load(std::memory_order_relaxed)) -
         static_cast<std::int64_t>(gFrees.load(std::memory_order_relaxed));
}

TEST(Alloc, EngineEventChurnIsAllocationFreeInSteadyState) {
  struct Churn {
    sim::Engine* e;
    std::uint64_t* budget;
    std::uint64_t rng;
    void operator()() const {
      if (*budget == 0) return;
      --*budget;
      const std::uint64_t next = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      e->scheduleAfter(static_cast<double>(next % 97), Churn{e, budget, next});
    }
  };
  sim::Engine e;
  // Warm-up: grows the far heap, run array and slot pool to working depth
  // (and calibrates the bucket ring).
  std::uint64_t budget = 50'000;
  for (std::uint64_t i = 0; i < 512; ++i) {
    e.scheduleAt(static_cast<double>(i % 17), Churn{&e, &budget, i});
  }
  e.run();

  // Steady state: the same churn again, at the same working depth, must
  // not allocate at all — schedule, bucket, sift, dispatch and recycle
  // included.
  budget = 100'000;
  for (std::uint64_t i = 0; i < 512; ++i) {
    e.scheduleAt(e.now() + static_cast<double>(i % 17), Churn{&e, &budget, i});
  }
  const std::uint64_t before = allocCount();
  e.run();
  EXPECT_EQ(allocCount() - before, 0u) << "event hot path allocated";
  EXPECT_EQ(e.eventsProcessed(), 50'000u + 512u + 100'000u + 512u);
}

TEST(Alloc, BothQueueTiersAreAllocationFreeInSteadyState) {
  // Like the churn above, but the delta distribution deliberately mixes
  // dense near-future times (bucket ring), re-entrant zero deltas (sorted
  // front tier) and far-future spikes well beyond the ring window
  // (overflow tier + migration), so steady state is proven across every
  // tier transition, not just the ring.
  struct Churn {
    sim::Engine* e;
    std::uint64_t* budget;
    std::uint64_t rng;
    void operator()() const {
      if (*budget == 0) return;
      --*budget;
      const std::uint64_t next = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      double delta;
      switch (next % 8) {
        case 0: delta = 0.0; break;
        case 1: delta = 50'000.0 + static_cast<double>(next % 1000); break;
        default: delta = static_cast<double>(next % 97); break;
      }
      e->scheduleAfter(delta, Churn{e, budget, next});
    }
  };
  sim::Engine e;
  std::uint64_t budget = 50'000;
  for (std::uint64_t i = 0; i < 512; ++i) {
    e.scheduleAt(static_cast<double>(i % 17), Churn{&e, &budget, i});
  }
  e.run();
  const auto warm = e.queueStats();
  ASSERT_GT(warm.bucketWidthUs, 0.0) << "ring never calibrated";
  ASSERT_GT(warm.overflowPushes, 0u) << "workload never reached the overflow tier";
  ASSERT_GT(warm.migratedEvents, 0u) << "overflow events never migrated into the ring";

  budget = 100'000;
  for (std::uint64_t i = 0; i < 512; ++i) {
    e.scheduleAt(e.now() + static_cast<double>(i % 17), Churn{&e, &budget, i});
  }
  const std::uint64_t before = allocCount();
  e.run();
  EXPECT_EQ(allocCount() - before, 0u) << "two-tier churn allocated";
}

TEST(Alloc, UncalibratedSameInstantChainsStayAllocationFree) {
  // A schedule with no positive inter-event spacing never activates the
  // bucket ring; the run-array front tier must still recycle its storage
  // (O(1) memory) rather than retiring a dead run per event.
  struct Chain {
    sim::Engine* e;
    std::uint64_t* budget;
    void operator()() const {
      if (*budget == 0) return;
      --*budget;
      e->scheduleAt(e->now(), Chain{e, budget});  // same instant, forever
    }
  };
  sim::Engine e;
  std::uint64_t budget = 10'000;
  e.scheduleAt(0.0, Chain{&e, &budget});
  e.run();  // warm-up
  ASSERT_EQ(e.queueStats().bucketWidthUs, 0.0) << "ring unexpectedly calibrated";
  budget = 100'000;
  e.scheduleAt(e.now(), Chain{&e, &budget});
  const std::uint64_t before = allocCount();
  e.run();
  EXPECT_EQ(allocCount() - before, 0u) << "uncalibrated same-instant chain allocated";
}

TEST(Alloc, ReservePreSizesQueueForColdBurst) {
  // Engine::reserve must pre-size everything growable — the far heap,
  // the run array, the slot pool and the ring — so a known burst on a
  // *cold* engine allocates nothing at all, warm-up included.
  sim::Engine e;
  e.reserve(4096);
  int fired = 0;
  const std::uint64_t before = allocCount();
  for (int i = 0; i < 4096; ++i) {
    // All-distinct timestamps spanning quantized near times and a sparse
    // far tail: the worst case for every structure reserve() pre-sizes.
    const double t = (i % 2 == 0) ? 1.0 + 0.5 * i : 100'000.0 + 3.0 * i;
    e.scheduleAt(t, [&fired] { ++fired; });
  }
  e.run();
  EXPECT_EQ(allocCount() - before, 0u) << "reserved burst still allocated";
  EXPECT_EQ(fired, 4096);
}

TEST(Alloc, ReservedPreloadedBurstActivatesWithoutAllocating) {
  // An open-loop phase on a cold engine: a burst of far-future arrivals
  // is queued before the engine runs, and unit-spaced events at the head
  // of the schedule calibrate the bucket ring. Until then every event
  // waits in the far heap; activation moves the head events inside the
  // window into ring buckets and leaves the burst in the heap. With
  // Engine::reserve sized for every pending event (heap, runs, slots and
  // ring), none of it — activation, migration, draining — allocates.
  constexpr int kHead = 512;
  constexpr int kEvents = 4096;
  sim::Engine e;
  e.reserve(kEvents);
  int fired = 0;
  sim::EventQueue::Occupancy afterActivation{};
  const std::uint64_t before = allocCount();
  for (int i = 0; i < kEvents; ++i) {
    // Arrivals: distinct times over ~10 s, pushed out of order (37 is
    // coprime to the 3,584 arrival slots).
    const double t = i < kHead ? static_cast<double>(i)
                               : 1e6 + 2791.0 * static_cast<double>((i * 37) % (kEvents - kHead));
    e.scheduleAt(t, [&fired, &afterActivation, &e] {
      if (++fired == kHead) afterActivation = e.queueOccupancy();
    });
  }
  e.run();
  EXPECT_EQ(allocCount() - before, 0u) << "reserved pre-loaded burst allocated";
  EXPECT_EQ(fired, kEvents);
  EXPECT_GT(e.queueStats().bucketWidthUs, 0.0) << "ring never activated";
  EXPECT_EQ(afterActivation.overflowEvents, static_cast<std::size_t>(kEvents - kHead))
      << "the burst was not re-placed into the overflow tier";
}

// Relay churn: every node forwards each arriving message to a
// pseudo-random next node on the protocol channel — cycling through
// remote and deliberately local (src == dst) sends. Exercises remote
// flights (pooled, inline routes), local messages (carried by the same
// pooled flights) and dense handler dispatch. 8×8 keeps every route
// within the 16-hop inline capacity.
void registerRelayHandlers(Machine& m, std::uint64_t& budget) {
  const NodeId procs = static_cast<NodeId>(m.numProcs());
  for (NodeId p = 0; p < procs; ++p) {
    m.net.setHandler(p, net::kProtocolChannel, [&m, &budget, procs](net::Message&& msg) {
      if (budget == 0) return;
      --budget;
      const NodeId next = static_cast<NodeId>((msg.dst * 13 + budget % 3) % procs);
      m.net.post(net::Message{msg.dst, next, net::kProtocolChannel, 64, {}});
    });
  }
}

void injectSeedMessages(Machine& m) {
  const NodeId procs = static_cast<NodeId>(m.numProcs());
  for (NodeId p = 0; p < procs; ++p) {
    m.net.post(net::Message{p, static_cast<NodeId>((p + procs / 2) % procs),
                            net::kProtocolChannel, 64, {}});
  }
}

TEST(Alloc, MessagePipelineIsAllocationFreeInSteadyState) {
  Machine m(8, 8);
  std::uint64_t budget = 20'000;
  registerRelayHandlers(m, budget);
  injectSeedMessages(m);
  m.engine.run();  // warm-up: pools, routes, link tables
  ASSERT_EQ(budget, 0u);

  // Steady state, absorption only: messages traverse the full pipeline
  // and die in the (drained) handlers.
  injectSeedMessages(m);
  const std::uint64_t before = allocCount();
  m.engine.run();
  EXPECT_EQ(allocCount() - before, 0u) << "message hot path allocated";

  // Steady state, full relay churn at the warm working set.
  budget = 20'000;
  injectSeedMessages(m);
  const std::uint64_t before2 = allocCount();
  m.engine.run();
  EXPECT_EQ(allocCount() - before2, 0u)
      << "steady-state relay churn allocated on the message path";
  EXPECT_EQ(budget, 0u);
}

// Graph-routed message churn: the same relay workload on a 48-node ring,
// where table-driven routes reach 24 hops and so spill past the 16-hop
// inline route buffer. The spilled capacity lives in the recycled
// flights, so after warm-up even these long graph routes move messages
// end to end without touching the heap — the proof that generalizing
// routing from closed-form arithmetic to table lookup did not regress
// the allocation-free hot path.
TEST(Alloc, GraphRoutedMessageChurnIsAllocationFreeInSteadyState) {
  Machine m(net::TopologySpec::graph(net::ringGraph(48)));
  std::uint64_t budget = 20'000;
  registerRelayHandlers(m, budget);
  injectSeedMessages(m);  // p -> p + 24: the diameter route on the ring
  m.engine.run();         // warm-up: pools, spilled route buffers, link tables
  ASSERT_EQ(budget, 0u);

  budget = 20'000;
  injectSeedMessages(m);
  const std::uint64_t before = allocCount();
  m.engine.run();
  EXPECT_EQ(allocCount() - before, 0u)
      << "steady-state graph-routed churn allocated on the message path";
  EXPECT_EQ(budget, 0u);
}

// Mailbox-heavy steady state: a token circulates a ring of coroutines
// that each loop `recv` → `post`. Every recv call is a fresh coroutine,
// so without the frame pool this would allocate one frame per received
// message; with it, the frames recycle and the whole loop runs
// allocation-free at working depth.
TEST(Alloc, RecvCoroutineFramesRecycleInSteadyState) {
  Machine m(4, 4);
  const NodeId procs = static_cast<NodeId>(m.numProcs());

  auto spawnRing = [&](int rounds) {
    for (NodeId p = 0; p < procs; ++p) {
      sim::spawn([](Machine& mm, NodeId self, NodeId np, int n) -> sim::Task<> {
        for (int i = 0; i < n; ++i) {
          net::Message msg = co_await mm.net.recv(self, net::kFirstAppChannel);
          (void)msg;
          if (i + 1 == n && self + 1 == np) co_return;  // retire the token
          net::Message next{self, static_cast<NodeId>((self + 1) % np),
                            net::kFirstAppChannel, 32, {}};
          mm.net.post(std::move(next));
        }
      }(m, p, procs, rounds));
    }
    m.net.post(net::Message{0, 0, net::kFirstAppChannel, 32, {}});
  };

  // Warm-up: grows the frame pool to one frame per concurrently-suspended
  // recv, plus the flight pool and mailbox rings.
  spawnRing(8);
  m.engine.run();

  // Steady state: several thousand recv calls, zero heap traffic.
  spawnRing(128);
  const std::uint64_t before = allocCount();
  m.engine.run();
  EXPECT_EQ(allocCount() - before, 0u) << "recv coroutine frames hit the heap";
}

// Read hits on a warm cache: each `Runtime::read` call is a fresh
// coroutine frame even when the value is cached at the reader, so hits
// stay off the heap only if every coroutine frame — not just `recv`'s —
// recycles through the frame pool.
TEST(Alloc, WarmCacheReadHitsAllocateNothing) {
  Machine m(4, 4);
  Runtime rt(m, RuntimeConfig::accessTree());
  const NodeId p = 5;
  const VarId x = rt.createVarFree(p, makeRawValue(64));  // p holds the only copy
  auto readLoop = [](Runtime& r, NodeId node, VarId var, int n,
                     std::uint64_t& bytes) -> sim::Task<> {
    for (int i = 0; i < n; ++i) {
      const Value v = co_await r.read(node, var);
      bytes += v->size();
    }
  };
  std::uint64_t bytes = 0;
  sim::spawn(readLoop(rt, p, x, 16, bytes));  // warm-up: the pool's frame classes
  m.engine.run();

  const std::uint64_t hitsBefore = m.stats.ops.readHits;
  const std::uint64_t before = allocCount();
  sim::spawn(readLoop(rt, p, x, 4096, bytes));
  m.engine.run();
  EXPECT_EQ(allocCount() - before, 0u) << "read-hit coroutine frames hit the heap";
  EXPECT_EQ(m.stats.ops.readHits - hitsBefore, 4096u);
  EXPECT_EQ(bytes, (16u + 4096u) * 64u);
}

// A *disabled* tracer attached to the machine leaves the hot path
// allocation-free: every record call compiled into the message pipeline,
// the strategies and the workload drivers is one mask test and a return.
// This is the ISSUE-10 "observability off = bit-identical" budget half —
// the golden-hash tests pin the value half.
TEST(Alloc, DisabledTracerOnTheHotPathNeverAllocates) {
  Machine m(8, 8);
  obs::Tracer tracer;  // never enabled
  m.net.setTracer(&tracer);
  std::uint64_t budget = 20'000;
  registerRelayHandlers(m, budget);
  injectSeedMessages(m);
  m.engine.run();  // warm-up at working depth
  ASSERT_EQ(budget, 0u);

  budget = 20'000;
  injectSeedMessages(m);
  const std::uint64_t before = allocCount();
  m.engine.run();
  // Hammer the disabled record API directly too: every call must bail on
  // the mask test without touching the heap.
  for (int i = 0; i < 10'000; ++i) {
    tracer.begin(obs::kCatTxn, 0, "read", i);
    tracer.instant(obs::kCatFault, 1, "node-down", i);
    tracer.end(obs::kCatTxn, 0);
    tracer.beginAsync(obs::kCatMigration, 0, "migrate", i);
    tracer.endAsync(obs::kCatMigration, 1, "migrate", i);
  }
  EXPECT_EQ(allocCount() - before, 0u) << "disabled tracer allocated";
  EXPECT_EQ(tracer.numRecords(), 0u);
  EXPECT_EQ(budget, 0u);
}

TEST(Alloc, LatencyHistogramRecordingNeverAllocates) {
  // The serving driver records a latency per request on the simulation
  // hot path: the histogram is a flat std::array, so from construction
  // onward — recording across the whole range (underflow, every octave,
  // overflow), quantiles and merging — no heap allocation may happen.
  serve::LatencyHistogram h;
  serve::LatencyHistogram other;
  const std::uint64_t before = allocCount();
  double us = 0.0;
  for (int i = 0; i < 100000; ++i) {
    h.record(us);
    us = us * 1.25 + 0.001;  // sweeps underflow → every bucket → overflow
    if (us > 1e9) us = 0.0;
  }
  (void)h.p50();
  (void)h.p999();
  (void)h.quantile(1.0);
  other.merge(h);
  EXPECT_EQ(allocCount(), before) << "latency recording allocated";
}

TEST(Alloc, TeardownWithPendingEventsLeaksNothing) {
  const std::int64_t baseline = outstanding();
  {
    Machine m(8, 8);
    // In-flight remote messages with heap-owning bodies, a pending local
    // message, and an oversized capture on the raw engine — all still
    // pending when the machine is destroyed.
    for (int i = 0; i < 32; ++i) {
      m.net.post(net::Message{static_cast<NodeId>(i % 64),
                              static_cast<NodeId>((i * 7 + 9) % 64),
                              net::kProtocolChannel, 4096,
                              std::vector<int>(64, i)});
    }
    m.net.post(net::Message{3, 3, net::kProtocolChannel, 0, std::vector<int>(8, 1)});
    std::array<std::uint64_t, 16> big{};
    m.engine.scheduleAt(1e9, [big] { (void)big; });

    // Drain part of the schedule so some flights are mid-route, then stop
    // the world by throwing out of an event.
    struct Stop {};
    m.engine.scheduleAt(600.0, [] { throw Stop{}; });
    EXPECT_THROW(m.engine.run(), Stop);
    EXPECT_GT(m.engine.pendingEvents(), 0u);
  }
  EXPECT_EQ(outstanding(), baseline) << "teardown with pending events leaked";
}

}  // namespace
}  // namespace diva
