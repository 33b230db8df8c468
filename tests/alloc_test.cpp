// Steady-state allocation accounting for the simulator hot path, via a
// counting global allocator: once the engine, pools and dispatch tables
// have grown to a workload's working set, scheduling events and moving
// messages end to end must perform zero heap allocations. Also proves the
// pending-event leak fix without a sanitizer: tearing a machine down with
// messages still in flight returns the outstanding-allocation count to
// its pre-construction level, and bounds the set-up state a machine
// holds: bytes allocated at construction, blocks kept across epochs.
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
#include <memory>
#include <new>
#include <vector>

#include "diva/machine.hpp"
#include "diva/runtime.hpp"
#include "net/graph_topology.hpp"
#include "obs/tracer.hpp"
#include "serve/latency_histogram.hpp"
#include "sim/engine.hpp"
#include "support/flat_map.hpp"

namespace {

std::atomic<std::uint64_t> gAllocs{0};
std::atomic<std::uint64_t> gFrees{0};
std::atomic<std::uint64_t> gBytes{0};  ///< requested bytes, never decremented

}  // namespace

// Count every allocation path the library can take (sized, aligned,
// nothrow). gtest itself allocates too, so tests only compare counts
// taken at points where no framework allocation can interleave.
void* operator new(std::size_t n) {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  gBytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  gBytes.fetch_add(n, std::memory_order_relaxed);
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
std::uint64_t allocBytes() { return gBytes.load(std::memory_order_relaxed); }
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

// Protocol-sized bodies: relay churn whose messages carry a 24-byte body
// the size of a lock message and a 48-byte one shaped like the fixed
// home's (plain fields around a shared value pointer), each hop swapping
// one for the other. Both travel in the message's inline buffer, so
// after warm-up the bodies add no allocation to the message path.
struct LockSizedBody {
  std::uint64_t lock = 0;
  std::int32_t atNode = 0;
  std::int32_t fromNode = 0;
  std::uint8_t k = 0;
};
struct FhSizedBody {
  std::uint8_t k = 0;
  std::uint64_t var = 0;
  std::uint64_t txn = 0;
  NodeId requester = -1;
  std::shared_ptr<const int> value;
};

TEST(Alloc, ProtocolSizedBodiesTravelWithoutAllocating) {
  Machine m(8, 8);
  const NodeId procs = static_cast<NodeId>(m.numProcs());
  const auto value = std::make_shared<const int>(7);
  std::uint64_t budget = 20'000;
  std::uint64_t seen = 0;  // folds every body field, so none is dead
  for (NodeId p = 0; p < procs; ++p) {
    m.net.setHandler(p, net::kProtocolChannel, [&](net::Message&& msg) {
      if (budget == 0) return;
      --budget;
      const NodeId next = static_cast<NodeId>((msg.dst * 13 + budget % 3) % procs);
      if (msg.payloadBytes == sizeof(LockSizedBody)) {
        const auto b = msg.take<LockSizedBody>();
        seen += b.lock + static_cast<std::uint64_t>(b.atNode);
        m.net.post(net::Message{msg.dst, next, net::kProtocolChannel, sizeof(FhSizedBody),
                                FhSizedBody{1, b.lock, budget, msg.dst, value}});
      } else {
        const auto b = msg.take<FhSizedBody>();
        seen += b.var + static_cast<std::uint64_t>(*b.value);
        m.net.post(net::Message{msg.dst, next, net::kProtocolChannel, sizeof(LockSizedBody),
                                LockSizedBody{b.var + 1, next, msg.dst, 2}});
      }
    });
  }
  auto inject = [&] {
    for (NodeId p = 0; p < procs; ++p) {
      m.net.post(net::Message{p, static_cast<NodeId>((p + procs / 2) % procs),
                              net::kProtocolChannel, sizeof(LockSizedBody),
                              LockSizedBody{static_cast<std::uint64_t>(p), p, -1, 0}});
    }
  };
  inject();
  m.engine.run();  // warm-up: pools, routes, link tables
  ASSERT_EQ(budget, 0u);

  budget = 20'000;
  inject();
  const std::uint64_t before = allocCount();
  m.engine.run();
  EXPECT_EQ(allocCount() - before, 0u) << "protocol-sized bodies allocated on the message path";
  EXPECT_EQ(budget, 0u);
  EXPECT_GT(seen, 0u);
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

// A new cache entry costs one block, its slot: the LRU links live in that
// block, so there is no separate list node to allocate or free.
// Re-inserting a key after an erase keeps the table at a size it has held
// before, so no growth is counted; an update looks the key up before the
// table considers growing, so it allocates nothing even at the threshold.
TEST(Alloc, CacheInsertAllocatesOnlyItsEntry) {
  NodeCache c;
  const Value v = makeRawValue(64);
  for (VarId x = 0; x < 32; ++x) c.put(x, v);
  c.erase(7);

  std::uint64_t before = allocCount();
  const std::int64_t live = outstanding();
  c.put(7, v);
  EXPECT_EQ(allocCount() - before, 1u) << "inserting one entry";
  EXPECT_EQ(outstanding(), live + 1);

  before = allocCount();
  c.put(7, v);  // update in place
  (void)c.touch(3);
  EXPECT_EQ(allocCount() - before, 0u) << "updating or touching an entry";

  c.erase(7);
  EXPECT_EQ(outstanding(), live) << "erasing an entry frees its one block";
}

// Remote reads and writes on the access tree in steady state. A read's
// value returns along the tree path, which the tree itself gives, so no
// message carries a route. Once a warm-up round of remote reads and owner
// writes has grown the state tables and inline lists, a second round of
// reads allocates exactly one block per cache entry its deposits create,
// and owner writes that invalidate those copies allocate nothing.
TEST(Alloc, RemoteReadsAllocateOnlyNewCacheEntriesAndWritesNothing) {
  Machine m(16, 16);
  Runtime rt(m, RuntimeConfig::accessTree());  // unbounded caches
  const NodeId procs = static_cast<NodeId>(m.numProcs());
  constexpr int kVars = 128;
  std::vector<VarId> vars;
  std::vector<NodeId> owners;
  for (int i = 0; i < kVars; ++i) {
    owners.push_back(static_cast<NodeId>(i * 37 % procs));
    vars.push_back(rt.createVarFree(owners.back(), makeRawValue(64)));
  }
  std::vector<Value> values;  // every write's value, made before any count
  for (int i = 0; i < 2 * kVars; ++i) values.push_back(makeRawValue(64));
  auto entries = [&] {
    std::size_t n = 0;
    for (NodeId p = 0; p < procs; ++p) n += rt.cacheOf(p).numEntries();
    return n;
  };
  auto readRound = [&] {
    for (int i = 0; i < kVars; ++i) {
      sim::spawn([](Runtime& r, NodeId p, VarId x) -> sim::Task<> {
        (void)co_await r.read(p, x);
      }(rt, static_cast<NodeId>((owners[i] + procs / 2) % procs), vars[i]));
    }
    m.engine.run();
  };
  auto writeRound = [&](int round) {
    for (int i = 0; i < kVars; ++i) {
      sim::spawn([](Runtime& r, NodeId p, VarId x, const Value& v) -> sim::Task<> {
        co_await r.write(p, x, v);
      }(rt, owners[i], vars[i], values[round * kVars + i]));
    }
    m.engine.run();
  };
  readRound();  // warm-up
  writeRound(0);
  ASSERT_EQ(entries(), static_cast<std::size_t>(kVars)) << "writes left stray copies";

  const std::size_t entriesBefore = entries();
  std::uint64_t before = allocCount();
  readRound();
  const std::size_t created = entries() - entriesBefore;
  EXPECT_EQ(allocCount() - before, created) << "remote reads allocated beyond their entries";
  EXPECT_GT(created, static_cast<std::size_t>(kVars));

  before = allocCount();
  writeRound(1);
  EXPECT_EQ(allocCount() - before, 0u) << "owner writes hit the heap";
  EXPECT_EQ(entries(), static_cast<std::size_t>(kVars));
  rt.checkAllInvariants();
}

// Raymond's lock on the access tree in steady state: once every
// contender's tree path holds its per-node state and the coroutine frame
// pool has its classes, acquiring and releasing under contention moves
// requests through inline queues and waits without touching the heap.
TEST(Alloc, TreeLockAcquireReleaseAllocatesNothing) {
  Machine m(4, 4);
  Runtime rt(m, RuntimeConfig::accessTree());
  const VarId x = rt.createVarFree(0, makeRawValue(8), /*withLock=*/true);
  auto loop = [](Runtime& r, NodeId p, VarId var, int n, int& done) -> sim::Task<> {
    for (int i = 0; i < n; ++i) {
      co_await r.lock(p, var);
      co_await r.unlock(p, var);
      ++done;
    }
  };
  const NodeId contenders[] = {0, 5, 10, 15};
  int done = 0;
  for (NodeId p : contenders) sim::spawn(loop(rt, p, x, 64, done));  // warm-up
  m.engine.run();

  const std::uint64_t before = allocCount();
  for (NodeId p : contenders) sim::spawn(loop(rt, p, x, 256, done));
  m.engine.run();
  EXPECT_EQ(allocCount() - before, 0u) << "lock acquire/release hit the heap";
  EXPECT_EQ(done, 4 * (64 + 256));
  rt.checkAllInvariants();
}

// The fixed home's central lock manager in steady state: a contender's
// wait is chained from its processor's slot in the acquiring coroutine's
// own frame, and the manager queues contenders inline, so acquiring and
// releasing under contention allocates nothing.
TEST(Alloc, CentralLockAcquireReleaseAllocatesNothing) {
  Machine m(4, 4);
  Runtime rt(m, RuntimeConfig::fixedHome());
  const VarId x = rt.createVarFree(0, makeRawValue(8), /*withLock=*/true);
  auto loop = [](Runtime& r, NodeId p, VarId var, int n, int& done) -> sim::Task<> {
    for (int i = 0; i < n; ++i) {
      co_await r.lock(p, var);
      co_await r.unlock(p, var);
      ++done;
    }
  };
  const NodeId contenders[] = {0, 5, 10, 15};
  int done = 0;
  for (NodeId p : contenders) sim::spawn(loop(rt, p, x, 64, done));  // warm-up
  m.engine.run();

  const std::uint64_t before = allocCount();
  for (NodeId p : contenders) sim::spawn(loop(rt, p, x, 256, done));
  m.engine.run();
  EXPECT_EQ(allocCount() - before, 0u) << "lock acquire/release hit the heap";
  EXPECT_EQ(done, 4 * (64 + 256));
  rt.checkAllInvariants();
}

// FlatMap allocates only when it grows: a default-constructed map holds
// no table (100k idle caches must cost nothing), and inserts and erases
// that keep the size at one it has held before reuse the table.
TEST(Alloc, FlatMapSteadyStateAllocatesNothing) {
  std::uint64_t before = allocCount();
  {
    support::FlatMap<std::uint64_t> idle;
    EXPECT_EQ(idle.find(1), nullptr);
    EXPECT_FALSE(idle.erase(1));
    idle.forEach([](std::uint64_t, std::uint64_t) {});
    support::FlatMap<std::uint64_t> moved(std::move(idle));
    EXPECT_EQ(moved.size(), 0u);
  }
  EXPECT_EQ(allocCount() - before, 0u) << "an empty FlatMap allocated";

  support::FlatMap<std::uint64_t> map;
  constexpr std::uint64_t kLive = 1000;
  for (std::uint64_t k = 0; k < kLive; ++k) map[k] = k;
  const std::size_t capacity = map.capacity();
  before = allocCount();
  // Slide a window of kLive keys forward: every step erases the oldest key
  // and inserts a fresh one, so the keys' homes keep changing.
  for (std::uint64_t k = kLive; k < 50 * kLive; ++k) {
    ASSERT_TRUE(map.erase(k - kLive));
    map[k] = k;
    map[k - 1] += 1;  // update in place
  }
  for (std::uint64_t k = 49 * kLive; k < 50 * kLive; ++k) ASSERT_TRUE(map.erase(k));
  for (std::uint64_t k = 0; k < kLive; ++k) map[k << 32 | 7] = k;  // other homes, same size
  EXPECT_EQ(allocCount() - before, 0u) << "steady-state FlatMap churn allocated";
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.size(), kLive);
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

// A bare machine holds no dispatch state for channels nothing uses: a
// channel's handler and mailbox rows appear on its first use, and phase
// storage grows with the phases entered. A 4,096-node mesh then costs
// its per-node and per-link tables, well under 2 MB.
TEST(Alloc, BareMachineSetUpStaysSmall) {
  const std::uint64_t before = allocBytes();
  {
    Machine m(64, 64);
    EXPECT_LT(allocBytes() - before, std::uint64_t{2} << 20)
        << "constructing a 64x64 machine allocated too much";
  }
}

// The Network keeps only the installed topology: once an epoch's link
// state has been carried across, the superseded shape is freed, so a
// machine that keeps growing holds the same number of live blocks after
// every committed epoch.
TEST(Alloc, ReconfigurationEpochsKeepOneTopology) {
  Machine m(net::TopologySpec::graph(net::randomRegularGraph(256, 4, 1)));
  auto grow = [&m] {
    m.net.addNode(0);
    m.engine.run();
    m.net.commitReconfig();
  };
  grow();
  const std::int64_t afterFirst = outstanding();
  for (int epoch = 2; epoch <= 6; ++epoch) grow();
  EXPECT_EQ(m.net.reconfigEpoch(), 6);
  EXPECT_EQ(outstanding(), afterFirst) << "superseded topologies are still alive";
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
