// Tests for the synchronization services: decomposition-tree barriers and
// distributed locks (Raymond token passing / centralized manager).

#include <gtest/gtest.h>

#include <vector>

#include "diva/machine.hpp"
#include "diva/runtime.hpp"
#include "support/rng.hpp"

namespace diva {
namespace {

using sim::Task;

class SyncTest : public ::testing::TestWithParam<RuntimeConfig> {};

TEST_P(SyncTest, BarrierSeparatesPhases) {
  Machine m(4, 4);
  Runtime rt(m, GetParam());
  // Every processor increments a per-phase counter; the barrier must make
  // phase-1 increments strictly after all phase-0 increments.
  int phase0 = 0, phase1 = 0;
  bool orderViolated = false;
  for (NodeId p = 0; p < 16; ++p) {
    sim::spawn([](Machine& mm, Runtime& r, NodeId n, int& c0, int& c1,
                  bool& bad) -> Task<> {
      co_await mm.net.compute(n, static_cast<double>(n) * 50.0);  // stagger
      ++c0;
      co_await r.barrier(n);
      if (c0 != 16) bad = true;  // someone hadn't arrived yet
      ++c1;
      co_await r.barrier(n);
      if (c1 != 16) bad = true;
    }(m, rt, p, phase0, phase1, orderViolated));
  }
  m.engine.run();
  EXPECT_EQ(phase0, 16);
  EXPECT_EQ(phase1, 16);
  EXPECT_FALSE(orderViolated);
  EXPECT_EQ(m.stats.ops.barriers, 32u);
}

TEST_P(SyncTest, RepeatedBarriersStayCoherent) {
  Machine m(4, 8);
  Runtime rt(m, GetParam());
  constexpr int kRounds = 20;
  std::vector<int> counter(kRounds, 0);
  bool bad = false;
  for (NodeId p = 0; p < 32; ++p) {
    sim::spawn([](Machine& mm, Runtime& r, NodeId n, std::vector<int>& c,
                  bool& violated) -> Task<> {
      support::SplitMix64 rng(static_cast<std::uint64_t>(n) + 1);
      for (int round = 0; round < kRounds; ++round) {
        co_await mm.net.compute(n, rng.uniform(0.0, 300.0));
        ++c[round];
        co_await r.barrier(n);
        if (c[round] != 32) violated = true;
      }
    }(m, rt, p, counter, bad));
  }
  m.engine.run();
  EXPECT_FALSE(bad);
  for (int round = 0; round < kRounds; ++round) EXPECT_EQ(counter[round], 32);
}

TEST_P(SyncTest, BarrierOnSingleNodeMeshIsTrivial) {
  Machine m(1, 1);
  Runtime rt(m, GetParam());
  bool done = false;
  sim::spawn([](Runtime& r, bool& d) -> Task<> {
    co_await r.barrier(0);
    co_await r.barrier(0);
    d = true;
  }(rt, done));
  m.engine.run();
  EXPECT_TRUE(done);
}

TEST_P(SyncTest, LockProvidesMutualExclusion) {
  Machine m(4, 4);
  Runtime rt(m, GetParam());
  const VarId lk = rt.createVarFree(0, makeValue<int>(0), /*withLock=*/true);
  int inside = 0, maxInside = 0, entries = 0;
  for (NodeId p = 0; p < 16; ++p) {
    sim::spawn([](Machine& mm, Runtime& r, NodeId n, VarId l, int& in, int& peak,
                  int& count) -> Task<> {
      for (int round = 0; round < 3; ++round) {
        co_await r.lock(n, l);
        ++in;
        peak = std::max(peak, in);
        ++count;
        co_await mm.net.compute(n, 100.0);  // critical section work
        --in;
        co_await r.unlock(n, l);
      }
    }(m, rt, p, lk, inside, maxInside, entries));
  }
  m.engine.run();
  EXPECT_EQ(maxInside, 1) << "two processors were in the critical section";
  EXPECT_EQ(entries, 48);
  EXPECT_EQ(inside, 0);
}

TEST_P(SyncTest, LockGuardsReadModifyWrite) {
  // The Barnes-Hut tree-building pattern: lock, read, modify, write,
  // unlock. The final value must equal the number of increments.
  Machine m(4, 4);
  Runtime rt(m, GetParam());
  const VarId x = rt.createVarFree(3, makeValue<std::int64_t>(0), /*withLock=*/true);
  for (NodeId p = 0; p < 16; ++p) {
    sim::spawn([](Runtime& r, NodeId n, VarId v) -> Task<> {
      for (int round = 0; round < 2; ++round) {
        co_await r.lock(n, v);
        const auto cur = valueAs<std::int64_t>(co_await r.read(n, v));
        co_await r.write(n, v, makeValue<std::int64_t>(cur + 1));
        co_await r.unlock(n, v);
      }
    }(rt, p, x));
  }
  m.engine.run();
  EXPECT_EQ(valueAs<std::int64_t>(rt.peek(x)), 32);
  rt.checkAllInvariants();
}

TEST_P(SyncTest, UncontendedRelockIsCheap) {
  // Re-acquiring a lock whose token is already local must not produce
  // network traffic (Raymond's key property; trivially true centralized?
  // no — the central manager always pays the round trip, which is the
  // point of the comparison).
  Machine m(4, 4);
  Runtime rt(m, GetParam());
  const VarId lk = rt.createVarFree(7, makeValue<int>(0), /*withLock=*/true);
  sim::spawn([](Runtime& r, VarId l) -> Task<> {
    co_await r.lock(7, l);
    co_await r.unlock(7, l);
  }(rt, lk));
  m.engine.run();
  const auto wire = m.stats.links.totalMessages();
  sim::spawn([](Runtime& r, VarId l) -> Task<> {
    co_await r.lock(7, l);
    co_await r.unlock(7, l);
  }(rt, lk));
  m.engine.run();
  if (GetParam().kind == StrategyKind::AccessTree) {
    EXPECT_EQ(m.stats.links.totalMessages(), wire)
        << "token was local; no network traffic expected";
  } else {
    EXPECT_GE(m.stats.links.totalMessages(), wire)
        << "central manager round trip (zero only if the home is local)";
  }
}

TEST_P(SyncTest, ManyLocksIndependent) {
  Machine m(4, 4);
  Runtime rt(m, GetParam());
  std::vector<VarId> locks;
  for (int i = 0; i < 8; ++i)
    locks.push_back(rt.createVarFree(static_cast<NodeId>(i), makeValue<int>(0), true));
  std::vector<int> acquired(8, 0);
  for (NodeId p = 0; p < 16; ++p) {
    sim::spawn([](Runtime& r, NodeId n, std::vector<VarId>& ls,
                  std::vector<int>& acq) -> Task<> {
      support::SplitMix64 rng(static_cast<std::uint64_t>(n) * 31 + 7);
      for (int round = 0; round < 4; ++round) {
        const int which = static_cast<int>(rng.below(8));
        co_await r.lock(n, ls[which]);
        ++acq[which];
        co_await r.unlock(n, ls[which]);
      }
    }(rt, p, locks, acquired));
  }
  m.engine.run();
  int total = 0;
  for (int a : acquired) total += a;
  EXPECT_EQ(total, 64);
}

TEST_P(SyncTest, InvariantsFailWhileALockIsHeldOrQueued) {
  Machine m(4, 4);
  Runtime rt(m, GetParam());
  const VarId lk = rt.createVarFree(9, makeValue<int>(0), /*withLock=*/true);
  auto lockOn = [](Runtime& r, NodeId n, VarId l) -> Task<> { co_await r.lock(n, l); };
  auto unlockOn = [](Runtime& r, NodeId n, VarId l) -> Task<> { co_await r.unlock(n, l); };
  rt.checkAllInvariants();  // registered, never taken

  sim::spawn(lockOn(rt, 2, lk));
  m.engine.run();
  EXPECT_THROW(rt.checkAllInvariants(), support::CheckError) << "held lock passed";

  sim::spawn(lockOn(rt, 14, lk));  // queues behind processor 2
  m.engine.run();
  EXPECT_THROW(rt.checkAllInvariants(), support::CheckError) << "queued lock passed";

  sim::spawn(unlockOn(rt, 2, lk));  // hands the lock to processor 14
  m.engine.run();
  EXPECT_THROW(rt.checkAllInvariants(), support::CheckError) << "handed-on lock passed";

  sim::spawn(unlockOn(rt, 14, lk));
  m.engine.run();
  rt.checkAllInvariants();
}

INSTANTIATE_TEST_SUITE_P(Strategies, SyncTest,
                         ::testing::Values(RuntimeConfig::accessTree(4, 1),
                                           RuntimeConfig::accessTree(2, 1),
                                           RuntimeConfig::fixedHome()),
                         [](const auto& info) {
                           return info.param.kind == StrategyKind::FixedHome
                                      ? std::string("fixedHome")
                                      : "accessTree" + std::to_string(info.param.arity);
                         });

TEST(TreeLock, TokenTravelsTowardContention) {
  // Raymond locality: two neighbours ping-ponging a lock must stop
  // involving the far-away creator after the first transfer.
  Machine m(8, 8);
  Runtime rt(m, RuntimeConfig::accessTree(2, 1));
  const NodeId far = m.mesh().nodeAt(7, 7);
  const VarId lk = rt.createVarFree(far, makeValue<int>(0), true);
  const NodeId a = m.mesh().nodeAt(0, 0), b = m.mesh().nodeAt(0, 1);
  // First acquisition drags the token across the mesh.
  sim::spawn([](Runtime& r, NodeId n, VarId l) -> Task<> {
    co_await r.lock(n, l);
    co_await r.unlock(n, l);
  }(rt, a, lk));
  m.engine.run();
  const auto baseline = m.stats.links.totalBytes();
  // Subsequent ping-pong between the two neighbours stays local.
  for (int i = 0; i < 4; ++i) {
    for (NodeId n : {b, a}) {
      sim::spawn([](Runtime& r, NodeId nn, VarId l) -> Task<> {
        co_await r.lock(nn, l);
        co_await r.unlock(nn, l);
      }(rt, n, lk));
      m.engine.run();
    }
  }
  const auto pingpong = m.stats.links.totalBytes() - baseline;
  EXPECT_LT(pingpong, baseline * 4) << "token should stay near the contenders";
}

}  // namespace
}  // namespace diva
