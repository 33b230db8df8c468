// Tests for the per-processor memory module (LRU bookkeeping) and for
// strategy-driven replacement under bounded capacity.

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>

#include "diva/access_tree_strategy.hpp"
#include "diva/cache.hpp"
#include "diva/machine.hpp"
#include "diva/runtime.hpp"
#include "support/rng.hpp"

namespace diva {
namespace {

using sim::Task;

TEST(NodeCache, PutTouchErase) {
  NodeCache c(1000);
  c.put(1, makeRawValue(100));
  c.put(2, makeRawValue(200));
  EXPECT_EQ(c.usedBytes(), 300u);
  EXPECT_NE(c.peek(1), nullptr);
  EXPECT_EQ(c.peek(3), nullptr);
  c.erase(1);
  EXPECT_EQ(c.usedBytes(), 200u);
  EXPECT_EQ(c.peek(1), nullptr);
  EXPECT_EQ(c.numEntries(), 1u);
}

TEST(NodeCache, UpdateReplacesBytes) {
  NodeCache c(1000);
  c.put(1, makeRawValue(100));
  c.put(1, makeRawValue(400));
  EXPECT_EQ(c.usedBytes(), 400u);
  EXPECT_EQ(c.numEntries(), 1u);
}

TEST(NodeCache, LruOrderFollowsTouches) {
  NodeCache c(2);  // three 1-byte entries: over capacity
  c.put(1, makeRawValue(1));
  c.put(2, makeRawValue(1));
  c.put(3, makeRawValue(1));
  c.touch(1);  // order now: 2, 3, 1
  std::vector<VarId> order;
  EXPECT_FALSE(c.evictUntilFits([&](VarId v, NodeCache::Entry&) {
    order.push_back(v);
    return false;
  }));
  EXPECT_EQ(order, (std::vector<VarId>{2, 3, 1}));
}

TEST(NodeCache, OverCapacityDetection) {
  NodeCache c(250);
  c.put(1, makeRawValue(100));
  EXPECT_FALSE(c.overCapacity());
  c.put(2, makeRawValue(200));
  EXPECT_TRUE(c.overCapacity());
}

TEST(NodeCache, ScanStopsWhenHandled) {
  NodeCache c(4);  // five 1-byte entries: one eviction fits the module
  for (VarId v = 1; v <= 5; ++v) c.put(v, makeRawValue(1));
  int visited = 0;
  const bool fits = c.evictUntilFits([&](VarId v, NodeCache::Entry&) {
    ++visited;
    if (v != 3) return false;
    c.erase(v);
    return true;
  });
  EXPECT_TRUE(fits);
  EXPECT_EQ(visited, 3);
  EXPECT_EQ(c.peek(3), nullptr);
  EXPECT_FALSE(c.overCapacity());
}

TEST(NodeCache, IntrusiveLruMatchesListModel) {
  // Seeded differential of the intrusive LRU against a std::list model:
  // random puts, inserts (which leave a present entry alone), touches,
  // erases by key and by entry, and eviction scans (some accepting a
  // victim mid-pass, erasing it by key or through the entry the scan hands
  // over) must offer entries in the model's order and leave the same
  // contents and byte count. The caches live in a growing vector, so they
  // are also moved mid-sequence, as Runtime's are.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    support::SplitMix64 rng(seed);
    std::vector<NodeCache> caches;
    caches.emplace_back(24);
    std::list<VarId> model;  // front = least recently used
    std::map<VarId, std::uint64_t> bytes;
    auto usedInModel = [&] {
      std::uint64_t sum = 0;
      for (const auto& [v, b] : bytes) sum += b;
      return sum;
    };
    auto toBack = [&](VarId v) {
      model.remove(v);
      model.push_back(v);
    };
    for (int step = 0; step < 3000; ++step) {
      NodeCache& c = caches.front();
      const VarId v = rng.below(16);
      switch (rng.below(6)) {
        case 0: {
          const std::uint64_t n = 1 + rng.below(8);
          c.put(v, makeRawValue(n));
          bytes[v] = n;
          toBack(v);
          break;
        }
        case 1:
          ASSERT_EQ(c.touch(v) != nullptr, bytes.contains(v));
          if (bytes.contains(v)) toBack(v);
          break;
        case 2:
          c.erase(v);
          bytes.erase(v);
          model.remove(v);
          break;
        case 3: {
          const std::uint64_t n = 1 + rng.below(8);
          const Value val = makeRawValue(n);
          const NodeCache::Entry* before = c.peek(v);
          const auto [e, inserted] = c.insert(v, val);
          ASSERT_EQ(inserted, !bytes.contains(v));
          if (inserted) {
            EXPECT_EQ(e.value, val);
            bytes[v] = n;
            model.push_back(v);
          } else {
            EXPECT_EQ(&e, before);
            EXPECT_EQ(e.value->size(), bytes[v]) << "insert overwrote a present entry";
          }
          break;
        }
        case 4:
          if (NodeCache::Entry* e = c.peek(v)) c.erase(*e);
          bytes.erase(v);
          model.remove(v);
          break;
        default: {
          // Accept the candidates whose id matches this step's residue;
          // the model runs the same passes over its list.
          const VarId residue = static_cast<VarId>(step % 5);
          std::vector<VarId> offered, expected;
          const bool fits = c.evictUntilFits([&](VarId cand, NodeCache::Entry& e) {
            offered.push_back(cand);
            EXPECT_EQ(&e, c.peek(cand));
            if (cand % 5 != residue) return false;
            if (step % 2 == 0) {
              c.erase(cand);
            } else {
              c.erase(e);
            }
            return true;
          });
          bool modelFits = true;
          while (usedInModel() > c.capacityBytes() && modelFits) {
            modelFits = false;
            for (VarId m : model) {
              expected.push_back(m);
              if (m % 5 == residue) {
                model.remove(m);
                bytes.erase(m);
                modelFits = true;
                break;
              }
            }
          }
          ASSERT_EQ(offered, expected) << "seed " << seed << " step " << step;
          ASSERT_EQ(fits, modelFits);
          break;
        }
      }
      ASSERT_EQ(c.numEntries(), model.size()) << "seed " << seed << " step " << step;
      ASSERT_EQ(c.usedBytes(), usedInModel());
      if (step % 500 == 250)
        for (int i = 0; i < 3; ++i) caches.emplace_back(1);  // reallocate: move caches[0]
    }
    // Full order check: a refuse-everything pass offers every entry.
    NodeCache& c = caches.front();
    c.put(100, makeRawValue(c.capacityBytes() + 1));
    model.push_back(100);
    std::vector<VarId> offered;
    EXPECT_FALSE(c.evictUntilFits([&](VarId cand, NodeCache::Entry&) {
      offered.push_back(cand);
      return false;
    }));
    EXPECT_EQ(offered, std::vector<VarId>(model.begin(), model.end())) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Bounded-memory replacement through the strategies
// ---------------------------------------------------------------------------

Value readOnce(Machine& m, Runtime& rt, NodeId p, VarId x) {
  Value out;
  sim::spawn([](Runtime& r, NodeId n, VarId v, Value& o) -> Task<> {
    o = co_await r.read(n, v);
  }(rt, p, x, out));
  m.engine.run();
  return out;
}

class ReplacementTest : public ::testing::TestWithParam<RuntimeConfig> {};

TEST_P(ReplacementTest, EvictionKeepsSystemCorrect) {
  // A reader with a tiny memory module streams through many variables:
  // replacement must kick in, and every later re-read must still return
  // the right data with valid invariants.
  Machine m(4, 4);
  RuntimeConfig cfg = GetParam();
  cfg.cacheCapacityBytes = 3 * 1100;  // room for ~3 copies of 1 KB
  Runtime rt(m, cfg);

  std::vector<VarId> vars;
  for (int i = 0; i < 12; ++i) {
    auto buf = std::make_shared<Bytes>(1024);
    (*buf)[0] = static_cast<std::byte>(i);
    vars.push_back(rt.createVarFree(15, Value(buf)));
  }
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 12; ++i) {
      const Value v = readOnce(m, rt, 0, vars[i]);
      ASSERT_TRUE(v);
      EXPECT_EQ((*v)[0], static_cast<std::byte>(i));
    }
  }
  EXPECT_GT(m.stats.ops.evictions, 0u) << "capacity pressure must evict";
  rt.checkAllInvariants();
  // Reader's module must be near its capacity bound, not 12 KB.
  EXPECT_LE(rt.cacheOf(0).usedBytes(), cfg.cacheCapacityBytes + 1100);
}

TEST_P(ReplacementTest, LastCopyIsNeverEvicted) {
  Machine m(4, 4);
  RuntimeConfig cfg = GetParam();
  cfg.cacheCapacityBytes = 512;  // smaller than one variable
  Runtime rt(m, cfg);
  const VarId x = rt.createVarFree(5, makeRawValue(1024));
  // The owner's module is over capacity, but the sole copy must survive.
  EXPECT_NE(rt.cacheOf(5).peek(x), nullptr);
  const Value v = readOnce(m, rt, 5, x);
  EXPECT_TRUE(v);
  rt.checkAllInvariants();
  EXPECT_EQ(rt.peek(x)->size(), 1024u);
}

TEST(Replacement, OwnedCopyIsNeverEvictedUnderPressure) {
  // Fixed home: the owner's entry is the authoritative copy. Stream many
  // foreign variables through the owner's over-committed module — the
  // owned entries must all survive the pressure, and eviction must still
  // reclaim the non-authoritative ones.
  Machine m(4, 4);
  RuntimeConfig cfg = RuntimeConfig::fixedHome();
  cfg.cacheCapacityBytes = 2 * 1100;
  Runtime rt(m, cfg);

  std::vector<VarId> owned;
  for (int i = 0; i < 4; ++i)
    owned.push_back(rt.createVarFree(0, makeRawValue(1024)));
  std::vector<VarId> foreign;
  for (int i = 0; i < 10; ++i)
    foreign.push_back(rt.createVarFree(9, makeRawValue(1024)));
  for (VarId x : foreign) (void)readOnce(m, rt, 0, x);

  for (VarId x : owned) {
    const NodeCache::Entry* e = rt.cacheOf(0).peek(x);
    ASSERT_NE(e, nullptr) << "authoritative copy of " << x << " was evicted";
    EXPECT_TRUE(e->owned);
  }
  EXPECT_GT(m.stats.ops.evictions, 0u) << "foreign copies must have been reclaimed";
  rt.checkAllInvariants();
}

TEST(Replacement, TryEvictRefusesOwnedAndPinnedEntries) {
  Machine m(4, 4);
  Runtime rt(m, RuntimeConfig::fixedHome());  // unlimited cache: no pressure
  const VarId x = rt.createVarFree(5, makeRawValue(64));
  // The creator owns the data: its entry is authoritative and refused.
  EXPECT_FALSE(rt.strategy().tryEvict(5, x)) << "owner entry must be refused";

  // A remote read migrates ownership to the home (the ownership scheme's
  // read rule): the old owner keeps a now-plain copy that IS evictable.
  (void)readOnce(m, rt, 2, x);
  ASSERT_NE(rt.cacheOf(2).peek(x), nullptr);
  EXPECT_TRUE(rt.strategy().tryEvict(5, x)) << "ceded copy is evictable";
  rt.checkAllInvariants();
  EXPECT_EQ(rt.peek(x)->size(), 64u);
}

TEST(Replacement, DestroyingMemoRefusedVariablesLeavesNoDanglingMemo) {
  // Sole copies at p are refused by a pressure scan, so their cache
  // entries point at their variables' generation counters. Destroying
  // those variables must take the entries with them; new variables (whose
  // state may reuse the freed memory) and further pressure scans at p
  // must then run clean. Under ASan a dangling memo pointer is a
  // heap-use-after-free here.
  Machine m(4, 4);
  RuntimeConfig cfg = RuntimeConfig::accessTree(4, 1);
  cfg.cacheCapacityBytes = 1500;
  Runtime rt(m, cfg);
  const NodeId p = 0;
  std::vector<VarId> sole;
  for (int i = 0; i < 3; ++i) sole.push_back(rt.createVarFree(p, makeRawValue(600)));
  const VarId y = rt.createVarFree(15, makeRawValue(600));
  (void)readOnce(m, rt, p, y);
  ASSERT_GT(m.stats.ops.evictionFailures, 0u) << "the scan at p must have refused the sole copies";
  for (VarId x : sole) {
    rt.destroyVarFree(x);
    EXPECT_EQ(rt.cacheOf(p).peek(x), nullptr) << "destroyed variable " << x << " left an entry";
  }

  std::vector<VarId> fresh;
  for (int i = 0; i < 3; ++i) fresh.push_back(rt.createVarFree(p, makeRawValue(600)));
  for (int i = 0; i < 4; ++i) (void)readOnce(m, rt, p, rt.createVarFree(15, makeRawValue(600)));
  (void)readOnce(m, rt, p, y);
  EXPECT_GT(m.stats.ops.evictions, 0u) << "the scans at p must have found victims";
  rt.checkAllInvariants();
  for (VarId x : fresh) EXPECT_EQ(rt.peek(x)->size(), 600u);
}

// ---------------------------------------------------------------------------
// The access tree's refusal memo: a refused entry is re-checked once any
// event that can change its variable's evictability has happened
// ---------------------------------------------------------------------------

class RefusalMemoTest : public ::testing::TestWithParam<int> {
 protected:
  /// First processor other than `p` whose leaf shares `p`'s leaf parent.
  static NodeId siblingOf(const net::ClusterTree& t, NodeId p) {
    const int parent = t.parent(t.leafOf(p));
    for (NodeId q = 0; q < t.numProcs(); ++q)
      if (q != p && t.parent(t.leafOf(q)) == parent) return q;
    ADD_FAILURE() << "leaf of " << p << " has no sibling";
    return p;
  }
};

TEST_P(RefusalMemoTest, RefusedSoleCopyIsEvictedOnceANeighbourCopyExists) {
  // The sole copy of x at p is refused by a pressure scan. A remote read
  // then deposits a copy beside it, so the next pressure scan at p must
  // re-check x rather than trust the refusal: x, the LRU-first idle
  // entry that is now a fringe copy, is evicted.
  Machine m(4, 4);
  RuntimeConfig cfg = RuntimeConfig::accessTree(GetParam(), 1);
  cfg.cacheCapacityBytes = 1500;  // one 1 KB copy plus one 600 B copy does not fit
  Runtime rt(m, cfg);
  const auto& at = dynamic_cast<const AccessTreeStrategy&>(rt.strategy());
  const NodeId p = 0;
  const NodeId reader = siblingOf(at.tree(), p);

  auto buf = std::make_shared<Bytes>(1024);
  (*buf)[0] = std::byte{7};
  const VarId x = rt.createVarFree(p, Value(buf));
  const VarId y = rt.createVarFree(15, makeRawValue(600));
  const VarId z = rt.createVarFree(15, makeRawValue(600));

  (void)readOnce(m, rt, p, y);  // p over capacity: x is a sole copy, y in flight
  EXPECT_EQ(m.stats.ops.evictions, 0u);
  EXPECT_GT(m.stats.ops.evictionFailures, 0u) << "the scan at p must have refused x";
  ASSERT_NE(rt.cacheOf(p).peek(x), nullptr);

  EXPECT_EQ((*readOnce(m, rt, reader, x))[0], std::byte{7});
  ASSERT_NE(rt.cacheOf(p).peek(x), nullptr) << "x must still be refused while in flight";

  const std::uint64_t evictions = m.stats.ops.evictions;
  (void)readOnce(m, rt, p, z);  // the next pressure scan at p
  EXPECT_GT(m.stats.ops.evictions, evictions);
  EXPECT_EQ(rt.cacheOf(p).peek(x), nullptr) << "x is evictable once a neighbour holds a copy";
  EXPECT_NE(rt.cacheOf(reader).peek(x), nullptr);
  rt.checkAllInvariants();
  EXPECT_EQ((*readOnce(m, rt, p, x))[0], std::byte{7});
  rt.checkAllInvariants();
}

TEST_P(RefusalMemoTest, EntryRefusedDuringInvalidationIsEvictableOnceTheWriteRetires) {
  // x's component is {leaf(0), P, leaf(reader)} with P the leaves' parent.
  // A writer outside P's cluster but under P's parent reaches P as the
  // nearest copy and invalidates both leaves. P's host is refused while
  // that invalidation is in flight; once the write retires, P is the
  // fringe of the writer's path component and must be evictable.
  Machine m(4, 4);
  Runtime rt(m, RuntimeConfig::accessTree(GetParam(), 1));
  const auto& at = dynamic_cast<const AccessTreeStrategy&>(rt.strategy());
  const net::ClusterTree& t = at.tree();
  const NodeId owner = 0;
  const int top = t.parent(t.leafOf(owner));
  const NodeId reader = siblingOf(t, owner);
  NodeId writer = -1;
  for (NodeId q = 0; q < t.numProcs() && writer < 0; ++q) {
    const int leafParent = t.parent(t.leafOf(q));
    if (leafParent != top && t.parent(leafParent) == t.parent(top)) writer = q;
  }
  ASSERT_GE(writer, 0);

  const VarId x = rt.createVarFree(owner, makeValue<std::int64_t>(1));
  (void)readOnce(m, rt, reader, x);
  const NodeId host = at.tree().hostOf(top, x, at.params().embedding, at.params().seed);
  ASSERT_NE(rt.cacheOf(host).peek(x), nullptr);

  bool done = false, probed = false, refusedMidWrite = false;
  sim::spawn([](Runtime& r, NodeId w, VarId v, bool& d) -> Task<> {
    co_await r.write(w, v, makeValue<std::int64_t>(2));
    d = true;
  }(rt, writer, x, done));
  sim::spawn([](Machine& mm, Runtime& r, NodeId h, VarId v, bool& d, bool& probed,
                bool& refused) -> Task<> {
    while (!d) {
      if (!probed && mm.stats.ops.invalidations > 0) {
        probed = true;
        refused = !r.strategy().tryEvict(h, v);
      }
      co_await mm.engine.delay(0.01);
    }
  }(m, rt, host, x, done, probed, refusedMidWrite));
  m.engine.run();
  ASSERT_TRUE(probed) << "the probe never ran while the invalidation was in flight";
  EXPECT_TRUE(refusedMidWrite) << "a copy must not be evicted mid-write";
  EXPECT_EQ(m.stats.ops.evictions, 0u);

  EXPECT_TRUE(rt.strategy().tryEvict(host, x)) << "P's host is a fringe copy after the write";
  EXPECT_EQ(rt.cacheOf(host).peek(x), nullptr);
  rt.checkAllInvariants();
  EXPECT_EQ(valueAs<std::int64_t>(readOnce(m, rt, owner, x)), 2);
  rt.checkAllInvariants();
}

INSTANTIATE_TEST_SUITE_P(Arities, RefusalMemoTest, ::testing::Values(2, 4),
                         [](const auto& info) {
                           return "arity" + std::to_string(info.param);
                         });

INSTANTIATE_TEST_SUITE_P(Strategies, ReplacementTest,
                         ::testing::Values(RuntimeConfig::accessTree(4, 1),
                                           RuntimeConfig::accessTree(2, 1),
                                           RuntimeConfig::fixedHome()),
                         [](const auto& info) {
                           return info.param.kind == StrategyKind::FixedHome
                                      ? std::string("fixedHome")
                                      : "accessTree" + std::to_string(info.param.arity);
                         });

}  // namespace
}  // namespace diva
