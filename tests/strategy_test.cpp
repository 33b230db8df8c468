// Protocol correctness tests for both data management strategies:
// coherence, copy placement, invalidation completeness, and the access
// tree's structural invariants, driven by deterministic and randomized
// (but race-free) operation sequences.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "diva/access_tree_strategy.hpp"
#include "diva/fixed_home_strategy.hpp"
#include "diva/machine.hpp"
#include "diva/runtime.hpp"
#include "net/graph_topology.hpp"
#include "support/rng.hpp"

namespace diva {
namespace {

using sim::Task;

/// Run one read on `p` to completion and return the raw value.
Value readVar(Machine& m, Runtime& rt, NodeId p, VarId x) {
  Value out;
  sim::spawn([](Runtime& r, NodeId n, VarId v, Value& o) -> Task<> {
    o = co_await r.read(n, v);
  }(rt, p, x, out));
  m.engine.run();
  return out;
}

/// Run one read on `p` to completion and return the observed int64.
std::int64_t readInt(Machine& m, Runtime& rt, NodeId p, VarId x) {
  return valueAs<std::int64_t>(readVar(m, rt, p, x));
}

void writeInt(Machine& m, Runtime& rt, NodeId p, VarId x, std::int64_t v) {
  sim::spawn([](Runtime& r, NodeId n, VarId var, std::int64_t val) -> Task<> {
    co_await r.write(n, var, makeValue(val));
  }(rt, p, x, v));
  m.engine.run();
}

struct StratCase {
  RuntimeConfig config;
  const char* label;
};

std::vector<StratCase> allStrategies() {
  return {
      {RuntimeConfig::accessTree(2, 1), "at2"},
      {RuntimeConfig::accessTree(4, 1), "at4"},
      {RuntimeConfig::accessTree(16, 1), "at16"},
      {RuntimeConfig::accessTree(2, 4), "at2_4"},
      {RuntimeConfig::accessTree(4, 16), "at4_16"},
      {RuntimeConfig::fixedHome(), "fh"},
  };
}

class StrategyTest : public ::testing::TestWithParam<StratCase> {};

TEST_P(StrategyTest, ReadReturnsInitialValue) {
  Machine m(4, 4);
  Runtime rt(m, GetParam().config);
  const VarId x = rt.createVarFree(5, makeValue<std::int64_t>(1234));
  EXPECT_EQ(readInt(m, rt, 10, x), 1234);
  rt.checkAllInvariants();
}

TEST_P(StrategyTest, OwnerReadIsLocalAndFree) {
  Machine m(4, 4);
  Runtime rt(m, GetParam().config);
  const VarId x = rt.createVarFree(3, makeValue<std::int64_t>(7));
  EXPECT_EQ(readInt(m, rt, 3, x), 7);
  EXPECT_EQ(m.stats.links.totalMessages(), 0u) << "owner read must not use the network";
  EXPECT_EQ(m.stats.ops.readHits, 1u);
}

TEST_P(StrategyTest, WriteThenReadEverywhereSeesNewValue) {
  Machine m(4, 4);
  Runtime rt(m, GetParam().config);
  const VarId x = rt.createVarFree(0, makeValue<std::int64_t>(1));
  // Spread copies across several readers.
  for (NodeId p : {5, 10, 15, 12}) EXPECT_EQ(readInt(m, rt, p, x), 1);
  rt.checkAllInvariants();
  // Writer updates (after reading, as in all paper applications).
  EXPECT_EQ(readInt(m, rt, 7, x), 1);
  writeInt(m, rt, 7, x, 2);
  rt.checkAllInvariants();
  for (NodeId p = 0; p < m.numProcs(); ++p)
    EXPECT_EQ(readInt(m, rt, p, x), 2) << "stale copy at processor " << p;
  rt.checkAllInvariants();
}

TEST_P(StrategyTest, WriteInvalidatesAllCopies) {
  Machine m(4, 4);
  Runtime rt(m, GetParam().config);
  const VarId x = rt.createVarFree(0, makeValue<std::int64_t>(10));
  for (NodeId p = 0; p < 16; ++p) readInt(m, rt, p, x);
  const std::uint64_t invalBefore = m.stats.ops.invalidations;
  writeInt(m, rt, 0, x, 11);
  EXPECT_GT(m.stats.ops.invalidations, invalBefore);
  rt.checkAllInvariants();
  // After invalidation only the write path holds copies; count caches.
  int holders = 0;
  for (NodeId p = 0; p < 16; ++p)
    if (rt.cacheOf(p).peek(x)) ++holders;
  EXPECT_LT(holders, 16);
  EXPECT_EQ(valueAs<std::int64_t>(rt.peek(x)), 11);
}

TEST_P(StrategyTest, RepeatedReadsHitTheCache) {
  Machine m(4, 4);
  Runtime rt(m, GetParam().config);
  const VarId x = rt.createVarFree(0, makeValue<std::int64_t>(3));
  readInt(m, rt, 9, x);
  const auto msgsAfterFirst = m.net.messagesSent();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(readInt(m, rt, 9, x), 3);
  EXPECT_EQ(m.net.messagesSent(), msgsAfterFirst) << "repeat reads must be local";
  EXPECT_EQ(m.stats.ops.readHits, 5u);
}

TEST_P(StrategyTest, WriteAfterReadIsLocalDataMovement) {
  // Read-before-write (the paper's pattern): the write moves no payload,
  // only control traffic (invalidations).
  Machine m(4, 4);
  Runtime rt(m, GetParam().config);
  const VarId x = rt.createVarFree(0, makeRawValue(4096));
  readVar(m, rt, 9, x);
  const std::uint64_t bytesAfterRead = m.stats.links.totalBytes();
  sim::spawn([](Runtime& r, NodeId n, VarId var) -> Task<> {
    co_await r.write(n, var, makeRawValue(4096));
  }(rt, 9, x));
  m.engine.run();
  const std::uint64_t writeBytes = m.stats.links.totalBytes() - bytesAfterRead;
  // Control messages only: far less than one payload worth of traffic.
  EXPECT_LT(writeBytes, 2048u) << "write after read should not move the payload";
  rt.checkAllInvariants();
}

TEST_P(StrategyTest, RandomRaceFreeOpSequencePreservesInvariants) {
  // Property test: arbitrary sequential reads/writes from random nodes
  // must keep every structural invariant and always observe the last
  // written value.
  const auto& param = GetParam();
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    Machine m(4, 8);
    RuntimeConfig cfg = param.config;
    cfg.seed = seed;
    Runtime rt(m, cfg);
    support::SplitMix64 rng(seed * 977);

    constexpr int kVars = 5;
    std::vector<VarId> vars;
    std::vector<std::int64_t> expect(kVars);
    for (int i = 0; i < kVars; ++i) {
      expect[i] = i;
      vars.push_back(rt.createVarFree(
          static_cast<NodeId>(rng.below(32)), makeValue<std::int64_t>(expect[i])));
    }
    for (int op = 0; op < 120; ++op) {
      const int v = static_cast<int>(rng.below(kVars));
      const NodeId p = static_cast<NodeId>(rng.below(32));
      if (rng.below(3) == 0) {
        // Paper pattern: read before write.
        EXPECT_EQ(readInt(m, rt, p, vars[v]), expect[v]);
        expect[v] = op * 1000 + v;
        writeInt(m, rt, p, vars[v], expect[v]);
      } else {
        EXPECT_EQ(readInt(m, rt, p, vars[v]), expect[v])
            << "wrong value for var " << v << " at op " << op << " seed " << seed;
      }
      rt.checkAllInvariants();
    }
  }
}

TEST_P(StrategyTest, ConcurrentReadersAllSucceed) {
  // All 16 processors read the same variable simultaneously — the
  // paper's root-cell hotspot. Everyone must see the value and the
  // system must quiesce with valid invariants.
  Machine m(4, 4);
  Runtime rt(m, GetParam().config);
  const VarId x = rt.createVarFree(6, makeValue<std::int64_t>(777));
  std::vector<std::int64_t> got(16, -1);
  for (NodeId p = 0; p < 16; ++p) {
    sim::spawn([](Runtime& r, NodeId n, VarId v, std::int64_t& o) -> Task<> {
      o = valueAs<std::int64_t>(co_await r.read(n, v));
    }(rt, p, x, got[p]));
  }
  m.engine.run();
  for (NodeId p = 0; p < 16; ++p) EXPECT_EQ(got[p], 777);
  rt.checkAllInvariants();
}

TEST_P(StrategyTest, MeasuredVariableCreationWorks) {
  Machine m(4, 4);
  Runtime rt(m, GetParam().config);
  const VarId x = rt.createVar(9, makeValue<std::int64_t>(55));
  m.engine.run();
  ASSERT_NE(x, kInvalidVar);
  rt.checkAllInvariants();
  EXPECT_EQ(readInt(m, rt, 2, x), 55);
  rt.checkAllInvariants();
}

TEST_P(StrategyTest, DestroyVarReleasesState) {
  Machine m(4, 4);
  Runtime rt(m, GetParam().config);
  const VarId x = rt.createVarFree(0, makeRawValue(128));
  for (NodeId p = 0; p < 16; ++p) readVar(m, rt, p, x);
  rt.destroyVarFree(x);
  for (NodeId p = 0; p < 16; ++p)
    EXPECT_EQ(rt.cacheOf(p).peek(x), nullptr) << "stale cache entry at " << p;
  EXPECT_EQ(rt.numLiveVars(), 0u);
}

TEST_P(StrategyTest, DeterministicAcrossRuns) {
  auto runOnce = [&](std::uint64_t seed) {
    Machine m(4, 4);
    RuntimeConfig cfg = GetParam().config;
    cfg.seed = seed;
    Runtime rt(m, cfg);
    const VarId x = rt.createVarFree(0, makeValue<std::int64_t>(1));
    for (NodeId p = 0; p < 16; ++p) readInt(m, rt, p, x);
    writeInt(m, rt, 0, x, 2);
    return std::tuple{m.engine.now(), m.stats.links.totalBytes(),
                      m.stats.links.congestionBytes(), m.net.messagesSent()};
  };
  EXPECT_EQ(runOnce(7), runOnce(7));
  // Different seeds relocate homes/embeddings: at least one of several
  // seeds must produce a different traffic pattern.
  const auto base = runOnce(7);
  bool anyDiffers = false;
  for (std::uint64_t s : {8ull, 9ull, 10ull, 11ull})
    anyDiffers = anyDiffers || runOnce(s) != base;
  EXPECT_TRUE(anyDiffers);
}

INSTANTIATE_TEST_SUITE_P(All, StrategyTest, ::testing::ValuesIn(allStrategies()),
                         [](const auto& info) { return info.param.label; });

// ---------------------------------------------------------------------------
// Access-tree-specific behaviour
// ---------------------------------------------------------------------------

TEST(AccessTree, ReadDepositsCopiesAlongTheTreePath) {
  // A read deposits a copy on exactly the tree path from the owner's leaf
  // to the reader's leaf. After it the reader's whole root path region can
  // serve later readers: a second reader in the same lowest cluster must
  // generate strictly less traffic than the first.
  struct Case {
    net::TopologySpec spec;
    RuntimeConfig config;
  };
  const Case cases[] = {
      {net::TopologySpec::mesh2d(8, 8), RuntimeConfig::accessTree(2, 1)},
      {net::TopologySpec::mesh2d(8, 8), RuntimeConfig::accessTree(4, 16)},
      {net::TopologySpec::graph(net::randomRegularGraph(64, 4, 3)),
       RuntimeConfig::accessTree(2, 1)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.spec.describe() + " " + std::to_string(c.config.arity) + "-" +
                 std::to_string(c.config.leafSize));
    Machine m(c.spec);
    Runtime rt(m, c.config);
    const auto& t = dynamic_cast<const AccessTreeStrategy&>(rt.strategy()).tree();
    // The first two leaves in tree order share the lowest cluster; the
    // owner sits at the far end of the tree.
    const NodeId owner = t.procOfRank(t.numLeaves() - 1);
    const NodeId reader = t.procOfRank(0);
    const NodeId neighbour = t.procOfRank(1);
    const VarId x = rt.createVarFree(owner, makeRawValue(4096));
    readVar(m, rt, reader, x);
    const auto afterFirst = m.stats.links.totalBytes();

    std::vector<std::int32_t> copies;
    for (NodeId p = 0; p < m.numProcs(); ++p) {
      if (const NodeCache::Entry* e = rt.cacheOf(p).peek(x)) {
        copies.insert(copies.end(), e->copyNodes.begin(), e->copyNodes.end());
      }
    }
    std::vector<std::int32_t> ownerChain;  // the owner's leaf and its ancestors
    for (int n = t.leafOf(owner); n >= 0; n = t.parent(n)) ownerChain.push_back(n);
    std::vector<std::int32_t> path;
    int lca = t.leafOf(reader);
    for (; std::find(ownerChain.begin(), ownerChain.end(), lca) == ownerChain.end();
         lca = t.parent(lca)) {
      path.push_back(lca);
    }
    for (std::int32_t n : ownerChain) {
      path.push_back(n);
      if (n == lca) break;
    }
    std::sort(copies.begin(), copies.end());
    std::sort(path.begin(), path.end());
    EXPECT_EQ(copies, path);

    readVar(m, rt, neighbour, x);
    const auto second = m.stats.links.totalBytes() - afterFirst;
    EXPECT_LT(second, afterFirst / 2) << "nearby reader should be served locally";
    rt.checkAllInvariants();
  }
}

TEST(AccessTree, FlatterTreesUseFewerMessagesButMoreTraffic) {
  // The startup/congestion trade-off that motivates the ℓ-k-ary
  // variants: 16-ary trees send fewer messages (fewer intermediate
  // stops) than 2-ary trees for the same access pattern.
  auto traffic = [](int arity) {
    Machine m(8, 8);
    Runtime rt(m, RuntimeConfig::accessTree(arity, 1));
    const VarId x = rt.createVarFree(0, makeRawValue(4096));
    for (NodeId p = 0; p < 64; ++p) readVar(m, rt, p, x);
    return std::pair{m.net.messagesSent(), m.stats.links.totalBytes()};
  };
  const auto t2 = traffic(2);
  const auto t16 = traffic(16);
  EXPECT_GT(t2.first, t16.first) << "2-ary should need more startups";
}

TEST(AccessTree, EmbeddingKindChangesHostsNotSemantics) {
  for (auto kind : {net::EmbeddingKind::Regular, net::EmbeddingKind::Random}) {
    Machine m(4, 4);
    RuntimeConfig cfg = RuntimeConfig::accessTree(4, 1);
    cfg.embedding = kind;
    Runtime rt(m, cfg);
    const VarId x = rt.createVarFree(0, makeValue<std::int64_t>(5));
    EXPECT_EQ(readInt(m, rt, 15, x), 5);
    writeInt(m, rt, 15, x, 6);
    EXPECT_EQ(readInt(m, rt, 3, x), 6);
    rt.checkAllInvariants();
  }
}

// ---------------------------------------------------------------------------
// Fixed-home-specific behaviour
// ---------------------------------------------------------------------------

TEST(FixedHome, HomeSerializesAllRequests) {
  // Every miss goes through the home: P readers of one variable push all
  // traffic through one processor — the bottleneck the paper measures in
  // the Barnes-Hut tree-building phase.
  Machine m(8, 8);
  Runtime rt(m, RuntimeConfig::fixedHome());
  auto* fh = dynamic_cast<FixedHomeStrategy*>(&rt.strategy());
  ASSERT_NE(fh, nullptr);
  const VarId x = rt.createVarFree(0, makeRawValue(1024));
  for (NodeId p = 0; p < 64; ++p) readVar(m, rt, p, x);
  rt.checkAllInvariants();
  // The home must appear on almost every data path: its outgoing links
  // carry far more than the average link.
  const NodeId home = fh->homeOf(x);
  std::uint64_t homeOut = 0;
  for (int d = 0; d < net::Grid::kDirs; ++d)
    homeOut += m.stats.links.linkBytes(m.topo().linkIndex(home, d));
  EXPECT_GT(homeOut, m.stats.links.totalBytes() / 16);
}

TEST(FixedHome, OwnershipMovesToWriterThenBackOnRead) {
  Machine m(4, 4);
  Runtime rt(m, RuntimeConfig::fixedHome());
  const VarId x = rt.createVarFree(1, makeValue<std::int64_t>(1));
  // Processor 2 reads then writes: becomes owner; subsequent writes are
  // free (no messages).
  readInt(m, rt, 2, x);
  writeInt(m, rt, 2, x, 2);
  const auto msgs = m.net.messagesSent();
  writeInt(m, rt, 2, x, 3);
  writeInt(m, rt, 2, x, 4);
  EXPECT_EQ(m.net.messagesSent(), msgs) << "owner writes must be local";
  // A read by someone else moves ownership back to the home.
  EXPECT_EQ(readInt(m, rt, 9, x), 4);
  writeInt(m, rt, 2, x, 5);  // no longer owner: needs the home again
  EXPECT_GT(m.net.messagesSent(), msgs);
  rt.checkAllInvariants();
  EXPECT_EQ(readInt(m, rt, 9, x), 5);
}

}  // namespace
}  // namespace diva
