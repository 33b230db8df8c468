// Differential tests for hierarchical landmark-ball routing
// (net/hier_routing.hpp, docs/routing.md): every hierarchical route is
// checked against the dense Dijkstra oracle of GraphTopology on a seeded
// corpus of graph shapes — validity (every hop a real link, terminates
// at the destination), the documented stretch bound, determinism across
// rebuilds, and strategy-level equivalence: the same race-free operation
// sequence yields the same values on the dense and the hierarchical
// machine, with protocol invariants intact at quiescence, including
// under scripted link failures.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "diva/machine.hpp"
#include "diva/runtime.hpp"
#include "net/graph_topology.hpp"
#include "net/hier_routing.hpp"
#include "net/topology.hpp"
#include "support/rng.hpp"
#include "workload/workload.hpp"

namespace diva {
namespace {

using net::GraphSpec;
using net::NodeId;
using net::TopologySpec;

/// The documented stretch bound: hierarchical hop count never exceeds
/// this multiple of the dense shortest-path hop count (docs/routing.md).
constexpr double kStretchBound = 3.0;

/// The seeded corpus: every generator family of the graph layer, sizes
/// 8–512 (the dense oracle stays affordable at 512).
std::vector<GraphSpec> corpus() {
  return {
      net::ringGraph(8),
      net::ringGraph(129),
      net::starGraph(64),
      net::gridGraph(3, 3),
      net::gridGraph(16, 17),
      net::fatTreeGraph(2, 4),
      net::fatTreeGraph(4, 4),
      net::randomRegularGraph(32, 3, 7),
      net::randomRegularGraph(512, 4, 1234),
  };
}

/// Sampled (from, to) pairs: exhaustive on small graphs, a seeded sample
/// on large ones — deterministic either way.
std::vector<std::pair<NodeId, NodeId>> samplePairs(int n, std::uint64_t seed,
                                                    int count = 4000) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  if (n <= 64) {
    for (NodeId a = 0; a < n; ++a)
      for (NodeId b = 0; b < n; ++b) pairs.emplace_back(a, b);
    return pairs;
  }
  support::SplitMix64 rng(seed);
  for (int i = 0; i < count; ++i) {
    const auto a = static_cast<NodeId>(rng.next() % static_cast<std::uint64_t>(n));
    const auto b = static_cast<NodeId>(rng.next() % static_cast<std::uint64_t>(n));
    pairs.emplace_back(a, b);
  }
  return pairs;
}

/// Walk `route` from `from`, asserting every hop is a real link of
/// `topo`; returns the endpoint.
NodeId walkRoute(const net::Topology& topo, NodeId from,
                 const std::vector<net::Hop>& route) {
  NodeId cur = from;
  for (const net::Hop& h : route) {
    const int dir = h.link - topo.linkIndex(cur, 0);
    EXPECT_GE(dir, 0);
    EXPECT_LT(dir, topo.degree());
    const NodeId next = topo.neighbor(cur, dir);
    EXPECT_GE(next, 0) << "route uses an empty link slot";
    EXPECT_EQ(next, h.to);
    cur = next;
  }
  return cur;
}

TEST(HierRouting, RoutesValidAndBoundedStretchOnCorpus) {
  double worstStretch = 1.0;
  for (const GraphSpec& g : corpus()) {
    const auto dense = net::makeTopology(TopologySpec::graph(g));
    const auto hier = net::makeTopology(TopologySpec::hierGraph(g));
    ASSERT_EQ(hier->numNodes(), dense->numNodes()) << g.name;
    for (const auto& [a, b] : samplePairs(dense->numNodes(), 99)) {
      const auto route = net::routeOf(*hier, a, b);
      ASSERT_EQ(walkRoute(*hier, a, route), b) << g.name << " " << a << "->" << b;
      const auto denseHops = static_cast<int>(net::routeOf(*dense, a, b).size());
      if (denseHops > 0) {
        const double stretch = static_cast<double>(route.size()) / denseHops;
        worstStretch = std::max(worstStretch, stretch);
        ASSERT_LE(stretch, kStretchBound)
            << g.name << " " << a << "->" << b << ": " << route.size()
            << " hops vs dense " << denseHops;
      } else {
        ASSERT_TRUE(route.empty()) << g.name;
      }
    }
  }
  RecordProperty("worst_stretch", std::to_string(worstStretch));
  std::printf("[corpus] worst measured stretch: %.3f (bound %.1f)\n", worstStretch,
              kStretchBound);
}

TEST(HierRouting, ArityVariantsAllSatisfyTheBound) {
  const GraphSpec g = net::randomRegularGraph(96, 3, 42);
  const auto dense = net::makeTopology(TopologySpec::graph(g));
  for (int arity : {2, 4, 16}) {
    const auto hier = net::makeTopology(TopologySpec::hierGraph(g, arity));
    for (const auto& [a, b] : samplePairs(96, 3)) {
      const auto route = net::routeOf(*hier, a, b);
      ASSERT_EQ(walkRoute(*hier, a, route), b) << "arity " << arity;
      const auto denseHops = static_cast<int>(net::routeOf(*dense, a, b).size());
      if (denseHops > 0) {
        ASSERT_LE(static_cast<double>(route.size()), kStretchBound * denseHops)
            << "arity " << arity << " " << a << "->" << b;
      }
    }
  }
}

TEST(HierRouting, DeterministicAcrossRebuilds) {
  const GraphSpec g = net::randomRegularGraph(128, 4, 5);
  const net::HierGraphTopology t1(g), t2(g);
  EXPECT_EQ(t1.totalBallEntries(), t2.totalBallEntries());
  for (const auto& [a, b] : samplePairs(128, 11))
    EXPECT_EQ(net::routeOf(t1, a, b), net::routeOf(t2, a, b)) << a << "->" << b;
}

/// FNV-1a digest of a hierarchical build: its ball-arena size and every
/// hop of the routes between `pairs`.
std::uint64_t hierDigest(const net::HierGraphTopology& topo,
                         const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::int64_t>(topo.totalBallEntries()));
  for (const auto& [a, b] : pairs) {
    const auto route = net::routeOf(topo, a, b);
    mix(static_cast<std::int64_t>(route.size()));
    for (const net::Hop& hop : route) {
      mix(hop.link);
      mix(hop.to);
    }
  }
  return h;
}

TEST(HierRouting, RoutesMatchCommittedDigests) {
  // Goldens recorded before balls, spines and landmarks moved onto the
  // shared search kernel (net/graph_search.hpp). The 4,200-node graph is
  // above kExactSpineMaxNodes, so its internally disconnected clusters
  // take the LCA spine fallback; its pairs are sampled sparsely to keep
  // the sanitizer build fast. The 1,024-node 4-regular graph at arity 16
  // is the benchmark's elastic_hier machine; about 565 of its spine
  // children are missed by their parent's cluster-restricted search and
  // take the exact whole-graph fallback.
  static_assert(net::HierGraphTopology::kExactSpineMaxNodes < 4200);
  struct Case {
    GraphSpec g;
    int arity;
    int pairs;
    std::uint64_t golden;
  };
  const std::vector<Case> cases = {
      {net::randomRegularGraph(96, 3, 42), 2, 1000, 0xff75ffd50a4d7798ull},
      {net::randomRegularGraph(96, 3, 42), 4, 1000, 0x9822933ac6dba148ull},
      {net::randomRegularGraph(96, 3, 42), 16, 1000, 0x6b88e41f80025887ull},
      {net::gridGraph(16, 17), 2, 1000, 0x5ec048028684b4fcull},
      {net::gridGraph(16, 17), 4, 1000, 0x3abfab4b842d3a62ull},
      {net::gridGraph(16, 17), 16, 1000, 0x93934d47f4b03c29ull},
      {net::fatTreeGraph(4, 4), 2, 1000, 0xdbc80d0210ef0390ull},
      {net::fatTreeGraph(4, 4), 4, 1000, 0xcfe806ace0ef44c0ull},
      {net::fatTreeGraph(4, 4), 16, 1000, 0x68051c172ed84800ull},
      {net::randomRegularGraph(4200, 3, 7), 16, 200, 0x9b1cf9bf30eb1707ull},
      {net::randomRegularGraph(1024, 4, 1), 16, 1000, 0x98dcffa3f5921046ull},
  };
  for (const Case& c : cases) {
    const net::HierGraphTopology topo(c.g, c.arity);
    const std::uint64_t h = hierDigest(topo, samplePairs(c.g.numNodes, 23, c.pairs));
    EXPECT_EQ(h, c.golden) << c.g.name << " arity " << c.arity << " digest 0x" << std::hex
                           << h;
  }
}

TEST(HierRouting, SparseStateIsFarSmallerThanDenseTables) {
  // The point of the scheme: dense next-hop tables are Θ(n²) while the
  // ball arena is near-linear (docs/routing.md tabulates the growth).
  // Doubling n must grow the arena far slower than the 4× of dense
  // tables, and past the kBallMinEntries floor (n ≳ 1000) the arena must
  // be well under n² outright.
  const net::HierGraphTopology small(net::randomRegularGraph(1024, 4, 1234));
  const net::HierGraphTopology big(net::randomRegularGraph(2048, 4, 1234));
  EXPECT_LT(big.totalBallEntries(), small.totalBallEntries() * 3)
      << "arena grew superlinearly: " << small.totalBallEntries() << " -> "
      << big.totalBallEntries();
  EXPECT_LT(big.totalBallEntries() * 4, 2048ull * 2048ull)
      << "ball arena " << big.totalBallEntries() << " entries";
}

TEST(HierRouting, SpecRoundTripAndDescribe) {
  const TopologySpec s = TopologySpec::hierGraph(net::ringGraph(12), 4);
  EXPECT_EQ(s.hierArity, 4);
  const auto topo = net::makeTopology(s);
  EXPECT_TRUE(topo->spec() == s);
  EXPECT_NE(topo->spec().describe().find("-hier4"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Strategy-level differential runs: dense vs hierarchical machine
// ---------------------------------------------------------------------------

/// Run one read to completion (test-driver idiom of strategy_test.cpp).
std::int64_t readInt(Machine& m, Runtime& rt, NodeId p, VarId x) {
  std::int64_t out = 0;
  sim::spawn([](Runtime& r, NodeId n, VarId v, std::int64_t& o) -> sim::Task<> {
    o = valueAs<std::int64_t>(co_await r.read(n, v));
  }(rt, p, x, out));
  m.engine.run();
  return out;
}

void writeInt(Machine& m, Runtime& rt, NodeId p, VarId x, std::int64_t v) {
  sim::spawn([](Runtime& r, NodeId n, VarId var, std::int64_t val) -> sim::Task<> {
    co_await r.write(n, var, makeValue(val));
  }(rt, p, x, v));
  m.engine.run();
}

/// Drive the same seeded race-free op sequence on both machines and
/// assert every read observes the same value — routing must be invisible
/// to strategy semantics.
void runDifferential(const TopologySpec& denseSpec, const TopologySpec& hierSpec,
                     const RuntimeConfig& config, std::uint64_t seed) {
  Machine md(denseSpec), mh(hierSpec);
  Runtime rd(md, config), rh(mh, config);
  const int n = md.numProcs();
  constexpr int kVars = 6;
  std::vector<VarId> vd, vh;
  for (int i = 0; i < kVars; ++i) {
    const NodeId owner = static_cast<NodeId>((i * 7) % n);
    vd.push_back(rd.createVarFree(owner, makeValue<std::int64_t>(i)));
    vh.push_back(rh.createVarFree(owner, makeValue<std::int64_t>(i)));
  }
  support::SplitMix64 rng(seed);
  for (int op = 0; op < 200; ++op) {
    const auto p = static_cast<NodeId>(rng.next() % static_cast<std::uint64_t>(n));
    const int i = static_cast<int>(rng.next() % kVars);
    if (rng.next() % 4 == 0) {
      const auto val = static_cast<std::int64_t>(rng.next() % 100000);
      writeInt(md, rd, p, vd[i], val);
      writeInt(mh, rh, p, vh[i], val);
    } else {
      const std::int64_t a = readInt(md, rd, p, vd[i]);
      const std::int64_t b = readInt(mh, rh, p, vh[i]);
      ASSERT_EQ(a, b) << "read divergence at op " << op;
    }
  }
  rd.checkAllInvariants();
  rh.checkAllInvariants();
  for (int i = 0; i < kVars; ++i)
    EXPECT_EQ(valueAs<std::int64_t>(rd.peek(vd[i])), valueAs<std::int64_t>(rh.peek(vh[i])));
}

TEST(HierRouting, AccessTreeEquivalentToDenseRouting) {
  const GraphSpec g = net::randomRegularGraph(48, 3, 21);
  runDifferential(TopologySpec::graph(g), TopologySpec::hierGraph(g),
                  RuntimeConfig::accessTree(4, 1), 77);
}

TEST(HierRouting, FixedHomeEquivalentToDenseRouting) {
  const GraphSpec g = net::fatTreeGraph(3, 4);
  runDifferential(TopologySpec::graph(g), TopologySpec::hierGraph(g),
                  RuntimeConfig::fixedHome(), 78);
}

TEST(HierRouting, StrategiesQuiesceOnHierCorpusWorkload) {
  workload::WorkloadSpec spec;
  spec.name = "hier-quiesce";
  spec.numObjects = 16;
  spec.seed = 5;
  spec.phases.push_back({});
  spec.phases[0].rounds = 6;
  spec.phases[0].readFraction = 0.75;
  spec.phases[0].zipfS = 1.0;
  spec.validate();
  for (const GraphSpec& g :
       {net::ringGraph(33), net::gridGraph(6, 7), net::randomRegularGraph(64, 3, 9)}) {
    for (const RuntimeConfig& cfg :
         {RuntimeConfig::accessTree(4, 1), RuntimeConfig::fixedHome()}) {
      // runOn drains between phases and the runtime checks protocol
      // invariants for every live variable at quiescence.
      const workload::WorkloadReport r =
          workload::runOn(TopologySpec::hierGraph(g), cfg, spec);
      EXPECT_GT(r.injected, 0u) << g.name;
      EXPECT_EQ(r.availability, 1.0) << g.name;
    }
  }
}

TEST(HierRouting, QuiescesUnderLinkFailures) {
  // Sever and restore real edges of the graph mid-phase: the protocols
  // must stay live (detour/park machinery) and the invariants must hold
  // at quiescence on the hierarchical machine, exactly as on dense.
  const GraphSpec g = net::randomRegularGraph(48, 3, 11);
  workload::WorkloadSpec spec;
  spec.name = "hier-faults";
  spec.numObjects = 12;
  spec.seed = 13;
  spec.phases.push_back({});
  spec.phases[0].rounds = 8;
  spec.phases[0].readFraction = 0.7;
  spec.phases[0].thinkMeanUs = 40.0;
  spec.phases[0].faults = {
      {net::FaultEvent::Kind::LinkDown, 50.0, g.edges[0].u, g.edges[0].v, 1.0, 1.0},
      {net::FaultEvent::Kind::LinkDown, 80.0, g.edges[5].u, g.edges[5].v, 1.0, 1.0},
      {net::FaultEvent::Kind::LinkUp, 400.0, g.edges[0].u, g.edges[0].v, 1.0, 1.0},
      {net::FaultEvent::Kind::LinkUp, 500.0, g.edges[5].u, g.edges[5].v, 1.0, 1.0},
  };
  spec.validate();
  for (const RuntimeConfig& cfg :
       {RuntimeConfig::accessTree(4, 1), RuntimeConfig::fixedHome()}) {
    const workload::WorkloadReport r =
        workload::runOn(TopologySpec::hierGraph(g), cfg, spec);
    EXPECT_GT(r.injected, 0u);
    EXPECT_GE(r.availability, 0.99);  // link faults detour, ops don't fail
  }
}

}  // namespace
}  // namespace diva
