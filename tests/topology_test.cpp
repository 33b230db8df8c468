// Tests for the pluggable topology layer: routing validity across every
// topology (link-sequence correctness, hop count == BFS distance, torus
// wraparound direction, hypercube bit flips), decomposition/embedding
// sanity, fail-fast construction, and end-to-end strategy runs on every
// network shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <numeric>
#include <vector>

#include "diva/machine.hpp"
#include "diva/runtime.hpp"
#include "net/graph_topology.hpp"
#include "net/hypercube_topology.hpp"
#include "net/mesh_topology.hpp"
#include "net/topology.hpp"
#include "net/torus_topology.hpp"
#include "support/rng.hpp"

namespace diva {
namespace {

using net::NodeId;
using net::TopologySpec;

std::vector<TopologySpec> allShapes() {
  return {TopologySpec::mesh2d(4, 5),  TopologySpec::mesh2d(1, 7),
          TopologySpec::torus2d(4, 6), TopologySpec::torus2d(5, 5),
          TopologySpec::hypercube(4),  TopologySpec::hypercube(1)};
}

/// Does processor p lie in the cluster of `treeNode`? (Climb from p's leaf.)
bool inCluster(const net::ClusterTree& tree, int treeNode, NodeId p) {
  for (int n = tree.leafOf(p); n >= 0; n = tree.parent(n))
    if (n == treeNode) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// Hop distances from `src` to every node by BFS over `neighbor()`: an
/// oracle independent of the topology's own routing.
std::vector<int> bfsHops(const net::Topology& topo, NodeId src) {
  std::vector<int> dist(static_cast<std::size_t>(topo.numNodes()), -1);
  std::vector<NodeId> queue{src};
  dist[src] = 0;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const NodeId u = queue[i];
    for (int dir = 0; dir < topo.degree(); ++dir) {
      const NodeId v = topo.neighbor(u, dir);
      if (v < 0 || dist[v] >= 0) continue;
      dist[v] = dist[u] + 1;
      queue.push_back(v);
    }
  }
  return dist;
}

/// Hop count of the route from a to b.
int routeHops(const net::Topology& topo, NodeId a, NodeId b) {
  return static_cast<int>(net::routeOf(topo, a, b).size());
}

TEST(TopologyRouting, RoutesFollowLinksAndMatchDistance) {
  for (const auto& spec : allShapes()) {
    const auto topo = net::makeTopology(spec);
    const int n = topo->numNodes();
    for (NodeId a = 0; a < n; ++a) {
      const std::vector<int> shortest = bfsHops(*topo, a);
      for (NodeId b = 0; b < n; ++b) {
        const auto hops = net::routeOf(*topo, a, b);
        // Every shape here routes shortest paths.
        ASSERT_EQ(static_cast<int>(hops.size()), shortest[b])
            << spec.describe() << " " << a << "->" << b;
        NodeId cur = a;
        for (const net::Hop& h : hops) {
          // The hop's link must be a real directed link out of `cur`
          // leading exactly to the hop's target.
          const int dir = h.link - topo->linkIndex(cur, 0);
          ASSERT_GE(dir, 0) << spec.describe();
          ASSERT_LT(dir, topo->degree()) << spec.describe();
          ASSERT_EQ(topo->linkIndex(cur, dir), h.link);
          ASSERT_EQ(topo->neighbor(cur, dir), h.to)
              << spec.describe() << " " << a << "->" << b << " at node " << cur;
          cur = h.to;
        }
        ASSERT_EQ(cur, b) << spec.describe();
      }
    }
  }
}

TEST(TopologyRouting, TorusWraparoundPicksShorterDirection) {
  const auto topo = net::makeTopology(TopologySpec::torus2d(4, 6));
  auto at = [&](int r, int c) { return static_cast<NodeId>(r * 6 + c); };

  // (0,0) -> (0,5): one hop West around the wrap, not five hops East.
  auto route = net::routeOf(*topo, at(0, 0), at(0, 5));
  ASSERT_EQ(route.size(), 1u);
  EXPECT_EQ(route.front().to, at(0, 5));

  // (0,0) -> (3,0): one hop North around the wrap.
  route = net::routeOf(*topo, at(0, 0), at(3, 0));
  ASSERT_EQ(route.size(), 1u);
  EXPECT_EQ(route.front().to, at(3, 0));

  // (0,1) -> (0,4): tie on the 6-ring (3 either way) breaks East.
  route = net::routeOf(*topo, at(0, 1), at(0, 4));
  ASSERT_EQ(route.size(), 3u);
  EXPECT_EQ(route.front().to, at(0, 2));

  // A size-1 ring has no wrap link — neighbor() must not report a
  // self-loop.
  const auto ribbon = net::makeTopology(TopologySpec::torus2d(1, 7));
  EXPECT_EQ(ribbon->neighbor(3, net::Grid::South), -1);
  EXPECT_EQ(ribbon->neighbor(3, net::Grid::North), -1);
  EXPECT_EQ(ribbon->neighbor(6, net::Grid::East), 0);  // the 7-ring wraps

  // Distances are symmetric and never exceed the mesh distance.
  const auto meshTopo = net::makeTopology(TopologySpec::mesh2d(4, 6));
  for (NodeId a = 0; a < 24; ++a) {
    for (NodeId b = 0; b < 24; ++b) {
      EXPECT_EQ(routeHops(*topo, a, b), routeHops(*topo, b, a));
      EXPECT_LE(routeHops(*topo, a, b), routeHops(*meshTopo, a, b));
    }
  }
}

TEST(TopologyRouting, HypercubeRoutesFlipOneAscendingBitPerHop) {
  const auto topo = net::makeTopology(TopologySpec::hypercube(4));
  for (NodeId a = 0; a < 16; ++a) {
    for (NodeId b = 0; b < 16; ++b) {
      const auto hops = net::routeOf(*topo, a, b);
      EXPECT_EQ(static_cast<int>(hops.size()),
                std::popcount(static_cast<std::uint32_t>(a ^ b)));
      NodeId cur = a;
      int lastDim = -1;
      for (const net::Hop& h : hops) {
        const auto flipped = static_cast<std::uint32_t>(cur ^ h.to);
        ASSERT_EQ(std::popcount(flipped), 1) << a << "->" << b;
        const int dim = std::countr_zero(flipped);
        ASSERT_GT(dim, lastDim) << "e-cube order violated";  // dimensions ascend
        lastDim = dim;
        cur = h.to;
      }
      ASSERT_EQ(cur, b);
    }
  }
}

TEST(TopologyRouting, MeshMatchesLegacyDimensionOrderRouting) {
  // The mesh route must be bit-identical to the GCel's dimension-order
  // walk as the legacy mesh router numbered it: every column hop, then
  // every row hop, each on link slot node * 4 + {East, West, South, North}.
  constexpr int kRows = 5, kCols = 7;
  const net::MeshTopology topo(kRows, kCols);
  for (NodeId a = 0; a < kRows * kCols; ++a) {
    for (NodeId b = 0; b < kRows * kCols; ++b) {
      std::vector<net::Hop> legacy;
      NodeId cur = a;
      for (int col = a % kCols; col != b % kCols;) {
        const bool east = col < b % kCols;
        col += east ? 1 : -1;
        const NodeId next = a / kCols * kCols + col;
        legacy.push_back(net::Hop{cur * 4 + (east ? 0 : 1), next});
        cur = next;
      }
      for (int row = a / kCols; row != b / kCols;) {
        const bool south = row < b / kCols;
        row += south ? 1 : -1;
        const NodeId next = row * kCols + b % kCols;
        legacy.push_back(net::Hop{cur * 4 + (south ? 2 : 3), next});
        cur = next;
      }
      ASSERT_EQ(net::routeOf(topo, a, b), legacy) << a << "->" << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Decomposition and embedding
// ---------------------------------------------------------------------------

TEST(TopologyDecomposition, TreesPartitionAndEmbedWithinClusters) {
  for (const auto& spec : allShapes()) {
    const auto topo = net::makeTopology(spec);
    const int procs = topo->numNodes();
    for (const auto& params :
         {net::DecompParams{2, 1}, net::DecompParams{4, 1}, net::DecompParams{16, 1},
          net::DecompParams{2, 4}}) {
      const auto tree = topo->decompose(params);

      // Leaf tables are mutually inverse permutations.
      ASSERT_EQ(tree->numProcs(), procs);
      for (NodeId p = 0; p < procs; ++p) {
        EXPECT_EQ(tree->procOfLeaf(tree->leafOf(p)), p);
        EXPECT_EQ(tree->procOfRank(tree->rankOf(p)), p);
      }

      // Tree structure: children sizes sum to the parent's, indexInParent
      // matches position, depths increase by one.
      for (int i = 0; i < tree->numNodes(); ++i) {
        const auto& nd = tree->node(i);
        if (nd.isLeaf()) {
          EXPECT_EQ(nd.size, 1);
          continue;
        }
        int sum = 0;
        for (std::size_t c = 0; c < nd.children.size(); ++c) {
          const auto& cd = tree->node(nd.children[c]);
          EXPECT_EQ(cd.parent, i);
          EXPECT_EQ(cd.indexInParent, static_cast<int>(c));
          EXPECT_EQ(cd.depth, nd.depth + 1);
          sum += cd.size;
        }
        EXPECT_EQ(sum, nd.size) << spec.describe();
      }

      // Embeddings host every tree node on a processor of its own cluster,
      // deterministically, for both kinds.
      for (const auto kind : {net::EmbeddingKind::Regular, net::EmbeddingKind::Random}) {
        for (std::uint64_t var : {1ull, 2ull, 99ull}) {
          for (int i = 0; i < tree->numNodes(); ++i) {
            const NodeId host = tree->hostOf(i, var, kind, 42);
            ASSERT_GE(host, 0);
            ASSERT_LT(host, procs);
            EXPECT_TRUE(inCluster(*tree, i, host))
                << spec.describe() << " node " << i << " hosted outside its cluster";
            EXPECT_EQ(host, tree->hostOf(i, var, kind, 42)) << "non-deterministic";
          }
        }
      }

      // stepToward agrees with the ancestor chain: down into the child
      // holding p, up from a node whose cluster does not hold p.
      for (NodeId p = 0; p < procs; ++p) {
        int cur = tree->leafOf(p);
        while (tree->parent(cur) >= 0) {
          EXPECT_EQ(tree->stepToward(tree->parent(cur), p), cur);
          cur = tree->parent(cur);
        }
        EXPECT_EQ(tree->stepToward(tree->leafOf(p), p), -1);  // the path ends at p's leaf
        const int other = tree->leafOf((p + 1) % procs);
        if (other != tree->leafOf(p)) {
          EXPECT_EQ(tree->stepToward(other, p), tree->parent(other));
        }
      }
    }

    // Canonical leaf order is a permutation of the processors.
    auto order = net::canonicalLeafOrder(*topo);
    ASSERT_EQ(static_cast<int>(order.size()), procs);
    std::sort(order.begin(), order.end());
    for (NodeId p = 0; p < procs; ++p) EXPECT_EQ(order[p], p);
  }
}

/// FNV-1a digest of every decomposition of `topo` over a spread of
/// (arity, leafSize) parameters: tree shape (parent, index, depth, size,
/// children), leaf order, and the host both embeddings give every tree
/// node for a few variables and seeds.
std::uint64_t treeDigest(const net::Topology& topo) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (const auto& params :
       {net::DecompParams{2, 1}, net::DecompParams{4, 1}, net::DecompParams{16, 1},
        net::DecompParams{2, 3}, net::DecompParams{4, 8}, net::DecompParams{16, 64}}) {
    const auto tree = topo.decompose(params);
    for (int i = 0; i < tree->numNodes(); ++i) {
      const auto& nd = tree->node(i);
      mix(nd.parent);
      mix(nd.indexInParent);
      mix(nd.depth);
      mix(nd.size);
      for (int c : nd.children) mix(c);
      for (const auto kind : {net::EmbeddingKind::Regular, net::EmbeddingKind::Random})
        for (std::uint64_t var : {1ull, 5ull, 99ull, 12345ull})
          for (std::uint64_t seed : {7ull, 42ull}) mix(tree->hostOf(i, var, kind, seed));
    }
    for (int leaf : tree->leafOrder()) mix(leaf);
  }
  return h;
}

void expectTreeDigests(const std::vector<std::pair<TopologySpec, std::uint64_t>>& cases) {
  for (const auto& [spec, golden] : cases) {
    const std::uint64_t h = treeDigest(*net::makeTopology(spec));
    EXPECT_EQ(h, golden) << spec.describe() << " tree digest 0x" << std::hex << h;
  }
}

TEST(TopologyDecomposition, MeshTreeMatchesLegacyDecomposition) {
  // Goldens recorded from the legacy mesh decomposition and embedding
  // (src/mesh/, which grid trees wrapped before the shared builder).
  expectTreeDigests({
      {TopologySpec::mesh2d(4, 3), 0xa306ee8f3c13b785ull},
      {TopologySpec::mesh2d(5, 9), 0xbcd0589b18220abbull},
      {TopologySpec::mesh2d(16, 16), 0xd0110564f1798e45ull},
      {TopologySpec::mesh2d(1, 7), 0x83638e15c1f81d61ull},
      {TopologySpec::torus2d(4, 6), 0x7d7fb1e1c33a41ffull},
  });
}

/// A weighted random-regular graph: unequal weights and latencies.
net::GraphSpec weightedGraph() {
  net::GraphSpec g = net::randomRegularGraph(24, 3, 3);
  g.name = "rr24-weighted";
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    g.edges[i].weight = 0.5 + static_cast<double>(i % 4);
    g.edges[i].latency = 1.0 + static_cast<double>(i % 3);
  }
  return g;
}

/// A 4×5 grid whose nodes 6 and 13 have left an elastic machine: their
/// ids stay in the node range with no edges (GraphSpec::allowIsolated).
net::GraphSpec retiredIdsGraph() {
  net::GraphSpec g = net::gridGraph(4, 5);
  g.name = "grid4x5-retired";
  std::erase_if(g.edges, [](const net::GraphSpec::Edge& e) {
    return e.u == 6 || e.v == 6 || e.u == 13 || e.v == 13;
  });
  g.allowIsolated = true;
  return g;
}

TEST(TopologyDecomposition, TreesMatchCommittedDigests) {
  // Goldens recorded from the per-shape builders the shared builder
  // replaced (the hypercube's subcube split, graph bisection); the grid,
  // weighted and retired-id graphs from the BFS bisection before it moved
  // onto the shared search kernel (net/graph_search.hpp).
  expectTreeDigests({
      {TopologySpec::graph(net::gridGraph(5, 9)), 0x66038f592d954a85ull},
      {TopologySpec::graph(weightedGraph()), 0x0ec60d3a68ad81d5ull},
      {TopologySpec::graph(retiredIdsGraph()), 0x2f30eae7d3183e6cull},
      {TopologySpec::hierGraph(retiredIdsGraph(), 4), 0x2f30eae7d3183e6cull},
      {TopologySpec::hypercube(0), 0xa3eca47afc4a5fa5ull},
      {TopologySpec::hypercube(5), 0xa245770bac78df33ull},
      {TopologySpec::graph(net::ringGraph(7)), 0x90867fd3c3a63687ull},
      {TopologySpec::graph(net::randomRegularGraph(40, 3, 7)), 0x957516ff0e7cc252ull},
      {TopologySpec::graph(net::fatTreeGraph(3, 3)), 0x3ea766cbef7436f7ull},
      {TopologySpec::hierGraph(net::randomRegularGraph(64, 4, 1), 4), 0x84be4df4256d98ddull},
  });
}

/// The graph shapes whose Regular-embedding hosts are pinned below:
/// write_shift's graph, a ring, a grid, a hierarchical-routing graph and
/// an elastic machine's retired ids.
std::vector<TopologySpec> regularHostGraphs() {
  return {TopologySpec::graph(net::randomRegularGraph(256, 4, 1)),
          TopologySpec::graph(net::ringGraph(11)), TopologySpec::graph(net::gridGraph(5, 9)),
          TopologySpec::hierGraph(net::randomRegularGraph(64, 4, 1), 4),
          TopologySpec::graph(retiredIdsGraph())};
}

TEST(TopologyDecomposition, RegularGraphHostsMatchCommittedDigests) {
  // Every tree node's Regular host for variables 0..63, at arities 2, 4
  // and 16. Goldens recorded from the recursive search of the parent's
  // host in the parent's member list.
  const std::vector<std::uint64_t> goldens = {0x8321ca5762bfe93cull, 0x8fed4d8d1da65ccbull,
                                              0x88f6b377c7d9de3dull, 0x380a272c47fa323eull,
                                              0xbe789686aa71642full};
  const auto specs = regularHostGraphs();
  ASSERT_EQ(specs.size(), goldens.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const auto topo = net::makeTopology(specs[s]);
    std::uint64_t h = 14695981039346656037ull;
    for (const int arity : {2, 4, 16}) {
      const auto tree = topo->decompose(net::DecompParams{arity, 1});
      for (int i = 0; i < tree->numNodes(); ++i) {
        for (std::uint64_t x = 0; x < 64; ++x) {
          const auto host = static_cast<std::uint64_t>(
              tree->hostOf(i, x, net::EmbeddingKind::Regular, 0x5eedull));
          for (int b = 0; b < 8; ++b) {
            h ^= (host >> (8 * b)) & 0xFF;
            h *= 1099511628211ull;
          }
        }
      }
    }
    EXPECT_EQ(h, goldens[s]) << specs[s].describe() << " host digest 0x" << std::hex << h;
  }
}

TEST(TopologyDecomposition, RegularGraphHostKeepsParentRankModuloChildSize) {
  // The graph analogue of the mesh's (i mod m1, j mod m2): a node's host
  // sits at the parent host's index in the parent cluster, reduced modulo
  // the node's own cluster size.
  auto indexIn = [](const std::vector<NodeId>& c, NodeId p) {
    const auto it = std::find(c.begin(), c.end(), p);
    return it == c.end() ? -1 : static_cast<int>(it - c.begin());
  };
  for (const auto& spec : regularHostGraphs()) {
    const auto topo = net::makeTopology(spec);
    for (const int arity : {2, 4, 16}) {
      const auto built = topo->decompose(net::DecompParams{arity, 1});
      const auto* tree = dynamic_cast<const net::GraphClusterTree*>(built.get());
      ASSERT_NE(tree, nullptr) << spec.describe();
      for (std::uint64_t x = 0; x < 16; ++x) {
        for (int i = 1; i < tree->numNodes(); ++i) {
          const int parent = tree->parent(i);
          const auto& c = tree->cluster(i);
          const int rank = indexIn(c, tree->hostOf(i, x, net::EmbeddingKind::Regular, 3));
          const int parentRank = indexIn(
              tree->cluster(parent), tree->hostOf(parent, x, net::EmbeddingKind::Regular, 3));
          ASSERT_GE(rank, 0) << spec.describe() << " node " << i << " hosted outside";
          ASSERT_GE(parentRank, 0);
          EXPECT_EQ(rank, parentRank % static_cast<int>(c.size()))
              << spec.describe() << " arity " << arity << " node " << i << " x " << x;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fail-fast construction and configuration validation
// ---------------------------------------------------------------------------

TEST(TopologyValidation, RejectsInvalidDimensions) {
  EXPECT_THROW((void)net::makeTopology(TopologySpec::mesh2d(0, 4)), support::CheckError);
  EXPECT_THROW((void)net::makeTopology(TopologySpec::torus2d(4, -1)),
               support::CheckError);
  EXPECT_THROW((void)net::makeTopology(TopologySpec::hypercube(-1)),
               support::CheckError);
  EXPECT_THROW((void)net::makeTopology(TopologySpec::hypercube(21)),
               support::CheckError);
  EXPECT_THROW(Machine(TopologySpec::mesh2d(0, 0)), support::CheckError);
}

TEST(TopologyValidation, RuntimeRejectsInvalidConfig) {
  Machine m(4, 4);
  EXPECT_THROW(Runtime(m, RuntimeConfig::accessTree(3, 1)), support::CheckError);
  EXPECT_THROW(Runtime(m, RuntimeConfig::accessTree(4, 0)), support::CheckError);
  EXPECT_THROW(Runtime(m, RuntimeConfig::accessTree(4, 33)), support::CheckError);
}

TEST(TopologyValidation, RuntimeRejectsMismatchedTopologySpec) {
  Machine m(TopologySpec::torus2d(4, 4));
  // Pinning the config to the machine's own shape is fine...
  Runtime ok(m, RuntimeConfig::accessTree(4, 1).on(TopologySpec::torus2d(4, 4)));
  // ...any other shape fails fast instead of silently measuring the wrong
  // machine.
  EXPECT_THROW(Runtime(m, RuntimeConfig::accessTree(4, 1).on(TopologySpec::mesh2d(4, 4))),
               support::CheckError);
  EXPECT_THROW(
      Runtime(m, RuntimeConfig::fixedHome().on(TopologySpec::torus2d(4, 8))),
      support::CheckError);
  // hypercube(0) is a constructible 1-node machine, so pinning it counts
  // as "specified" and must still trip the mismatch check.
  EXPECT_THROW(
      Runtime(m, RuntimeConfig::accessTree(4, 1).on(TopologySpec::hypercube(0))),
      support::CheckError);
}

// ---------------------------------------------------------------------------
// End-to-end: both strategies run on every topology
// ---------------------------------------------------------------------------

class TopologyEndToEnd : public ::testing::TestWithParam<TopologySpec> {};

TEST_P(TopologyEndToEnd, StrategiesRunAndInvariantsHoldAtQuiescence) {
  const TopologySpec spec = GetParam();
  for (const auto& rc :
       {RuntimeConfig::accessTree(4, 1), RuntimeConfig::accessTree(2, 2),
        RuntimeConfig::fixedHome()}) {
    Machine m(spec);
    Runtime rt(m, rc);
    const int procs = m.numProcs();

    constexpr int kVars = 4;
    constexpr int kOpsPerProc = 6;
    std::vector<VarId> vars;
    for (int i = 0; i < kVars; ++i)
      vars.push_back(rt.createVarFree(static_cast<NodeId>((i * 5) % procs),
                                      makeValue<std::int64_t>(0), /*withLock=*/true));

    std::vector<int> increments(kVars, 0);
    for (NodeId p = 0; p < procs; ++p) {
      sim::spawn([](Machine& mm, Runtime& r, NodeId self, std::vector<VarId>& vs,
                    std::vector<int>& counts) -> sim::Task<> {
        support::SplitMix64 rng(
            support::hashCombine(99, static_cast<std::uint64_t>(self)));
        for (int op = 0; op < kOpsPerProc; ++op) {
          const int which = static_cast<int>(rng.below(kVars));
          co_await mm.net.compute(self, rng.uniform(0.0, 300.0));
          co_await r.lock(self, vs[which]);
          const auto v = valueAs<std::int64_t>(co_await r.read(self, vs[which]));
          co_await r.write(self, vs[which], makeValue<std::int64_t>(v + 1));
          ++counts[which];
          co_await r.unlock(self, vs[which]);
        }
        co_await r.barrier(self);
      }(m, rt, p, vars, increments));
    }
    m.run();
    rt.checkAllInvariants();
    for (int i = 0; i < kVars; ++i)
      EXPECT_EQ(valueAs<std::int64_t>(rt.peek(vars[i])), increments[i])
          << "lost update on " << spec.describe() << " with " << rt.strategyName();
    EXPECT_GT(m.stats.links.totalMessages(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TopologyEndToEnd,
                         ::testing::Values(TopologySpec::mesh2d(4, 4),
                                           TopologySpec::torus2d(4, 4),
                                           TopologySpec::hypercube(4)),
                         [](const auto& info) {
                           std::string s = info.param.describe();
                           for (char& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

}  // namespace
}  // namespace diva
