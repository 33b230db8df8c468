// Tests for the general-graph topology: table-driven routing validity
// (route follows real links, hop count == BFS distance, weighted routes pick
// the cheaper path), the partition-based ClusterTree on non-uniform
// clusters, the generators, the text file format, and end-to-end strategy
// runs on irregular instances (ring, star, random-regular).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "diva/machine.hpp"
#include "diva/runtime.hpp"
#include "net/graph_search.hpp"
#include "net/graph_topology.hpp"
#include "net/topology.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace diva {
namespace {

using net::GraphSpec;
using net::NodeId;
using net::TopologySpec;

std::vector<GraphSpec> irregularInstances() {
  return {net::ringGraph(7),  net::ringGraph(2),          net::starGraph(9),
          net::starGraph(1),  net::randomRegularGraph(16, 3, 7),
          net::fatTreeGraph(2, 4), net::fatTreeGraph(3, 3)};
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
/// oracle independent of the routing tables.
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

TEST(GraphTopologyRouting, RoutesFollowLinksAndMatchDistance) {
  for (const auto& g : irregularInstances()) {
    const auto topo = net::makeTopology(TopologySpec::graph(g));
    const int n = topo->numNodes();
    for (NodeId a = 0; a < n; ++a) {
      // Every instance has unit weights or is a tree, so weight-shortest
      // routes are hop-shortest too.
      const std::vector<int> shortest = bfsHops(*topo, a);
      for (NodeId b = 0; b < n; ++b) {
        const auto hops = net::routeOf(*topo, a, b);
        ASSERT_EQ(static_cast<int>(hops.size()), shortest[b])
            << g.name << " " << a << "->" << b;
        NodeId cur = a;
        for (const net::Hop& h : hops) {
          const int dir = h.link - topo->linkIndex(cur, 0);
          ASSERT_GE(dir, 0) << g.name;
          ASSERT_LT(dir, topo->degree()) << g.name;
          ASSERT_EQ(topo->linkIndex(cur, dir), h.link);
          ASSERT_EQ(topo->neighbor(cur, dir), h.to)
              << g.name << " " << a << "->" << b << " at node " << cur;
          cur = h.to;
        }
        ASSERT_EQ(cur, b) << g.name;
      }
    }
  }
}

TEST(GraphTopologyRouting, UnitWeightRoutesAreShortestPaths) {
  // On unit weights the table-driven route must be a true shortest path:
  // distances obey the triangle inequality through every neighbor, and on
  // the ring they match closed-form ring distance.
  const auto ring = net::makeTopology(TopologySpec::graph(net::ringGraph(11)));
  for (NodeId a = 0; a < 11; ++a) {
    for (NodeId b = 0; b < 11; ++b) {
      const int fwd = (b - a + 11) % 11;
      EXPECT_EQ(routeHops(*ring, a, b), std::min(fwd, 11 - fwd));
      EXPECT_EQ(routeHops(*ring, a, b), routeHops(*ring, b, a));
    }
  }

  const auto star = net::makeTopology(TopologySpec::graph(net::starGraph(8)));
  for (NodeId a = 0; a < 8; ++a)
    for (NodeId b = 0; b < 8; ++b)
      EXPECT_EQ(routeHops(*star, a, b), a == b ? 0 : (a == 0 || b == 0) ? 1 : 2);
}

TEST(GraphTopologyRouting, RoutesAreNextHopConsistentAndDeterministic) {
  const GraphSpec g = net::randomRegularGraph(24, 3, 99);
  const net::GraphTopology topo(g);
  const net::GraphTopology again(g);
  for (NodeId a = 0; a < 24; ++a) {
    for (NodeId b = 0; b < 24; ++b) {
      // Suffix property: the rest of the route is the route of the rest,
      // so routing from any node on the way follows the same hops.
      const auto hops = net::routeOf(topo, a, b);
      for (std::size_t i = 0; i < hops.size(); ++i) {
        const std::vector<net::Hop> rest(hops.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                                         hops.end());
        EXPECT_EQ(net::routeOf(topo, hops[i].to, b), rest);
      }
      // Construction is deterministic: a second build routes identically.
      EXPECT_EQ(net::routeOf(again, a, b), hops);
    }
  }
}

TEST(GraphTopologyRouting, WeightedRoutingPrefersCheaperPath) {
  // Square 0-1-2-3 with a heavy direct edge 0-3: 0-1,1-2,2-3 cost 3×1,
  // the direct 0-3 costs 5 via its weight, so the 3-hop detour wins.
  GraphSpec g;
  g.name = "weighted-square";
  g.numNodes = 4;
  g.edges = {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {0, 3, 5.0}};
  const net::GraphTopology topo(g);

  EXPECT_DOUBLE_EQ(topo.weightedDistance(0, 3), 3.0);
  const auto hops = net::routeOf(topo, 0, 3);
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_EQ(hops[0].to, 1);
  EXPECT_EQ(hops[1].to, 2);
  EXPECT_EQ(hops[2].to, 3);

  // The heavy edge is still a link (slot weights exposed to the network).
  bool foundHeavy = false;
  for (int dir = 0; dir < topo.degree(); ++dir) {
    if (topo.neighbor(0, dir) == 3) {
      EXPECT_DOUBLE_EQ(topo.linkWeight(topo.linkIndex(0, dir)), 5.0);
      foundHeavy = true;
    }
  }
  EXPECT_TRUE(foundHeavy);

  // Equal-weight ties break toward fewer hops, then lower node id.
  GraphSpec tie;
  tie.name = "tie-diamond";
  tie.numNodes = 4;
  tie.edges = {{0, 1, 1.0}, {0, 2, 1.0}, {1, 3, 1.0}, {2, 3, 1.0}};
  const net::GraphTopology diamond(tie);
  EXPECT_EQ(net::routeOf(diamond, 0, 3).front().to, 1);  // both 2-hop paths weigh 2; 1 < 2
}

TEST(GraphTopologyRouting, FatTreeWeightsDecreaseTowardRoot) {
  const GraphSpec g = net::fatTreeGraph(2, 3);  // 7 nodes: 1 + 2 + 4
  const net::GraphTopology topo(g);
  ASSERT_EQ(topo.numNodes(), 7);
  // Root links (0-1, 0-2) weigh 0.5; leaf links weigh 1.0.
  for (int dir = 0; dir < topo.degree(); ++dir) {
    if (topo.neighbor(0, dir) >= 0) {
      EXPECT_DOUBLE_EQ(topo.linkWeight(topo.linkIndex(0, dir)), 0.5);
    }
    if (topo.neighbor(3, dir) >= 0) {
      EXPECT_DOUBLE_EQ(topo.linkWeight(topo.linkIndex(3, dir)), 1.0);
    }
  }
  // Leaf-to-leaf routes go through the tree (unique paths).
  EXPECT_EQ(routeHops(topo, 3, 6), 4);
  EXPECT_DOUBLE_EQ(topo.weightedDistance(3, 6), 1.0 + 0.5 + 0.5 + 1.0);
}

/// FNV-1a digest of every hop (link and target) of every route between
/// all pairs of `topo`.
std::uint64_t allRoutesDigest(const net::Topology& topo) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (NodeId a = 0; a < topo.numNodes(); ++a) {
    for (NodeId b = 0; b < topo.numNodes(); ++b) {
      const auto hops = net::routeOf(topo, a, b);
      mix(static_cast<std::int64_t>(hops.size()));
      for (const net::Hop& hop : hops) {
        mix(hop.link);
        mix(hop.to);
      }
    }
  }
  return h;
}

/// A 4×4 grid with unequal weights and latencies, plus chords whose
/// weight equals a two-hop detour, so every tie-break rule decides some
/// route: equal weight, then fewer hops, then the lowest-id next hop.
GraphSpec mixedWeightGraph() {
  GraphSpec g = net::gridGraph(4, 4);
  g.name = "mixed4x4";
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    g.edges[i].weight = i % 3 == 0 ? 2.0 : 1.0;
    g.edges[i].latency = 1.0 + static_cast<double>(i % 4);
  }
  g.edges.push_back({0, 5, 2.0, 3.0});
  g.edges.push_back({10, 15, 0.5, 1.0});
  g.edges.push_back({3, 6, 3.0, 0.5});
  return g;
}

TEST(GraphRouting, RoutesMatchCommittedDigests) {
  // Goldens recorded before the routing tables moved onto the shared
  // search kernel (net/graph_search.hpp); a refactor must keep every hop.
  const std::vector<std::pair<GraphSpec, std::uint64_t>> cases = {
      {net::ringGraph(11), 0x768ff6b4c5a966c4ull},
      {net::starGraph(9), 0x93fece879166d4c5ull},
      {net::gridGraph(5, 9), 0x91011c92c91a8185ull},
      {net::fatTreeGraph(3, 3), 0x7b286dd7dcbe7a45ull},
      {net::randomRegularGraph(40, 3, 7), 0xd8c06ba767329805ull},
      {mixedWeightGraph(), 0xb22cf325f2c93f37ull},
  };
  for (const auto& [g, golden] : cases) {
    const std::uint64_t h = allRoutesDigest(net::GraphTopology(g));
    EXPECT_EQ(h, golden) << g.name << " route digest 0x" << std::hex << h;
  }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

TEST(GraphTopologyValidation, RejectsMalformedGraphs) {
  auto make = [](GraphSpec g) { (void)net::GraphTopology(std::move(g)); };
  GraphSpec g;
  g.numNodes = 3;

  g.edges = {{0, 3, 1.0}};  // node out of range
  EXPECT_THROW(make(g), support::CheckError);
  g.edges = {{1, 1, 1.0}};  // self-loop
  EXPECT_THROW(make(g), support::CheckError);
  g.edges = {{0, 1, 1.0}, {1, 0, 2.0}};  // duplicate edge
  EXPECT_THROW(make(g), support::CheckError);
  g.edges = {{0, 1, 0.0}, {1, 2, 1.0}};  // non-positive weight
  EXPECT_THROW(make(g), support::CheckError);
  g.edges = {{0, 1, 1.0}};  // node 2 unreachable
  EXPECT_THROW(make(g), support::CheckError);
  g.edges = {{0, 1, 1.0}, {1, 2, 1.0}};  // valid
  EXPECT_NO_THROW(make(g));

  EXPECT_THROW((void)net::makeTopology(TopologySpec{net::TopologyKind::Graph, 0, 0, nullptr}),
               support::CheckError);
}

TEST(GraphTopologyValidation, OversizedSlotTableIsRejectedBeforeAllocating) {
  // Direction slots are padded to the maximum degree, so a 4,100-node
  // star needs 4,100 × 4,099 slots — just above the budget. The check
  // throws, naming the degree, before the slot arrays are allocated.
  // The budget still admits the dense topology's largest star (4,096
  // nodes) and leaves 16× headroom over the 100k-node degree-4 graphs.
  static_assert(std::int64_t{4096} * 4095 <= net::kMaxAdjacencySlots);
  static_assert(std::int64_t{100'000} * 4 * 16 <= net::kMaxAdjacencySlots);
  try {
    (void)net::GraphAdjacency(net::starGraph(4100));
    FAIL() << "oversized slot table accepted";
  } catch (const support::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("max degree 4099"), std::string::npos) << e.what();
  }
}

TEST(GraphTopologyValidation, SpecEqualityIsStructural) {
  const TopologySpec a = TopologySpec::graph(net::ringGraph(6));
  const TopologySpec b = TopologySpec::graph(net::ringGraph(6));  // distinct object
  const TopologySpec c = TopologySpec::graph(net::ringGraph(7));
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == TopologySpec::mesh2d(2, 3));
  EXPECT_TRUE(a.specified());
  EXPECT_EQ(a.describe(), "graph-ring6");

  // Runtime pinning uses this equality: identical regenerated graph is
  // accepted, a different instance fails fast.
  Machine m(a);
  Runtime ok(m, RuntimeConfig::accessTree(4, 1).on(b));
  EXPECT_THROW(Runtime(m, RuntimeConfig::accessTree(4, 1).on(c)), support::CheckError);
  EXPECT_THROW((void)m.mesh(), support::CheckError);  // no grid coordinates
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

TEST(GraphGenerators, ShapesAreAsAdvertised) {
  const GraphSpec ring = net::ringGraph(9);
  EXPECT_EQ(ring.numNodes, 9);
  EXPECT_EQ(ring.edges.size(), 9u);

  const GraphSpec star = net::starGraph(12);
  EXPECT_EQ(star.numNodes, 12);
  EXPECT_EQ(star.edges.size(), 11u);
  const net::GraphTopology starTopo(star);
  EXPECT_EQ(starTopo.degree(), 11);  // the hub's degree sets the slot count

  const GraphSpec rr = net::randomRegularGraph(20, 4, 3);
  EXPECT_EQ(rr.numNodes, 20);
  EXPECT_EQ(rr.edges.size(), 40u);  // n*d/2
  std::vector<int> deg(20, 0);
  for (const auto& e : rr.edges) {
    ++deg[e.u];
    ++deg[e.v];
  }
  for (int u = 0; u < 20; ++u) EXPECT_EQ(deg[u], 4) << "node " << u;

  // Deterministic per seed, different across seeds (with overwhelming
  // probability for this size).
  EXPECT_EQ(net::randomRegularGraph(20, 4, 3), rr);
  EXPECT_FALSE(net::randomRegularGraph(20, 4, 4) == rr);

  EXPECT_THROW((void)net::randomRegularGraph(5, 3, 1), support::CheckError);  // n*d odd
  EXPECT_THROW((void)net::randomRegularGraph(4, 1, 1), support::CheckError);  // d < 2
  EXPECT_THROW((void)net::ringGraph(0), support::CheckError);
}

// ---------------------------------------------------------------------------
// Text format
// ---------------------------------------------------------------------------

TEST(GraphFile, ParsesAndRoundTrips) {
  const std::string text =
      "# a commented example\n"
      "graph demo\n"
      "nodes 4\n"
      "\n"
      "edge 0 1\n"
      "edge 1 2 0.5\n"
      "edge 2 3\n"
      "edge 3 0 2\n";
  const GraphSpec g = net::parseGraph(text);
  EXPECT_EQ(g.name, "demo");
  EXPECT_EQ(g.numNodes, 4);
  ASSERT_EQ(g.edges.size(), 4u);
  EXPECT_DOUBLE_EQ(g.edges[1].weight, 0.5);
  EXPECT_DOUBLE_EQ(g.edges[0].weight, 1.0);

  // Round trip through the serializer, and through a file on disk.
  EXPECT_EQ(net::parseGraph(net::formatGraph(g)), g);
  const std::string path = ::testing::TempDir() + "graph_topology_test.graph";
  {
    std::ofstream out(path);
    out << net::formatGraph(g);
  }
  EXPECT_EQ(net::loadGraphFile(path), g);

  // A parsed graph drives a real machine.
  Machine m(TopologySpec::graph(g));
  EXPECT_EQ(m.numProcs(), 4);

  EXPECT_THROW((void)net::parseGraph("edge 0 1\n"), support::CheckError);  // edge first
  EXPECT_THROW((void)net::parseGraph("nodes\n"), support::CheckError);
  EXPECT_THROW((void)net::parseGraph("nodes 2\nnodes 2\n"), support::CheckError);
  EXPECT_THROW((void)net::parseGraph("nodes 2\nlink 0 1\n"), support::CheckError);
  EXPECT_THROW((void)net::parseGraph("nodes 2\nedge 0 1 fast\n"), support::CheckError);
  EXPECT_THROW((void)net::parseGraph("nodes 2\nedge 0 1 0.5x\n"), support::CheckError);
  // Stray columns after weight+latency are errors, not silently dropped.
  EXPECT_THROW((void)net::parseGraph("nodes 2\nedge 0 1 0.5 2 9\n"), support::CheckError);
  EXPECT_THROW((void)net::parseGraph("nodes 2 3\nedge 0 1\n"), support::CheckError);
  EXPECT_THROW((void)net::parseGraph("graph lonely\n"), support::CheckError);
  EXPECT_THROW((void)net::loadGraphFile("/nonexistent/graph.txt"), support::CheckError);
}

TEST(GraphFile, StructuralErrorsCarryLineNumbers) {
  // Self-loops, duplicate and out-of-range edges are rejected at parse
  // time naming the offending line — not later by GraphTopology with no
  // file context. Round-trip of a valid graph is unaffected.
  auto expectThrowContaining = [](const std::string& text, const std::string& needle) {
    try {
      (void)net::parseGraph(text);
      FAIL() << "expected CheckError for: " << text;
    } catch (const support::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message '" << e.what() << "' lacks '" << needle << "'";
    }
  };
  expectThrowContaining("nodes 3\nedge 1 1\n", "line 2: self-loop at node 1");
  expectThrowContaining("nodes 3\nedge 0 1\nedge 1 0\n", "line 3: duplicate edge 1-0");
  expectThrowContaining("nodes 3\nedge 0 1\n\nedge 0 1 2.0\n",
                        "line 4: duplicate edge 0-1");
  expectThrowContaining("nodes 3\nedge 0 3\n", "line 2: edge 0-3 out of range");
  const GraphSpec g = net::parseGraph("nodes 3\nedge 0 1\nedge 1 2\nedge 2 0\n");
  EXPECT_EQ(net::parseGraph(net::formatGraph(g)), g);
}

TEST(GraphFile, LoadErrorsNameTheFile) {
  const std::string path = ::testing::TempDir() + "bad_selfloop.graph";
  {
    std::ofstream out(path);
    out << "nodes 2\nedge 1 1\n";
  }
  try {
    (void)net::loadGraphFile(path);
    FAIL() << "expected CheckError";
  } catch (const support::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

TEST(GraphFile, CommentsAnywhereAndRangesCheckedAtTheLine) {
  // '#' starts a comment anywhere on a line, as in the scenario and
  // trace formats.
  const GraphSpec g = net::parseGraph(
      "graph tri   # a triangle\n"
      "nodes 3     # three nodes\n"
      "edge 0 1 2  # weight 2\n"
      "edge 1 2 1 4#latency 4\n"
      "edge 2 0\n");
  EXPECT_EQ(g.name, "tri");
  ASSERT_EQ(g.edges.size(), 3u);
  EXPECT_EQ(g.edges[0].weight, 2.0);
  EXPECT_EQ(g.edges[1].latency, 4.0);
  // Non-positive or overflowing weights and latencies, and node counts
  // above kMaxGraphNodes, fail at their line rather than later in
  // GraphAdjacency with no line number.
  auto expectLineError = [](const std::string& text, const std::string& needle) {
    try {
      (void)net::parseGraph(text);
      FAIL() << "expected CheckError for: " << text;
    } catch (const support::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  expectLineError("nodes 2\nedge 0 1 -1\n", "graph file line 2: edge weight");
  expectLineError("nodes 2\nedge 0 1 0\n", "graph file line 2: edge weight");
  expectLineError("nodes 2\n\nedge 0 1 1 0\n", "graph file line 3: edge weight");
  expectLineError("nodes 2\nedge 0 1 1e308\n", "graph file line 2: edge weight");
  expectLineError("# big\nnodes 2000000\n", "graph file line 2: node count");
  expectLineError("nodes 2\nedge 0 1.5\n", "graph file line 2: malformed edge endpoint");
}

// ---------------------------------------------------------------------------
// Decomposition on non-uniform partitions
// ---------------------------------------------------------------------------

TEST(GraphDecomposition, TreesPartitionEmbedAndStayBalanced) {
  for (const auto& g : irregularInstances()) {
    const net::GraphTopology topo(g);
    const int procs = topo.numNodes();
    for (const auto& params :
         {net::DecompParams{2, 1}, net::DecompParams{4, 1}, net::DecompParams{16, 1},
          net::DecompParams{2, 4}, net::DecompParams{4, 3}}) {
      const auto tree = topo.decompose(params);

      // Every processor sits in exactly one leaf cluster, and the leaf
      // tables are mutually inverse permutations.
      ASSERT_EQ(tree->numProcs(), procs);
      std::set<NodeId> leafProcs;
      for (int i = 0; i < tree->numNodes(); ++i) {
        if (!tree->node(i).isLeaf()) continue;
        EXPECT_TRUE(leafProcs.insert(tree->procOfLeaf(i)).second)
            << g.name << ": processor in two leaves";
      }
      EXPECT_EQ(static_cast<int>(leafProcs.size()), procs) << g.name;
      for (NodeId p = 0; p < procs; ++p) {
        EXPECT_EQ(tree->procOfLeaf(tree->leafOf(p)), p);
        EXPECT_EQ(tree->procOfRank(tree->rankOf(p)), p);
      }

      // Structure: children sizes sum to the parent's (clusters need not
      // be uniform — that's the point of the graph tree), depths step by
      // one, indexInParent matches.
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
        EXPECT_EQ(sum, nd.size) << g.name;
      }

      // childToward agrees with the ancestor chain even when sibling
      // clusters have different sizes.
      for (NodeId p = 0; p < procs; ++p) {
        int cur = tree->leafOf(p);
        while (tree->parent(cur) >= 0) {
          EXPECT_EQ(tree->childToward(tree->parent(cur), p), cur);
          cur = tree->parent(cur);
        }
        EXPECT_EQ(tree->childToward(tree->leafOf(p), p), -1);
      }

      // Embeddings host every tree node inside its own cluster,
      // deterministically, for both kinds.
      for (const auto kind : {net::EmbeddingKind::Regular, net::EmbeddingKind::Random}) {
        for (std::uint64_t var : {1ull, 2ull, 99ull}) {
          for (int i = 0; i < tree->numNodes(); ++i) {
            const NodeId host = tree->hostOf(i, var, kind, 42);
            ASSERT_GE(host, 0);
            ASSERT_LT(host, procs);
            EXPECT_TRUE(inCluster(*tree, i, host))
                << g.name << " node " << i << " hosted outside its cluster";
            EXPECT_EQ(host, tree->hostOf(i, var, kind, 42)) << "non-deterministic";
          }
        }
      }
    }

    // Canonical leaf order is a permutation of the processors.
    auto order = net::canonicalLeafOrder(topo);
    ASSERT_EQ(static_cast<int>(order.size()), procs);
    std::sort(order.begin(), order.end());
    for (NodeId p = 0; p < procs; ++p) EXPECT_EQ(order[p], p);
  }
}

TEST(GraphDecomposition, BfsBisectionIsBalancedToWithinOneNode) {
  const net::GraphTopology topo(net::randomRegularGraph(30, 3, 5));
  const net::GraphAdjacency adj(topo.graphSpec());
  net::GraphSearch search(adj);
  std::vector<NodeId> cluster(30);
  for (NodeId p = 0; p < 30; ++p) cluster[p] = p;
  std::vector<NodeId> a, b;
  net::bisectBfs(search, cluster, a, b);
  EXPECT_EQ(a.size(), 15u);
  EXPECT_EQ(b.size(), 15u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
  std::vector<NodeId> merged;
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(merged));
  EXPECT_EQ(merged, cluster);

  // Odd split: the larger half is the grown one, by exactly one node.
  std::vector<NodeId> odd(cluster.begin(), cluster.begin() + 7);
  net::bisectBfs(search, odd, a, b);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(b.size(), 3u);

  // The 2-ary tree reflects the balance at every level.
  const auto tree = topo.decompose(net::DecompParams{2, 1});
  for (int i = 0; i < tree->numNodes(); ++i) {
    const auto& nd = tree->node(i);
    if (nd.children.size() == 2) {
      const int sa = tree->node(nd.children[0]).size;
      const int sb = tree->node(nd.children[1]).size;
      EXPECT_LE(std::abs(sa - sb), 1) << "unbalanced bisection at node " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: strategies on irregular machines
// ---------------------------------------------------------------------------

class GraphTopologyEndToEnd : public ::testing::TestWithParam<const char*> {};

TEST_P(GraphTopologyEndToEnd, StrategiesRunAndInvariantsHoldAtQuiescence) {
  const std::string which = GetParam();
  GraphSpec g;
  if (which == "ring") g = net::ringGraph(12);
  if (which == "star") g = net::starGraph(10);
  if (which == "random_regular") g = net::randomRegularGraph(16, 3, 11);
  const TopologySpec spec = TopologySpec::graph(std::move(g));

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
            support::hashCombine(7, static_cast<std::uint64_t>(self)));
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

INSTANTIATE_TEST_SUITE_P(IrregularShapes, GraphTopologyEndToEnd,
                         ::testing::Values("ring", "star", "random_regular"),
                         [](const auto& info) { return std::string(info.param); });

// Heterogeneous link weights shift simulated time, not correctness: the
// same workload on a weighted vs unit-weight ring finishes later when the
// links are slower, and congestion accounting is unaffected.
TEST(GraphTopologyEndToEnd, LinkWeightsScaleSimulatedTime) {
  auto run = [](double weight) {
    GraphSpec g = net::ringGraph(8);
    for (auto& e : g.edges) e.weight = weight;
    g.name = "ring8w";
    Machine m(TopologySpec::graph(std::move(g)));
    for (NodeId p = 0; p < 8; ++p) {
      m.net.post(net::Message{p, static_cast<NodeId>((p + 4) % 8),
                              net::kProtocolChannel, 4096, {}});
    }
    const sim::Time t = m.run();
    return std::pair<sim::Time, std::uint64_t>(t, m.stats.links.totalBytes());
  };
  const auto [fastT, fastBytes] = run(1.0);
  const auto [slowT, slowBytes] = run(4.0);
  EXPECT_GT(slowT, fastT);
  EXPECT_EQ(fastBytes, slowBytes);  // congestion metric is time-independent
}

TEST(GraphTopologyEndToEnd, LinkLatenciesScaleSimulatedTimeOnly) {
  // Per-link hop latency (the heterogeneity term next to the bandwidth
  // weight) slows multi-hop messages down but never changes routes or
  // traffic counts.
  auto run = [](double latency) {
    GraphSpec g = net::ringGraph(8);
    for (auto& e : g.edges) e.latency = latency;
    g.name = "ring8l";
    Machine m(TopologySpec::graph(std::move(g)));
    // One uncontended 4-hop message: its delivery time shows the per-hop
    // head latency directly (under contention the link FIFO dominates).
    m.net.post(net::Message{0, 4, net::kProtocolChannel, 4096, {}});
    const sim::Time t = m.run();
    return std::tuple<sim::Time, std::uint64_t, std::uint64_t>(
        t, m.stats.links.totalBytes(), m.stats.links.totalMessages());
  };
  const auto [fastT, fastBytes, fastMsgs] = run(1.0);
  const auto [slowT, slowBytes, slowMsgs] = run(6.0);
  // 3 non-final hops × (6−1) × hopLatencyUs(5) = 75 µs slower.
  EXPECT_DOUBLE_EQ(slowT - fastT, 75.0);
  EXPECT_EQ(fastBytes, slowBytes);
  EXPECT_EQ(fastMsgs, slowMsgs);

  // Routing ignores latency: only weights pick paths.
  GraphSpec g = net::ringGraph(6);
  g.edges[0].latency = 50.0;  // edge 0-1 stays on the shortest route
  const net::GraphTopology topo{g};
  const auto route = net::routeOf(topo, 0, 2);
  ASSERT_EQ(route.size(), 2u);
  EXPECT_EQ(route.front().to, 1);
  // linkLatency surfaces the per-slot term; other topologies default 1.0.
  bool sawHetero = false;
  for (int l = 0; l < topo.numLinkSlots(); ++l) sawHetero |= topo.linkLatency(l) == 50.0;
  EXPECT_TRUE(sawHetero);
  Machine mesh(TopologySpec::mesh2d(2, 2));
  for (int l = 0; l < mesh.topo().numLinkSlots(); ++l)
    EXPECT_DOUBLE_EQ(mesh.topo().linkLatency(l), 1.0);
}

TEST(GraphFile, LatencyFieldRoundTrips) {
  const std::string text =
      "graph hetero\n"
      "nodes 3\n"
      "edge 0 1 0.5 3\n"   // weight 0.5, latency 3
      "edge 1 2 1 2.5\n"   // default weight spelled out, latency 2.5
      "edge 0 2\n";
  const GraphSpec g = net::parseGraph(text);
  ASSERT_EQ(g.edges.size(), 3u);
  EXPECT_DOUBLE_EQ(g.edges[0].weight, 0.5);
  EXPECT_DOUBLE_EQ(g.edges[0].latency, 3.0);
  EXPECT_DOUBLE_EQ(g.edges[1].weight, 1.0);
  EXPECT_DOUBLE_EQ(g.edges[1].latency, 2.5);
  EXPECT_DOUBLE_EQ(g.edges[2].latency, 1.0);
  // Serializer emits the latency (and the weight it forces out) and the
  // parser reads them back structurally equal.
  EXPECT_EQ(net::parseGraph(net::formatGraph(g)), g);

  EXPECT_THROW((void)net::parseGraph("nodes 2\nedge 0 1 1 slow\n"), support::CheckError);
  // Non-positive latency is rejected (by the parser, at its line).
  EXPECT_THROW(net::GraphTopology(net::parseGraph("nodes 2\nedge 0 1 1 -2\n")),
               support::CheckError);
}

}  // namespace
}  // namespace diva
