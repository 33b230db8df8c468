#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/bisection_tree.hpp"
#include "net/topology.hpp"

namespace diva::net {

class GraphSearch;

/// Hard bound on generated/parsed graph sizes — far above the dense
/// GraphTopology's own table bound (`GraphTopology::kMaxNodes`), because
/// the hierarchical routing build (net/hier_routing.hpp) consumes the
/// same GraphSpecs at 100k+ nodes.
inline constexpr int kMaxGraphNodes = 1 << 20;

/// Budget on `GraphAdjacency`'s padded direction slots (nodes × max
/// degree; 20 bytes each, so about 320 MB at the cap). Far above every
/// committed graph (100k nodes of degree 4) and just above a dense
/// 4096-node star (4096 × 4095), it stops a large hub-and-spoke graph
/// from exhausting memory before any routing state is built.
inline constexpr std::int64_t kMaxAdjacencySlots = std::int64_t{1} << 24;

/// Packed adjacency of a GraphSpec, shared by the dense GraphTopology and
/// the hierarchical HierGraphTopology: per-node direction slots order
/// neighbors by ascending id (the deterministic numbering every routing
/// tie-break and the bisection's BFS rely on), padded to the maximum
/// degree with -1. Construction validates the spec — ids in range, no
/// self-loops or duplicate edges, positive weights/latencies, at most
/// `kMaxAdjacencySlots` padded slots — and throws CheckError otherwise.
/// Connectivity is *not* checked here; each topology's routing build
/// proves it as a side effect.
struct GraphAdjacency {
  GraphAdjacency() = default;
  explicit GraphAdjacency(const GraphSpec& spec);

  int numNodes = 0;
  int degree = 0;                      ///< max node degree = direction slots per node
  std::vector<NodeId> adj;             ///< [n * degree + dir] → neighbor or -1
  std::vector<double> weightOfSlot;    ///< [link slot] → edge weight (1.0 unused)
  std::vector<double> latencyOfSlot;   ///< [link slot] → edge latency (1.0 unused)

  NodeId neighbor(NodeId n, int dir) const {
    return adj[static_cast<std::size_t>(n) * degree + dir];
  }
  double weightOf(NodeId n, int dir) const {
    return weightOfSlot[static_cast<std::size_t>(n) * degree + dir];
  }
  /// A node with no link at all. Slots are packed, so an empty slot 0
  /// means no neighbor; elastic machines keep retired nodes this way
  /// (GraphSpec::allowIsolated).
  bool isolated(NodeId n) const { return degree == 0 || neighbor(n, 0) < 0; }
  /// Direction slot of the link n → to; `to` must be a neighbor of n.
  int dirTo(NodeId n, NodeId to) const {
    int dir = 0;
    while (neighbor(n, dir) != to) ++dir;
    return dir;
  }
};

/// BFS-grown balanced bisection of `cluster` (sorted ascending, size ≥ 2)
/// into `a` and `b`, each returned sorted ascending, |a| = ⌈|cluster|/2⌉.
/// The grown half `a` starts at a peripheral node of the cluster (the node
/// farthest in cluster-restricted hops from the cluster's lowest id, ties
/// to the lowest id) and takes neighbors in ascending-id order; if the
/// cluster is disconnected the growth restarts from the lowest remaining
/// id. Cheap, deterministic, and keeps at least one half connected —
/// good enough cluster locality for the access-tree strategy without an
/// external partitioning library. Costs O(|cluster|·degree) on
/// `search`'s stamped scratch, never O(numNodes): the recursive
/// decomposition calls it Θ(n) times.
void bisectBfs(GraphSearch& search, const std::vector<NodeId>& cluster, std::vector<NodeId>& a,
               std::vector<NodeId>& b);

/// General-graph clusters as a `BisectionTree` shape: a cluster is its
/// processors, sorted ascending. Bisection is `bisectBfs`, so clusters
/// are arbitrary node sets (sizes need not be powers of the arity,
/// children of one node may differ in size) — the non-node-symmetric
/// decompositions strategies must not assume away.
/// With no `follow`, the Regular embedding keeps the index of the
/// parent's host within the parent's member list, folded into the child's
/// size (the rank fold in `BisectionTree::hostOf`): the general-graph
/// analogue of the mesh's (i mod m1, j mod m2) rule. `decomposeGraph`
/// checks that every cluster is strictly ascending, which the fold needs.
struct GraphShape {
  using Cluster = std::vector<NodeId>;

  static int size(const Cluster& c) { return static_cast<int>(c.size()); }
  static Cluster unit(const Cluster& c, int i) { return {c[static_cast<std::size_t>(i)]}; }
  static NodeId proc(const Cluster& c) { return c.front(); }
  static NodeId pick(const Cluster& c, std::uint64_t key) {
    return c[support::hashBelow(key, c.size())];
  }
};

using GraphClusterTree = BisectionTree<GraphShape>;

/// Cluster tree of graph `g` by recursive `bisectBfs`. The tree covers
/// the nodes attached to the network: every node of a connected graph,
/// but not the retired (edgeless) nodes of an elastic machine, whose
/// leafOf/rankOf stay -1 (docs/faults.md).
std::unique_ptr<GraphClusterTree> decomposeGraph(const GraphAdjacency& g, DecompParams params);

/// An arbitrary connected network, routed from a precomputed all-pairs
/// table: construction runs one deterministic Dijkstra over the edge
/// weights per node (net/graph_search.hpp), on worker threads, and
/// stores a dense next-direction table. `appendRoute` then walks the table —
/// arithmetic-and-load only, no allocation beyond the caller's buffer —
/// so general graphs ride the same allocation-free hot path as the
/// closed-form shapes.
///
/// Tie-breaking makes routes deterministic and next-hop-consistent:
/// among weight-optimal next hops, prefer the fewest remaining hops, then
/// the lowest direction slot (direction slots order neighbors by id).
/// Per-edge weights are exposed through `linkWeight`, which the Network
/// folds into its per-link streaming cost.
class GraphTopology final : public Topology {
 public:
  /// Validates the spec (connected, ids in range, no self-loops or
  /// duplicate edges, positive weights, ≤ kMaxNodes nodes) and builds the
  /// routing table; throws CheckError otherwise.
  explicit GraphTopology(std::shared_ptr<const GraphSpec> spec);
  explicit GraphTopology(GraphSpec spec)
      : GraphTopology(std::make_shared<const GraphSpec>(std::move(spec))) {}

  /// The dense n×n table puts a practical bound on machine size (4096
  /// nodes ≈ 32 MB of table); the paper's experiments stop at 1024.
  static constexpr int kMaxNodes = 4096;

  TopologyKind kind() const override { return TopologyKind::Graph; }
  TopologySpec spec() const override { return TopologySpec::graph(spec_); }
  int numNodes() const override { return numNodes_; }
  int degree() const override { return adj_.degree; }

  NodeId neighbor(NodeId n, int dir) const override {
    if (dir < 0 || dir >= adj_.degree) return -1;
    return adj_.neighbor(n, dir);
  }

  void appendRoute(NodeId from, NodeId to, RouteVec& out) const override {
    // Table-driven walk: one load per hop for the direction, one for the
    // neighbor. No allocation beyond `out` (whose spilled capacity the
    // Network's recycled flights retain).
    NodeId cur = from;
    while (cur != to) {
      const int dir = dirToward(cur, to);
      const NodeId next = neighborInDir(cur, dir);
      out.push_back(Hop{linkIndex(cur, dir), next});
      cur = next;
    }
  }

  double linkWeight(int link) const override { return adj_.weightOfSlot[link]; }
  double linkLatency(int link) const override { return adj_.latencyOfSlot[link]; }

  /// Weighted length of the deterministic route from `a` to `b` — the
  /// quantity the routing tables minimize. Computed by walking the route
  /// (analysis/tests; not a hot-path query).
  double weightedDistance(NodeId a, NodeId b) const;

  std::unique_ptr<ClusterTree> decompose(DecompParams params) const override {
    return decomposeGraph(adj_, params);
  }

  const GraphSpec& graphSpec() const { return *spec_; }

  // Structural reconfiguration (docs/faults.md): the Network edits a copy
  // of the current graph and asks for a rebuilt topology of the same kind.
  const GraphSpec* graph() const override { return spec_.get(); }
  std::unique_ptr<Topology> withGraph(GraphSpec g) const override {
    return std::make_unique<GraphTopology>(std::move(g));
  }

 private:
  int dirToward(NodeId from, NodeId to) const {
    return nextDir_[static_cast<std::size_t>(from) * numNodes_ + to];
  }
  NodeId neighborInDir(NodeId n, int dir) const { return adj_.neighbor(n, dir); }

  void buildRoutingTable();

  std::shared_ptr<const GraphSpec> spec_;
  int numNodes_ = 0;
  GraphAdjacency adj_;                  ///< packed, id-ordered direction slots
  std::vector<std::int16_t> nextDir_;   ///< [from * n + to] → direction, -1 on diagonal
};

// ---------------------------------------------------------------------------
// Generators — named instances for benches and tests. All deterministic;
// names embed the parameters so TopologySpec::describe() identifies runs.
// ---------------------------------------------------------------------------

/// Cycle of n ≥ 1 nodes (n = 2 is a single edge). "ring<n>".
GraphSpec ringGraph(int n);

/// Hub node 0 joined to n-1 leaves. "star<n>".
GraphSpec starGraph(int n);

/// Fat-tree-like topology: a complete `arity`-ary tree of `levels` levels
/// whose links get *cheaper* (faster) toward the root — the link into a
/// node at depth d has weight 2^-(levels-1-d), so root links stream
/// 2^(levels-2)× faster than leaf links, mimicking a fat tree's
/// bandwidth doubling per level with plain tree wiring.
/// "fattree<arity>x<levels>".
GraphSpec fatTreeGraph(int arity, int levels);

/// Random d-regular simple connected graph on n nodes via the pairing
/// model (deterministic for a given seed; retries rejected pairings and
/// disconnected outcomes with derived seeds). Requires n·d even, d ≥ 2
/// for n > 2, d < n. "rr<n>d<d>s<seed>".
GraphSpec randomRegularGraph(int n, int d, std::uint64_t seed);

/// rows×cols open mesh as a general graph (node r·cols+c, unit weights).
/// Same shape as the closed-form Mesh2D topology but routed as a graph —
/// the differential corpus uses it to cover mesh-like shapes without the
/// dense table cap. "grid<rows>x<cols>".
GraphSpec gridGraph(int rows, int cols);

// ---------------------------------------------------------------------------
// Text format — lets benches and tests load arbitrary graphs from file.
// Shared rules (docs/workloads.md "Text formats"): '#' starts a comment
// anywhere on a line, blank lines are ignored, trailing tokens are errors.
//
//   graph <name>                    (optional; defaults to "file")
//   nodes <N>                       (required, before any edge; N in
//                                    [1, kMaxGraphNodes])
//   edge <u> <v> [weight [latency]] (one per line; undirected; weight and
//                                    latency default 1.0 — see GraphSpec —
//                                    and must be in (0, sim::kMaxInputTime])
// ---------------------------------------------------------------------------

/// Parse the text format; throws CheckError with a line number on errors.
GraphSpec parseGraph(const std::string& text);

/// Read a graph file from disk; throws CheckError if unreadable.
GraphSpec loadGraphFile(const std::string& path);

/// Serialize a GraphSpec to the text format (parseGraph round-trips it).
std::string formatGraph(const GraphSpec& spec);

}  // namespace diva::net
