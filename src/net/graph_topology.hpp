#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "net/bisection_tree.hpp"
#include "net/topology.hpp"

namespace diva::net {

class GraphTopology;

/// Hard bound on generated/parsed graph sizes — far above the dense
/// GraphTopology's own table bound (`GraphTopology::kMaxNodes`), because
/// the hierarchical routing build (net/hier_routing.hpp) consumes the
/// same GraphSpecs at 100k+ nodes.
inline constexpr int kMaxGraphNodes = 1 << 20;

/// Packed adjacency of a GraphSpec, shared by the dense GraphTopology and
/// the hierarchical HierGraphTopology: per-node direction slots order
/// neighbors by ascending id (the deterministic numbering every routing
/// tie-break and the partitioner's BFS rely on), padded to the maximum
/// degree with -1. Construction validates the spec — ids in range, no
/// self-loops or duplicate edges, positive weights/latencies — and throws
/// CheckError otherwise. Connectivity is *not* checked here; each
/// topology's routing build proves it as a side effect.
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
};

/// Swappable strategy behind graph `decompose()`: how to split a cluster
/// of a network into two halves. The decomposition tree is built by
/// recursive bisection (ℓ-ary levels fix log2(ℓ) bisections per tree
/// level, exactly like the mesh and hypercube trees), so the partitioner
/// only ever answers the two-way question. It sees the network through
/// the base `Topology` interface (numNodes/degree/neighbor), so the same
/// partitioner serves the dense GraphTopology and the hierarchical
/// HierGraphTopology.
///
/// Contract: `bisect` distributes every node of `cluster` (sorted
/// ascending, size ≥ 2) into `a` and `b`, both non-empty and balanced to
/// within one node (|a| = ⌈|cluster|/2⌉), each returned sorted ascending,
/// deterministically for a given (topology, cluster). Implementations
/// must keep per-call work O(|cluster|·degree), not O(numNodes) — the
/// recursion calls bisect Θ(n) times, and anything per-call-linear in the
/// whole machine turns decomposition quadratic at 100k nodes.
class GraphPartitioner {
 public:
  virtual ~GraphPartitioner() = default;
  virtual void bisect(const Topology& topo, const std::vector<NodeId>& cluster,
                      std::vector<NodeId>& a, std::vector<NodeId>& b) const = 0;
};

/// Default partitioner: BFS-grown balanced bisection. The half containing
/// the seed is grown breadth-first from a peripheral node of the cluster
/// (the node farthest from the cluster's lowest id, ties to the lowest
/// id), visiting neighbors in ascending-id order; if the cluster is
/// disconnected the growth restarts from the lowest remaining id. Cheap,
/// deterministic, and keeps at least one half connected — good enough
/// cluster locality for the access-tree strategy without an external
/// partitioning library.
class BfsBisectionPartitioner final : public GraphPartitioner {
 public:
  void bisect(const Topology& topo, const std::vector<NodeId>& cluster,
              std::vector<NodeId>& a, std::vector<NodeId>& b) const override;
};

/// General-graph clusters as a `BisectionTree` shape: a cluster is its
/// processors, sorted ascending. Bisection is the topology's
/// `GraphPartitioner`, so clusters are arbitrary node sets (sizes need not
/// be powers of the arity, children of one node may differ in size) —
/// the non-node-symmetric decompositions strategies must not assume away.
/// The Regular embedding keeps the index of the parent's host within the
/// parent's member list, folded into the child's size: the general-graph
/// analogue of the mesh's (i mod m1, j mod m2) rule.
struct GraphShape {
  using Cluster = std::vector<NodeId>;

  static int size(const Cluster& c) { return static_cast<int>(c.size()); }
  static Cluster unit(const Cluster& c, int i) { return {c[static_cast<std::size_t>(i)]}; }
  static NodeId proc(const Cluster& c) { return c.front(); }
  static NodeId pick(const Cluster& c, std::uint64_t key) {
    return c[support::hashBelow(key, c.size())];
  }
  static NodeId follow(const Cluster& parent, NodeId parentHost, const Cluster& child) {
    const auto rel = static_cast<std::size_t>(
        std::lower_bound(parent.begin(), parent.end(), parentHost) - parent.begin());
    return child[rel % child.size()];
  }
};

using GraphClusterTree = BisectionTree<GraphShape>;

/// Cluster tree of `topo` by recursive bisection with `partitioner`. The
/// tree covers the nodes attached to the network: every node of a
/// connected graph, but not the retired (edgeless) nodes of an elastic
/// machine, whose leafOf/rankOf stay -1 (docs/faults.md).
std::unique_ptr<GraphClusterTree> decomposeGraph(const Topology& topo, DecompParams params,
                                                 const GraphPartitioner& partitioner);

/// An arbitrary connected network, routed from precomputed all-pairs
/// tables: construction runs one deterministic shortest-path search per
/// node (Dijkstra over the edge weights; plain BFS when all weights are
/// equal) and stores a dense next-direction table plus the hop count of
/// every chosen route. `appendRoute` then walks the table —
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
  /// routing tables; throws CheckError otherwise. A custom partitioner
  /// may be supplied for decompose(); the default is BFS bisection.
  explicit GraphTopology(std::shared_ptr<const GraphSpec> spec,
                         std::shared_ptr<const GraphPartitioner> partitioner = nullptr);
  explicit GraphTopology(GraphSpec spec,
                         std::shared_ptr<const GraphPartitioner> partitioner = nullptr)
      : GraphTopology(std::make_shared<const GraphSpec>(std::move(spec)),
                      std::move(partitioner)) {}

  /// Dense n×n tables put a practical bound on machine size (4096 nodes ≈
  /// 96 MB of tables); the paper's experiments stop at 1024.
  static constexpr int kMaxNodes = 4096;

  TopologyKind kind() const override { return TopologyKind::Graph; }
  TopologySpec spec() const override { return TopologySpec::graph(spec_); }
  int numNodes() const override { return numNodes_; }
  int degree() const override { return adj_.degree; }

  NodeId neighbor(NodeId n, int dir) const override {
    if (dir < 0 || dir >= adj_.degree) return -1;
    return adj_.neighbor(n, dir);
  }

  NodeId nextHop(NodeId from, NodeId to) const override {
    if (from == to) return from;
    return neighborInDir(from, dirToward(from, to));
  }

  int distance(NodeId a, NodeId b) const override {
    return hops_[static_cast<std::size_t>(a) * numNodes_ + b];
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
    return decomposeGraph(*this, params, *partitioner_);
  }

  const GraphSpec& graphSpec() const { return *spec_; }
  const GraphPartitioner& partitioner() const { return *partitioner_; }

  // Structural reconfiguration (docs/faults.md): the Network edits a copy
  // of the current graph and asks for a rebuilt topology of the same kind.
  const GraphSpec* graph() const override { return spec_.get(); }
  std::unique_ptr<Topology> withGraph(GraphSpec g) const override {
    return std::make_unique<GraphTopology>(std::move(g), partitioner_);
  }

 private:
  friend class BfsBisectionPartitioner;

  int dirToward(NodeId from, NodeId to) const {
    return nextDir_[static_cast<std::size_t>(from) * numNodes_ + to];
  }
  NodeId neighborInDir(NodeId n, int dir) const { return adj_.neighbor(n, dir); }

  void buildRoutingTables();

  std::shared_ptr<const GraphSpec> spec_;
  std::shared_ptr<const GraphPartitioner> partitioner_;
  int numNodes_ = 0;
  GraphAdjacency adj_;                  ///< packed, id-ordered direction slots
  std::vector<std::int16_t> nextDir_;   ///< [from * n + to] → direction, -1 on diagonal
  std::vector<std::uint16_t> hops_;     ///< [from * n + to] → hop count of the route
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
