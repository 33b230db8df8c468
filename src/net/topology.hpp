#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/small_vec.hpp"

namespace diva::net {

/// Processor identifier: dense index 0..P-1. The numbering convention is
/// topology-specific (row-major for grids, binary for hypercubes).
using NodeId = std::int32_t;

/// One hop of a route: the directed link taken and the node it leads to.
struct Hop {
  int link;
  NodeId to;

  bool operator==(const Hop&) const = default;
};

/// Inline route buffer used on the per-message hot path: routes are
/// computed in place, and 16 inline hops cover every shortest path on the
/// machine sizes the paper studies (spills reuse their capacity).
using RouteVec = support::SmallVec<Hop, 16>;

/// How access-tree nodes are mapped to host processors (paper §2).
enum class EmbeddingKind {
  /// Theoretical embedding from the competitive analysis: every tree node
  /// is mapped independently and uniformly at random to one of the
  /// processors of its cluster.
  Random,
  /// Practical embedding from the paper: the root is mapped uniformly at
  /// random, every other node preserves its parent's relative position
  /// within the child cluster. This shortens expected tree-edge routes.
  Regular,
};

/// Parameters of the hierarchical decomposition (paper §2): ℓ-ary trees
/// for ℓ ∈ {2, 4, 16}, optionally terminated at clusters of ≤ `leafSize`
/// processors, which then get one child per processor (ℓ-k-ary variants).
struct DecompParams {
  int arity = 4;
  int leafSize = 1;
};

/// The decomposition arities of the paper: ℓ ∈ {2, 4, 16}.
inline bool isSupportedArity(int arity) { return arity == 2 || arity == 4 || arity == 16; }

/// The network shapes a Machine can simulate.
enum class TopologyKind { Mesh2D, Torus2D, Hypercube, Graph };

const char* topologyKindName(TopologyKind kind);

/// An arbitrary network as an undirected weighted graph: the value-type
/// input of `GraphTopology` (src/net/graph_topology.hpp). Nodes are the
/// dense ids 0..numNodes-1; every edge becomes a pair of directed links.
/// A weight is the *relative cost* of streaming a byte across the edge
/// (1.0 = the CostModel's nominal link; 0.5 = a link twice as fast), so
/// heterogeneous bandwidths plug into the one-parameter cost model
/// without changing it. The latency term is the analogous relative
/// per-hop router latency (1.0 = the CostModel's nominal hopLatencyUs;
/// 3.0 = a link whose head takes three times as long to forward — a long
/// wide-area hop). Routing minimizes the bandwidth-weighted path length;
/// latency shapes the time axis only, never route choice or congestion.
///
/// Generators (ring/star/fat-tree/random-regular) and the text file
/// format live in graph_topology.hpp.
struct GraphSpec {
  struct Edge {
    NodeId u = 0;
    NodeId v = 0;
    double weight = 1.0;   ///< relative per-byte streaming cost
    double latency = 1.0;  ///< relative per-hop head-forwarding latency
    bool operator==(const Edge&) const = default;
  };

  std::string name;  ///< used by TopologySpec::describe()
  int numNodes = 0;
  std::vector<Edge> edges;
  /// Permit degree-0 nodes. Normal graphs must be connected (the routing
  /// build proves it and fails fast otherwise); an *elastic* machine that
  /// removed nodes mid-run keeps their ids as retired, edgeless entries —
  /// this flag exempts exactly those from the connectivity proof. Set
  /// only by the Network's reconfiguration path (docs/faults.md).
  bool allowIsolated = false;

  bool operator==(const GraphSpec&) const = default;
};

/// Value-type description of a topology, used to construct machines and
/// to validate that a RuntimeConfig matches the machine it runs on.
/// `a`/`b` are rows/cols for the 2-D grids; `a` is the dimension count
/// for hypercubes (b unused). a == 0 means "unspecified". General graphs
/// carry their structure in `graphSpec` (shared, never mutated).
struct TopologySpec {
  TopologyKind kind = TopologyKind::Mesh2D;
  int a = 0;
  int b = 0;
  std::shared_ptr<const GraphSpec> graphSpec;  ///< set iff kind == Graph
  /// 0 = dense all-pairs routing (the default; bit-identical to every
  /// pre-hierarchical run). > 0 = hierarchical landmark-ball routing
  /// (net/hier_routing.hpp) with a routing tree of this arity — the same
  /// graph, sparse routing state, non-shortest (bounded-stretch) routes.
  /// Only meaningful with kind == Graph.
  int hierArity = 0;

  static TopologySpec mesh2d(int rows, int cols) {
    return TopologySpec{TopologyKind::Mesh2D, rows, cols, nullptr};
  }
  static TopologySpec torus2d(int rows, int cols) {
    return TopologySpec{TopologyKind::Torus2D, rows, cols, nullptr};
  }
  static TopologySpec hypercube(int dims) {
    return TopologySpec{TopologyKind::Hypercube, dims, 0, nullptr};
  }
  static TopologySpec graph(GraphSpec g) {
    TopologySpec s;
    s.kind = TopologyKind::Graph;
    s.a = g.numNodes;
    s.graphSpec = std::make_shared<const GraphSpec>(std::move(g));
    return s;
  }
  static TopologySpec graph(std::shared_ptr<const GraphSpec> g) {
    TopologySpec s;
    s.kind = TopologyKind::Graph;
    s.a = g ? g->numNodes : 0;
    s.graphSpec = std::move(g);
    return s;
  }
  static TopologySpec hierGraph(GraphSpec g, int arity = 16) {
    TopologySpec s = graph(std::move(g));
    s.hierArity = arity;
    return s;
  }
  static TopologySpec hierGraph(std::shared_ptr<const GraphSpec> g, int arity = 16) {
    TopologySpec s = graph(std::move(g));
    s.hierArity = arity;
    return s;
  }

  /// A default-constructed spec (mesh2d with no dimensions) means
  /// "unspecified — match any machine"; every constructible spec,
  /// including the 1-node hypercube(0), counts as specified.
  bool specified() const { return kind != TopologyKind::Mesh2D || a > 0; }
  /// Structural equality: graph specs compare by contents, not identity,
  /// so a RuntimeConfig pinned to a regenerated-but-identical graph still
  /// matches its machine. Dense and hierarchical builds of the same graph
  /// are different machines (routes differ), so hierArity participates.
  bool operator==(const TopologySpec& o) const {
    if (kind != o.kind || a != o.a || b != o.b || hierArity != o.hierArity) return false;
    if (graphSpec == o.graphSpec) return true;
    return graphSpec && o.graphSpec && *graphSpec == *o.graphSpec;
  }
  std::string describe() const;
};

/// Topology-agnostic hierarchical cluster tree — the generalization of the
/// paper's mesh-decomposition tree that the access-tree strategy, barrier
/// and tree locks consume. Leaves correspond 1:1 to processors;
/// `leafOrder()` enumerates them in the tree's left-to-right order (the
/// numbering applications use to assign logical processor identities).
///
/// Concrete trees are produced by `Topology::decompose()` through the one
/// `BisectionTree` builder (net/bisection_tree.hpp) and keep the geometry
/// needed to embed tree nodes onto processors as value data, so a tree
/// may outlive the topology that created it.
class ClusterTree {
 public:
  struct Node {
    int parent = -1;            ///< -1 at the root
    int indexInParent = -1;     ///< which child of the parent this node is
    std::vector<int> children;  ///< empty at leaves
    int depth = 0;
    int size = 0;               ///< processors in this cluster
    bool isLeaf() const { return children.empty(); }
  };

  virtual ~ClusterTree() = default;

  int root() const { return 0; }
  int numNodes() const { return static_cast<int>(nodes_.size()); }
  const Node& node(int i) const { return nodes_[i]; }
  int parent(int i) const { return nodes_[i].parent; }
  int depthOf(int i) const { return nodes_[i].depth; }
  int maxDepth() const { return maxDepth_; }
  int numProcs() const { return static_cast<int>(leafOfProc_.size()); }

  /// Tree leaf whose cluster is exactly {processor p}, or -1 when the
  /// tree does not cover p (a retired processor of an elastic machine, or
  /// a processor added after this tree was built).
  int leafOf(NodeId p) const {
    return p >= 0 && p < numProcs() ? leafOfProc_[p] : -1;
  }

  /// Processors actually covered by leaves (== numProcs() except on trees
  /// built over a reconfigured machine with retired processors).
  int numLeaves() const { return static_cast<int>(leafOrder_.size()); }

  /// The single processor of a leaf node.
  NodeId procOfLeaf(int leaf) const {
    DIVA_CHECK(leafProc_[leaf] >= 0);
    return leafProc_[leaf];
  }

  /// Leaves in left-to-right tree order (size = number of processors).
  const std::vector<int>& leafOrder() const { return leafOrder_; }

  /// Logical rank of processor p in leaf order (inverse of leafOrder).
  int rankOf(NodeId p) const { return rankOfProc_[p]; }

  /// Processor with logical rank w in leaf order.
  NodeId procOfRank(int w) const { return procOfLeaf(leafOrder_[w]); }

  /// The tree neighbour of `treeNode` on the path to processor p's leaf:
  /// the child whose cluster holds p, else the parent; -1 at p's leaf.
  /// Generic replacement for the "which quadrant contains this
  /// coordinate" query. p must be covered by the tree.
  int stepToward(int treeNode, NodeId p) const;

  /// Host processor of tree node `treeNode` in the access tree of the
  /// variable identified by `varKey`. Pure function of its arguments, so
  /// no per-variable state exists — essential when applications create
  /// hundreds of thousands of variables.
  virtual NodeId hostOf(int treeNode, std::uint64_t varKey, EmbeddingKind kind,
                        std::uint64_t seed) const = 0;

 protected:
  /// Builders append `nodes_`/`leafProc_` and then call finalize(), which
  /// derives the per-processor leaf/rank tables and checks that leaves
  /// partition the processor set.
  void finalize(int numProcs);

  std::vector<Node> nodes_;
  std::vector<NodeId> leafProc_;  ///< per tree node: its processor, -1 unless leaf
  std::vector<int> leafOfProc_;
  std::vector<int> rankOfProc_;
  std::vector<int> leafOrder_;
  int maxDepth_ = 0;
};

/// A network shape: the load-bearing abstraction between the simulated
/// machine and everything above it. A Topology defines the node set, the
/// directed-link slot numbering used by the cost model and congestion
/// accounting, deterministic oblivious routing, and the hierarchical
/// decomposition the data-management strategies build their trees from.
///
/// Routing contract: `appendRoute`, the one route query, emits a unique
/// deterministic valid path from `from` to `to` (empty when equal). The
/// closed-form shapes and dense GraphTopology route shortest paths;
/// HierGraphTopology trades shortest for sparse routing state and
/// guarantees only a bounded stretch (docs/routing.md).
/// Implementations must keep `appendRoute` allocation-free apart from
/// the output buffer — it runs once per simulated message.
class Topology {
 public:
  virtual ~Topology() = default;

  virtual TopologyKind kind() const = 0;
  virtual TopologySpec spec() const = 0;
  std::string name() const { return spec().describe(); }

  virtual int numNodes() const = 0;

  /// Directed-link slots per node. Slots for links that do not exist at a
  /// boundary are allocated but never used: link lookup stays a single
  /// multiply-add.
  virtual int degree() const = 0;
  int numLinkSlots() const { return numNodes() * degree(); }
  int linkIndex(NodeId from, int dir) const { return from * degree() + dir; }
  /// Directed link slot from → to, or -1 when not adjacent (a direction
  /// scan — cold paths only).
  int linkToward(NodeId from, NodeId to) const {
    if (from < 0 || from >= numNodes()) return -1;
    for (int dir = 0; dir < degree(); ++dir)
      if (neighbor(from, dir) == to) return linkIndex(from, dir);
    return -1;
  }

  /// Neighbor of `n` along direction slot `dir`, or -1 when absent.
  virtual NodeId neighbor(NodeId n, int dir) const = 0;

  /// Append the deterministic route onto `out` (see contract above).
  /// Hot path: must not allocate beyond `out` itself.
  virtual void appendRoute(NodeId from, NodeId to, RouteVec& out) const = 0;

  /// Relative streaming cost of directed link slot `link`: a message
  /// occupies the link for weight × wireBytes / CostModel::bytesPerUs.
  /// 1.0 everywhere for the homogeneous machines; general graphs report
  /// their per-edge weights here. Queried once per link at Network
  /// construction (cached into a dense table), never on the hot path.
  virtual double linkWeight(int link) const {
    (void)link;
    return 1.0;
  }

  /// Relative per-hop latency of directed link slot `link`: the router
  /// forwards a message head after latency × CostModel::hopLatencyUs.
  /// 1.0 on the homogeneous machines; general graphs report their
  /// per-edge latency terms here. Like `linkWeight`, queried once per
  /// link at Network construction and cached — never on the hot path.
  /// Latency never influences routing or congestion, only the time axis.
  virtual double linkLatency(int link) const {
    (void)link;
    return 1.0;
  }

  /// Build the hierarchical cluster tree for `params`. The returned tree
  /// holds no reference to this topology and may outlive it.
  virtual std::unique_ptr<ClusterTree> decompose(DecompParams params) const = 0;

  /// Structural reconfiguration support (docs/faults.md). Graph-backed
  /// topologies expose their current graph and can rebuild themselves
  /// over an edited copy of it; closed-form shapes return null — the
  /// Network rejects reconfiguration on them with a clear error.
  virtual const GraphSpec* graph() const { return nullptr; }
  /// A fresh topology of the same kind (same routing mode and hier
  /// arity) over `g`. Null when unsupported.
  virtual std::unique_ptr<Topology> withGraph(GraphSpec g) const {
    (void)g;
    return nullptr;
  }
};

/// Construct a topology from its spec; throws CheckError on invalid
/// dimensions (non-positive grid sides or grids of more than
/// kMaxGraphNodes nodes, hypercube dims outside [0, 20]).
std::unique_ptr<Topology> makeTopology(const TopologySpec& spec);

/// The canonical 2-ary leaf order of a topology, used to assign logical
/// processor numbers consistently across all strategies (so that every
/// strategy runs the *same* workload and only data management differs).
std::vector<NodeId> canonicalLeafOrder(const Topology& topo);

/// Convenience: route as a fresh vector (analysis/tests, not hot path).
std::vector<Hop> routeOf(const Topology& topo, NodeId from, NodeId to);

}  // namespace diva::net
