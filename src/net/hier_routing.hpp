#pragma once

#include <memory>
#include <vector>

#include "net/graph_topology.hpp"

namespace diva::net {

/// Hierarchical (landmark-ball) routing for general graphs — the sparse
/// alternative to GraphTopology's dense all-pairs tables. Dense tables
/// are O(n²) memory and startup, which caps machines at a few thousand
/// nodes; this topology stores O(n·depth)-ish routing state and scales to
/// `kMaxGraphNodes` (the 100k-node scenarios in scenarios/).
///
/// Scheme (docs/routing.md has the full story and the measured stretch):
/// an internal cluster tree of arity `routingArity` decomposes the graph
/// (the same recursive bisection strategies use). Every tree node C gets
///  - a *landmark* ℓ_C: a pseudo-center of C's cluster (double-BFS
///    midpoint over the cluster-restricted subgraph; the single member at
///    leaves),
///  - a *ball*: the nodes popped by a deterministic Dijkstra around ℓ_C,
///    each remembering its first-hop direction toward ℓ_C, HARD-capped
///    at max(kBallMinEntries, kBallEntryFactor × |C|) entries (on
///    expanders ball population grows exponentially with radius, so any
///    reach-based rule degenerates to Θ(n) per ball), and
///  - a *spine path*: the shortest path ℓ_parent(C) → ℓ_C, whose nodes
///    are injected into C's ball with along-path directions (prefix
///    directions win on overlap). The root's ball is the full
///    shortest-path tree.
///
/// A message to `dst` carries (implicitly, recomputed per hop) the
/// ancestor chain of dst's leaf. At node x the router picks the deepest
/// chain cluster whose ball contains x and hops toward its landmark.
/// Liveness: spine directions strictly decrease the along-path distance
/// to ℓ_C and hand over to the Dijkstra prefix at latest at ℓ_C itself;
/// prefix directions strictly decrease the true distance and never leave
/// the prefix (pop-order persistence). And since the injected spine
/// starts at ℓ_parent(C), arriving at a landmark always reveals the
/// next-deeper chain ball. The pair (chain depth, distance-to-landmark)
/// therefore decreases lexicographically every hop. Routes are *not*
/// shortest paths — the differential suite (tests/hier_routing_test.cpp)
/// bounds the measured stretch against the dense Dijkstra oracle.
///
/// The Topology contract holds: routes are deterministic and
/// allocation-free; only the "routes are shortest" guarantee of the
/// closed-form shapes is relaxed.
class HierGraphTopology final : public Topology {
 public:
  /// Validates the spec and builds landmarks + balls; throws CheckError
  /// on invalid specs or a disconnected graph. `routingArity` ∈ {2,4,16}
  /// is the internal tree's arity (16 = shallow chains, the default); it
  /// is independent of the arity strategies later pass to decompose().
  explicit HierGraphTopology(std::shared_ptr<const GraphSpec> spec, int routingArity = 16);
  explicit HierGraphTopology(GraphSpec spec, int routingArity = 16)
      : HierGraphTopology(std::make_shared<const GraphSpec>(std::move(spec)), routingArity) {}

  /// Ball sizing: a hard cap of kBallEntryFactor × |cluster| entries
  /// (≥ kBallMinEntries) per ball. Memory is Θ(n · kBallEntryFactor ·
  /// depth + n · kBallMinEntries / leafSize) in total; raising the
  /// constants buys stretch on small graphs at a linear memory cost.
  static constexpr int kBallEntryFactor = 12;
  static constexpr int kBallMinEntries = 256;
  /// Spine paths for internally disconnected clusters: up to this many
  /// graph nodes they come from one exact early-exit Dijkstra per parent
  /// (the differential-corpus regime, where stretch is measured against
  /// the dense oracle); beyond it, from the root-SPT tree path through
  /// the LCA — O(path length) instead of a Θ(n)-pop search per parent,
  /// which is what keeps 100k-node construction near-linear.
  static constexpr int kExactSpineMaxNodes = 4096;
  /// Ancestor chains are walked on the per-message hot path from a fixed
  /// stack buffer; 64 levels covers a 2-ary tree over kMaxGraphNodes.
  static constexpr int kMaxChainDepth = 64;

  TopologyKind kind() const override { return TopologyKind::Graph; }
  TopologySpec spec() const override;
  int numNodes() const override { return adj_.numNodes; }
  int degree() const override { return adj_.degree; }

  NodeId neighbor(NodeId n, int dir) const override {
    if (dir < 0 || dir >= adj_.degree) return -1;
    return adj_.neighbor(n, dir);
  }

  void appendRoute(NodeId from, NodeId to, RouteVec& out) const override;

  double linkWeight(int link) const override { return adj_.weightOfSlot[link]; }
  double linkLatency(int link) const override { return adj_.latencyOfSlot[link]; }

  std::unique_ptr<ClusterTree> decompose(DecompParams params) const override {
    return decomposeGraph(adj_, params);
  }

  const GraphSpec& graphSpec() const { return *spec_; }
  int routingArity() const { return routingArity_; }

  // Structural reconfiguration (docs/faults.md): the Network edits a copy
  // of the current graph and asks for a rebuilt topology of the same kind.
  const GraphSpec* graph() const override { return spec_.get(); }
  std::unique_ptr<Topology> withGraph(GraphSpec g) const override {
    return std::make_unique<HierGraphTopology>(std::move(g), routingArity_);
  }

  // -- Introspection for the differential tests, benches and docs --------

  /// Total ball entries across all tree nodes — the sparse-state size the
  /// memory-vs-n table in docs/routing.md reports.
  std::size_t totalBallEntries() const { return ball_.size(); }
  /// Approximate bytes of routing state (balls + offsets + landmarks).
  std::size_t routingBytes() const;

 private:
  struct BallEntry {
    NodeId node;
    std::int16_t dir;  ///< first-hop direction toward the landmark; -1 at it
  };

  void buildLandmarks(GraphSearch& search);
  /// Grows the root ball on `search`, then the spines and every other
  /// ball on worker threads, each ball into its own slice of ball_.
  void buildBalls(GraphSearch& search);
  /// Each child's shortest ℓ_parent → ℓ_child path into `spine`: one
  /// cluster-restricted Dijkstra per internal tree node, on worker
  /// threads; children it misses take one unrestricted search per parent
  /// (exact) or, above kExactSpineMaxNodes, the root-SPT tree path
  /// through the LCA (any simple path keeps routing live).
  void buildSpinePaths(std::vector<std::vector<NodeId>>& spine,
                       const std::vector<NodeId>& sptParent,
                       const std::vector<std::uint32_t>& sptDepth) const;
  /// Direction stored for `node` in `treeNode`'s ball, -1 at the landmark
  /// itself, -2 when the node is outside the ball.
  int findDir(int treeNode, NodeId node) const;

  std::shared_ptr<const GraphSpec> spec_;
  int routingArity_;
  GraphAdjacency adj_;
  std::unique_ptr<GraphClusterTree> tree_;
  std::vector<NodeId> landmark_;        ///< per tree node
  std::vector<BallEntry> ball_;         ///< all balls, each sorted by node id
  std::vector<std::uint64_t> ballBegin_;  ///< per tree node; [i, i+1) slices ball_
};

}  // namespace diva::net
