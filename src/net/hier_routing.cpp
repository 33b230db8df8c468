#include "net/hier_routing.hpp"

#include <algorithm>
#include <limits>

#include "net/graph_search.hpp"

namespace diva::net {

HierGraphTopology::HierGraphTopology(std::shared_ptr<const GraphSpec> spec, int routingArity)
    : spec_(std::move(spec)), routingArity_(routingArity) {
  DIVA_CHECK_MSG(spec_ != nullptr, "HierGraphTopology requires a GraphSpec");
  DIVA_CHECK_MSG(isSupportedArity(routingArity_),
                 "hierarchical routing arity must be 2, 4 or 16 (got " << routingArity_
                                                                       << ")");
  adj_ = GraphAdjacency(*spec_);
  tree_ = decomposeGraph(adj_, DecompParams{routingArity_, 1});
  DIVA_CHECK_MSG(tree_->maxDepth() + 1 <= kMaxChainDepth,
                 "routing tree deeper than " << kMaxChainDepth << " levels");
  GraphSearch search(adj_);
  buildLandmarks(search);
  buildBalls(search);
}

TopologySpec HierGraphTopology::spec() const {
  return TopologySpec::hierGraph(spec_, routingArity_);
}

// ---------------------------------------------------------------------------
// Landmarks: double-BFS pseudo-center of each cluster
// ---------------------------------------------------------------------------

void HierGraphTopology::buildLandmarks(GraphSearch& search) {
  const int tn = tree_->numNodes();
  landmark_.assign(static_cast<std::size_t>(tn), -1);
  for (int i = 0; i < tn; ++i) {
    const std::vector<NodeId>& mem = tree_->cluster(i);
    landmark_[i] = mem.front();
    if (mem.size() == 1) continue;
    // Two BFS over the cluster-restricted subgraph. An internally
    // disconnected cluster (its halves only meet outside it) has no
    // center; it keeps the lowest id.
    search.sweep(mem);
    const NodeId u = search.farthest(mem.front());
    if (search.reachedCount() != mem.size()) continue;
    search.sweep(mem);
    NodeId w = search.farthest(u);
    // Walk halfway back along the u–w path: the midpoint of (an
    // approximation of) the cluster diameter, i.e. a pseudo-center.
    for (std::uint32_t step = search.hops(w) / 2; step > 0; --step) w = search.parent(w);
    landmark_[i] = w;
  }
}

// ---------------------------------------------------------------------------
// Balls: bounded deterministic Dijkstra around each landmark
// ---------------------------------------------------------------------------

void HierGraphTopology::buildSpinePaths(GraphSearch& search,
                                        std::vector<std::vector<NodeId>>& spine,
                                        const std::vector<NodeId>& sptParent,
                                        const std::vector<std::uint32_t>& sptDepth) {
  // One cluster-restricted Dijkstra per internal tree node, from its
  // landmark: extracts, for each child C, the shortest path
  // landmark(parent) → landmark(C). Restricting the search to the
  // parent's cluster keeps the total work O(Σ|cluster|) = O(n · depth).
  // A cluster whose halves only meet outside it (internally
  // disconnected — common for the leftover half of a BFS bisection on
  // expanders) falls back to the unique root-SPT tree path via the LCA:
  // O(path length), never a graph search — a per-child whole-graph
  // search here is what made construction quadratic at 100k nodes.
  const int tn = tree_->numNodes();
  std::vector<std::vector<std::int32_t>> kids(static_cast<std::size_t>(tn));
  for (int i = 0; i < tn; ++i)
    if (tree_->parent(i) >= 0) kids[static_cast<std::size_t>(tree_->parent(i))].push_back(i);

  auto lcaPath = [&](NodeId a, NodeId b) {
    std::vector<NodeId> up, down;
    NodeId x = a, y = b;
    while (sptDepth[x] > sptDepth[y]) up.push_back(x), x = sptParent[x];
    while (sptDepth[y] > sptDepth[x]) down.push_back(y), y = sptParent[y];
    while (x != y) {
      up.push_back(x), x = sptParent[x];
      down.push_back(y), y = sptParent[y];
    }
    up.push_back(x);  // the LCA
    up.insert(up.end(), down.rbegin(), down.rend());
    return up;
  };
  // The last search's src→dst path, both inclusive.
  auto searchPath = [&](NodeId src, NodeId dst) {
    std::vector<NodeId> path;
    for (NodeId v = dst; v != src; v = search.parent(v)) path.push_back(v);
    path.push_back(src);
    std::reverse(path.begin(), path.end());
    return path;
  };

  const bool exactFallback = adj_.numNodes <= kExactSpineMaxNodes;
  std::vector<std::int32_t> missing;
  for (int p = 0; p < tn; ++p) {
    if (kids[static_cast<std::size_t>(p)].empty()) continue;
    const NodeId lm = landmark_[p];
    search.shortestPaths(lm, &tree_->cluster(p), [](NodeId) { return true; });
    // Take every reached child before any fallback search clobbers this
    // cluster's results.
    missing.clear();
    for (std::int32_t c : kids[static_cast<std::size_t>(p)]) {
      if (search.reached(landmark_[c]))
        spine[static_cast<std::size_t>(c)] = searchPath(lm, landmark_[c]);
      else
        missing.push_back(c);
    }
    for (std::int32_t c : missing) {
      const NodeId target = landmark_[c];
      if (exactFallback) {
        search.shortestPaths(lm, nullptr, [&](NodeId u) { return u != target; });
        DIVA_CHECK_MSG(search.reached(target),
                       "no path from landmark " << lm << " to landmark " << target
                                                << " — graph '" << spec_->name
                                                << "' is not connected");
        spine[static_cast<std::size_t>(c)] = searchPath(lm, target);
      } else {
        spine[static_cast<std::size_t>(c)] = lcaPath(lm, target);
      }
    }
  }
}

void HierGraphTopology::buildBalls(GraphSearch& search) {
  const int n = adj_.numNodes;
  const int tn = tree_->numNodes();
  ball_.clear();
  ballBegin_.assign(static_cast<std::size_t>(tn) + 1, 0);
  const auto byNode = [](const BallEntry& a, const BallEntry& b) { return a.node < b.node; };
  // Appends the first `cap` nodes the Dijkstra around `lm` pops, each with
  // its first-hop direction toward lm. The ball is a prefix of the
  // deterministic pop order, so every node's next hop toward the
  // landmark (its parent, popped strictly earlier) is also in the ball —
  // the persistence property routing relies on. The cap is HARD: on
  // expanders ball population grows exponentially with radius, so
  // reachability of anything outside the prefix is the spine paths' job,
  // never the prefix's.
  const auto growBall = [&](NodeId lm, std::size_t cap) {
    const std::size_t first = ball_.size();
    search.shortestPaths(lm, nullptr, [&](NodeId u) {
      if (ball_.size() - first >= cap) return false;
      const NodeId up = search.parent(u);
      ball_.push_back(BallEntry{u, static_cast<std::int16_t>(up < 0 ? -1 : adj_.dirTo(u, up))});
      return true;
    });
  };

  // Root first (tree node 0): the full shortest-path tree, doubling as
  // the connectivity check and as the LCA structure spine fallbacks use.
  DIVA_CHECK_MSG(tree_->parent(0) < 0, "routing tree root is not node 0");
  growBall(landmark_[0], std::numeric_limits<std::size_t>::max());
  // A reconfigured (allowIsolated) spec keeps retired, edgeless ids in the
  // node range; connectivity is required only of the attached nodes.
  std::size_t attached = static_cast<std::size_t>(n);
  if (spec_->allowIsolated) {
    attached = 0;
    for (NodeId v = 0; v < n; ++v)
      if (adj_.degree > 0 && adj_.neighbor(v, 0) >= 0) ++attached;
    if (attached == 0) attached = static_cast<std::size_t>(n);  // edgeless machine
  }
  DIVA_CHECK_MSG(ball_.size() == attached,
                 "graph '" << spec_->name << "' is not connected (root ball reached "
                           << ball_.size() << " of " << attached << " nodes)");
  std::vector<NodeId> sptParent(static_cast<std::size_t>(n));
  std::vector<std::uint32_t> sptDepth(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    const bool reached = search.reached(v) && search.parent(v) >= 0;
    sptParent[v] = reached ? search.parent(v) : v;
    sptDepth[v] = reached ? search.hops(v) : 0;
  }
  std::sort(ball_.begin(), ball_.end(), byNode);
  ballBegin_[1] = ball_.size();

  // Spine paths next (they clobber the search results the balls use).
  std::vector<std::vector<NodeId>> spine(static_cast<std::size_t>(tn));
  buildSpinePaths(search, spine, sptParent, sptDepth);
  sptParent = {};
  sptDepth = {};

  for (int i = 1; i < tn; ++i) {
    const std::size_t cap = static_cast<std::size_t>(std::max(
        kBallMinEntries, kBallEntryFactor * static_cast<int>(tree_->cluster(i).size())));
    const std::size_t first = ball_.size();
    growBall(landmark_[i], cap);
    std::sort(ball_.begin() + static_cast<std::ptrdiff_t>(first), ball_.end(), byNode);
    // Inject the spine path (parent's landmark → lm): nodes not already
    // in the prefix get the along-path direction toward lm. This is what
    // restores ball(C) ∋ landmark(parent(C)) — the invariant the chain
    // induction needs — without the prefix having to reach that far.
    const std::vector<NodeId>& path = spine[static_cast<std::size_t>(i)];
    const std::size_t sorted = ball_.size();
    for (std::size_t j = 0; j + 1 < path.size(); ++j) {
      const NodeId v = path[j];
      const auto* b = ball_.data() + first;
      const auto* e = ball_.data() + sorted;
      const auto* it = std::lower_bound(
          b, e, v, [](const BallEntry& a, NodeId x) { return a.node < x; });
      if (it != e && it->node == v) continue;  // prefix direction wins
      ball_.push_back(BallEntry{v, static_cast<std::int16_t>(adj_.dirTo(v, path[j + 1]))});
    }
    std::sort(ball_.begin() + static_cast<std::ptrdiff_t>(first), ball_.end(), byNode);
    ballBegin_[i + 1] = ball_.size();
  }
}

std::size_t HierGraphTopology::routingBytes() const {
  return ball_.size() * sizeof(BallEntry) + ballBegin_.size() * sizeof(std::uint64_t) +
         landmark_.size() * sizeof(NodeId);
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

int HierGraphTopology::findDir(int treeNode, NodeId node) const {
  const BallEntry* first = ball_.data() + ballBegin_[treeNode];
  const BallEntry* last = ball_.data() + ballBegin_[treeNode + 1];
  const BallEntry* it = std::lower_bound(
      first, last, node, [](const BallEntry& e, NodeId n) { return e.node < n; });
  if (it == last || it->node != node) return -2;
  return it->dir;
}

void HierGraphTopology::appendRoute(NodeId from, NodeId to, RouteVec& out) const {
  if (from == to) return;
  // The ancestor chain of dst's leaf, deepest first.
  int chain[kMaxChainDepth];
  int chainLen = 0;
  for (int t = tree_->leafOf(to); t >= 0; t = tree_->parent(t)) chain[chainLen++] = t;
  DIVA_CHECK_MSG(chainLen > 0,
                 "hierarchical route to node " << to << ", which has left the machine");
  NodeId cur = from;
  // The (chain depth, distance-to-landmark) potential proves termination;
  // the budget turns a potential-violating bug into a crisp failure
  // instead of an unbounded route buffer.
  int budget = 8 * adj_.numNodes + 16;
  while (cur != to) {
    // Deepest chain cluster whose ball holds `cur` wins; a -1 hit (cur
    // *is* that landmark) keeps scanning — some deeper ball is
    // guaranteed to contain a landmark node before its own level is
    // reached.
    int dir = -1;
    for (int i = 0; i < chainLen && dir < 0; ++i) dir = findDir(chain[i], cur);
    DIVA_CHECK_MSG(dir >= 0, "hierarchical routing found no visible ball at node " << cur);
    const NodeId next = adj_.neighbor(cur, dir);
    out.push_back(Hop{linkIndex(cur, dir), next});
    cur = next;
    DIVA_CHECK_MSG(--budget >= 0,
                   "hierarchical route " << from << "→" << to << " did not converge");
  }
}

}  // namespace diva::net
