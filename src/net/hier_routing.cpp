#include "net/hier_routing.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_map>

namespace diva::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

HierGraphTopology::HierGraphTopology(std::shared_ptr<const GraphSpec> spec,
                                     int routingArity,
                                     std::shared_ptr<const GraphPartitioner> partitioner)
    : spec_(std::move(spec)),
      partitioner_(std::move(partitioner)),
      routingArity_(routingArity) {
  DIVA_CHECK_MSG(spec_ != nullptr, "HierGraphTopology requires a GraphSpec");
  DIVA_CHECK_MSG(isSupportedArity(routingArity_),
                 "hierarchical routing arity must be 2, 4 or 16 (got " << routingArity_
                                                                       << ")");
  if (!partitioner_) partitioner_ = std::make_shared<BfsBisectionPartitioner>();
  adj_ = GraphAdjacency(*spec_);
  // The routing tree sees this topology through the base interface, which
  // only needs the adjacency built above — routing state comes after.
  tree_ = decomposeGraph(*this, DecompParams{routingArity_, 1}, *partitioner_);
  DIVA_CHECK_MSG(tree_->maxDepth() + 1 <= kMaxChainDepth,
                 "routing tree deeper than " << kMaxChainDepth << " levels");
  buildLandmarks();
  buildBalls();
}

TopologySpec HierGraphTopology::spec() const {
  return TopologySpec::hierGraph(spec_, routingArity_);
}

// ---------------------------------------------------------------------------
// Landmarks: double-BFS pseudo-center of each cluster
// ---------------------------------------------------------------------------

void HierGraphTopology::buildLandmarks() {
  const int tn = tree_->numNodes();
  landmark_.assign(static_cast<std::size_t>(tn), -1);
  // Cluster-local scratch (same O(|cluster|) discipline as the
  // partitioner): maps instead of machine-sized arrays.
  std::unordered_map<NodeId, int> depth;
  std::unordered_map<NodeId, NodeId> parent;
  std::queue<NodeId> q;
  for (int i = 0; i < tn; ++i) {
    const std::vector<NodeId>& mem = tree_->cluster(i);
    if (mem.size() == 1) {
      landmark_[i] = mem.front();
      continue;
    }
    auto inCluster = [&](NodeId v) {
      return std::binary_search(mem.begin(), mem.end(), v);
    };
    // BFS over the cluster-restricted subgraph; returns the farthest
    // reached node (ties to the lowest id).
    auto bfs = [&](NodeId src, bool trackParent) {
      depth.clear();
      parent.clear();
      depth.emplace(src, 0);
      q.push(src);
      NodeId far = src;
      int farD = 0;
      while (!q.empty()) {
        const NodeId u = q.front();
        q.pop();
        const int du = depth.find(u)->second;
        if (du > farD || (du == farD && u < far)) {
          far = u;
          farD = du;
        }
        for (int dir = 0; dir < adj_.degree; ++dir) {
          const NodeId v = adj_.neighbor(u, dir);
          if (v < 0) break;  // GraphAdjacency slots are packed
          if (!inCluster(v) || !depth.emplace(v, du + 1).second) continue;
          if (trackParent) parent.emplace(v, u);
          q.push(v);
        }
      }
      return far;
    };
    const NodeId u = bfs(mem.front(), false);
    if (depth.size() != mem.size()) {
      // The cluster is internally disconnected (its halves only meet
      // outside it) — no center exists; fall back to the lowest id.
      landmark_[i] = mem.front();
      continue;
    }
    NodeId w = bfs(u, true);
    // Walk halfway back along the u–w path: the midpoint of (an
    // approximation of) the cluster diameter, i.e. a pseudo-center.
    for (int step = depth.find(w)->second / 2; step > 0; --step)
      w = parent.find(w)->second;
    landmark_[i] = w;
  }
}

// ---------------------------------------------------------------------------
// Balls: bounded deterministic Dijkstra around each landmark
// ---------------------------------------------------------------------------

void HierGraphTopology::growBall(NodeId lm, std::size_t entryCap, const NodeId* clusterBegin,
                                 const NodeId* clusterEnd, NodeId stopAt) {
  const int deg = adj_.degree;
  const NodeId* adj = adj_.adj.data();
  const double* weightOf = adj_.weightOfSlot.data();
  ++epoch_;
  auto touch = [&](NodeId v) {
    if (ver_[v] != epoch_) {
      ver_[v] = epoch_;
      dist_[v] = kInf;
      hop_[v] = 0;
      dirToLm_[v] = -1;
    }
  };
  auto inScope = [&](NodeId v) {
    return clusterBegin == nullptr || std::binary_search(clusterBegin, clusterEnd, v);
  };

  using QEntry = std::pair<double, NodeId>;  // pops by (distance, node id)
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<QEntry>> queue;
  touch(lm);
  dist_[lm] = 0.0;
  queue.push({0.0, lm});

  const std::size_t firstEntry = ball_.size();
  while (!queue.empty()) {
    const auto [du, u] = queue.top();
    queue.pop();
    if (du > dist_[u]) continue;  // stale entry
    // The ball is a prefix of the deterministic pop order, so every
    // node's next hop toward the landmark (its parent, popped strictly
    // earlier) is also in the ball — the persistence property routing
    // relies on. The cap is HARD: on expanders ball population grows
    // exponentially with radius, so reachability of anything outside the
    // prefix is the spine paths' job (buildBalls), never the prefix's.
    if (ball_.size() - firstEntry >= entryCap) break;
    ball_.push_back(BallEntry{u, dirToLm_[u]});
    if (u == stopAt) break;
    for (int dir = 0; dir < deg; ++dir) {
      const NodeId v = adj[static_cast<std::size_t>(u) * deg + dir];
      if (v < 0) break;
      if (v == lm || !inScope(v)) continue;
      touch(v);
      // Same deterministic tie-breaking as the dense tables: strictly
      // shorter, else fewer hops, else the lowest-id next hop.
      const double cand = dist_[u] + weightOf[static_cast<std::size_t>(u) * deg + dir];
      const std::uint32_t candHops = hop_[u] + 1;
      const bool strictly = cand < dist_[v];
      bool better = strictly;
      if (!better && cand == dist_[v]) {
        if (candHops < hop_[v]) {
          better = true;
        } else if (candHops == hop_[v] && dirToLm_[v] >= 0) {
          better = u < adj[static_cast<std::size_t>(v) * deg + dirToLm_[v]];
        }
      }
      if (!better) continue;
      dist_[v] = cand;
      hop_[v] = candHops;
      const NodeId* vAdj = adj + static_cast<std::size_t>(v) * deg;
      int vd = 0;
      while (vAdj[vd] != u) ++vd;
      dirToLm_[v] = static_cast<std::int16_t>(vd);
      if (strictly) queue.push({cand, v});
    }
  }
}

std::vector<NodeId> HierGraphTopology::backtrackPath(NodeId src, NodeId dst) const {
  // dirToLm_ holds, for every node the last search touched, the first-hop
  // direction toward that search's source; walking it from dst yields the
  // dst→src path, reversed here to src→dst.
  std::vector<NodeId> path;
  for (NodeId v = dst; v != src; v = adj_.neighbor(v, dirToLm_[v])) path.push_back(v);
  path.push_back(src);
  std::reverse(path.begin(), path.end());
  return path;
}

void HierGraphTopology::buildSpinePaths(std::vector<std::vector<NodeId>>& spine,
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

  const bool exactFallback = adj_.numNodes <= kExactSpineMaxNodes;
  const std::size_t unbounded = std::numeric_limits<std::size_t>::max();
  std::vector<std::int32_t> missing;
  for (int p = 0; p < tn; ++p) {
    if (kids[static_cast<std::size_t>(p)].empty()) continue;
    const std::vector<NodeId>& mem = tree_->cluster(p);
    // A throwaway prefix: we only want the scratch arrays (dist/dir)
    // filled for the whole cluster, not ball entries.
    const std::size_t mark = ball_.size();
    growBall(landmark_[p], unbounded, mem.data(), mem.data() + mem.size(), -1);
    ball_.resize(mark);
    // Snapshot every reached child before any fallback search clobbers
    // this cluster's scratch.
    missing.clear();
    for (std::int32_t c : kids[static_cast<std::size_t>(p)]) {
      const NodeId target = landmark_[c];
      if (ver_[target] == epoch_ && dist_[target] < kInf)
        spine[static_cast<std::size_t>(c)] = backtrackPath(landmark_[p], target);
      else
        missing.push_back(c);
    }
    for (std::int32_t c : missing) {
      const NodeId target = landmark_[c];
      if (exactFallback) {
        growBall(landmark_[p], unbounded, nullptr, nullptr, target);
        ball_.resize(mark);
        DIVA_CHECK_MSG(ver_[target] == epoch_ && dist_[target] < kInf,
                       "no path from landmark " << landmark_[p] << " to landmark "
                                                << target << " — graph '" << spec_->name
                                                << "' is not connected");
        spine[static_cast<std::size_t>(c)] = backtrackPath(landmark_[p], target);
      } else {
        spine[static_cast<std::size_t>(c)] = lcaPath(landmark_[p], target);
      }
    }
  }
}

void HierGraphTopology::buildBalls() {
  const int n = adj_.numNodes;
  const int tn = tree_->numNodes();
  dist_.assign(static_cast<std::size_t>(n), kInf);
  hop_.assign(static_cast<std::size_t>(n), 0);
  dirToLm_.assign(static_cast<std::size_t>(n), -1);
  ver_.assign(static_cast<std::size_t>(n), 0);

  ball_.clear();
  ballBegin_.assign(static_cast<std::size_t>(tn) + 1, 0);

  // Root first (tree node 0): the full shortest-path tree, doubling as
  // the connectivity check and as the LCA structure spine fallbacks use.
  DIVA_CHECK_MSG(tree_->parent(0) < 0, "routing tree root is not node 0");
  const std::size_t unbounded = std::numeric_limits<std::size_t>::max();
  growBall(landmark_[0], unbounded, nullptr, nullptr, -1);
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
    sptParent[v] = dirToLm_[v] < 0 ? v : adj_.neighbor(v, dirToLm_[v]);
    sptDepth[v] = hop_[v];
  }
  std::sort(ball_.begin(), ball_.end(),
            [](const BallEntry& a, const BallEntry& b) { return a.node < b.node; });
  ballBegin_[1] = ball_.size();

  // Spine paths next (they clobber the same scratch the balls use).
  std::vector<std::vector<NodeId>> spine(static_cast<std::size_t>(tn));
  buildSpinePaths(spine, sptParent, sptDepth);
  sptParent = {};
  sptDepth = {};

  for (int i = 1; i < tn; ++i) {
    const NodeId lm = landmark_[i];
    const std::size_t cap = static_cast<std::size_t>(std::max(
        kBallMinEntries, kBallEntryFactor * static_cast<int>(tree_->cluster(i).size())));
    const std::size_t first = ball_.size();
    growBall(lm, cap, nullptr, nullptr, -1);
    std::sort(ball_.begin() + static_cast<std::ptrdiff_t>(first), ball_.end(),
              [](const BallEntry& a, const BallEntry& b) { return a.node < b.node; });
    // Inject the spine path (parent's landmark → lm): nodes not already
    // in the prefix get the along-path direction toward lm. This is what
    // restores ball(C) ∋ landmark(parent(C)) — the invariant the chain
    // induction needs — without the prefix having to reach that far.
    const std::vector<NodeId>& path = spine[static_cast<std::size_t>(i)];
    const std::size_t sorted = ball_.size();
    for (std::size_t j = 0; j + 1 < path.size(); ++j) {
      const NodeId v = path[j];
      const NodeId next = path[j + 1];
      const auto* b = ball_.data() + first;
      const auto* e = ball_.data() + sorted;
      const auto* it = std::lower_bound(
          b, e, v, [](const BallEntry& a, NodeId x) { return a.node < x; });
      if (it != e && it->node == v) continue;  // prefix direction wins
      const NodeId* vAdj = adj_.adj.data() + static_cast<std::size_t>(v) * adj_.degree;
      int vd = 0;
      while (vAdj[vd] != next) ++vd;
      ball_.push_back(BallEntry{v, static_cast<std::int16_t>(vd)});
    }
    std::sort(ball_.begin() + static_cast<std::ptrdiff_t>(first), ball_.end(),
              [](const BallEntry& a, const BallEntry& b) { return a.node < b.node; });
    ballBegin_[i + 1] = ball_.size();
  }
  // The per-ball Dijkstra scratch is construction-only state.
  dist_ = {};
  hop_ = {};
  dirToLm_ = {};
  ver_ = {};
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

int HierGraphTopology::chainOf(NodeId dst, int* chain) const {
  int len = 0;
  for (int t = tree_->leafOf(dst); t >= 0; t = tree_->parent(t)) chain[len++] = t;
  DIVA_CHECK_MSG(len > 0,
                 "hierarchical route to node " << dst << ", which has left the machine");
  return len;
}

int HierGraphTopology::dirTowardChain(NodeId cur, const int* chain, int chainLen) const {
  // Deepest chain cluster whose ball holds `cur` wins; a -1 hit (cur *is*
  // that landmark) keeps scanning — some deeper ball is guaranteed to
  // contain a landmark node before its own level is reached.
  for (int i = 0; i < chainLen; ++i) {
    const int dir = findDir(chain[i], cur);
    if (dir >= 0) return dir;
  }
  DIVA_CHECK_MSG(false, "hierarchical routing found no visible ball at node " << cur);
  return -1;
}

NodeId HierGraphTopology::nextHop(NodeId from, NodeId to) const {
  if (from == to) return from;
  int chain[kMaxChainDepth];
  const int chainLen = chainOf(to, chain);
  return adj_.neighbor(from, dirTowardChain(from, chain, chainLen));
}

void HierGraphTopology::appendRoute(NodeId from, NodeId to, RouteVec& out) const {
  if (from == to) return;
  int chain[kMaxChainDepth];
  const int chainLen = chainOf(to, chain);
  NodeId cur = from;
  // The (chain depth, distance-to-landmark) potential proves termination;
  // the budget turns a potential-violating bug into a crisp failure
  // instead of an unbounded route buffer.
  int budget = 8 * adj_.numNodes + 16;
  while (cur != to) {
    const int dir = dirTowardChain(cur, chain, chainLen);
    const NodeId next = adj_.neighbor(cur, dir);
    out.push_back(Hop{linkIndex(cur, dir), next});
    cur = next;
    DIVA_CHECK_MSG(--budget >= 0,
                   "hierarchical route " << from << "→" << to << " did not converge");
  }
}

int HierGraphTopology::distance(NodeId a, NodeId b) const {
  if (a == b) return 0;
  int chain[kMaxChainDepth];
  const int chainLen = chainOf(b, chain);
  NodeId cur = a;
  int hops = 0;
  int budget = 8 * adj_.numNodes + 16;
  while (cur != b) {
    cur = adj_.neighbor(cur, dirTowardChain(cur, chain, chainLen));
    ++hops;
    DIVA_CHECK_MSG(--budget >= 0,
                   "hierarchical route " << a << "→" << b << " did not converge");
  }
  return hops;
}

}  // namespace diva::net
