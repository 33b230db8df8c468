#include "net/hier_routing.hpp"

#include <algorithm>

#include "net/graph_search.hpp"
#include "support/parallel.hpp"

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

void HierGraphTopology::buildSpinePaths(std::vector<std::vector<NodeId>>& spine,
                                        const std::vector<NodeId>& sptParent,
                                        const std::vector<std::uint32_t>& sptDepth) const {
  // One cluster-restricted Dijkstra per internal tree node, from its
  // landmark: extracts, for each child C, the shortest path
  // landmark(parent) → landmark(C). Restricting the search to the
  // parent's cluster keeps the total work O(Σ|cluster|) = O(n · depth).
  // A cluster whose halves only meet outside it (internally
  // disconnected — common for the leftover half of a BFS bisection on
  // expanders) leaves some children unreached. Up to kExactSpineMaxNodes
  // they take one more search per parent, unrestricted, which stops
  // when the last unreached child's landmark pops: weights are positive,
  // so a popped node's path is final and equals what a search for that
  // child alone would give. Above it they take the unique root-SPT tree
  // path via the LCA: O(path length), never a graph search — a
  // whole-graph search per parent is what made construction quadratic
  // at 100k nodes. Parents are independent and each writes only its own
  // children's spines, so they run on worker threads.
  const int tn = tree_->numNodes();
  std::vector<std::vector<std::int32_t>> kids(static_cast<std::size_t>(tn));
  for (int i = 0; i < tn; ++i)
    if (tree_->parent(i) >= 0) kids[static_cast<std::size_t>(tree_->parent(i))].push_back(i);
  std::vector<std::int32_t> parents;
  for (int p = 0; p < tn; ++p)
    if (!kids[static_cast<std::size_t>(p)].empty()) parents.push_back(p);

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
  auto searchPath = [](const GraphSearch& search, NodeId src, NodeId dst) {
    std::vector<NodeId> path;
    for (NodeId v = dst; v != src; v = search.parent(v)) path.push_back(v);
    path.push_back(src);
    std::reverse(path.begin(), path.end());
    return path;
  };

  struct Worker {
    GraphSearch search;
    std::vector<std::int32_t> missing;  ///< children the cluster search did not reach
  };
  const bool exactFallback = adj_.numNodes <= kExactSpineMaxNodes;
  support::parallelFor(
      support::hardwareWorkers(), parents.size(), [&] { return Worker{GraphSearch(adj_), {}}; },
      [&](Worker& w, std::size_t item) {
        const std::int32_t p = parents[item];
        const NodeId lm = landmark_[p];
        w.search.shortestPaths(lm, &tree_->cluster(p), [](NodeId) { return true; });
        // Take every reached child before the fallback search clobbers
        // this cluster's results.
        w.missing.clear();
        for (std::int32_t c : kids[static_cast<std::size_t>(p)]) {
          if (w.search.reached(landmark_[c]))
            spine[static_cast<std::size_t>(c)] = searchPath(w.search, lm, landmark_[c]);
          else
            w.missing.push_back(c);
        }
        if (w.missing.empty()) return;
        if (!exactFallback) {
          for (std::int32_t c : w.missing)
            spine[static_cast<std::size_t>(c)] = lcaPath(lm, landmark_[c]);
          return;
        }
        std::size_t left = w.missing.size();
        w.search.shortestPaths(lm, nullptr, [&](NodeId u) {
          for (std::int32_t c : w.missing)
            if (landmark_[c] == u) return --left > 0;
          return true;
        });
        for (std::int32_t c : w.missing) {
          const NodeId target = landmark_[c];
          DIVA_CHECK_MSG(w.search.reached(target),
                         "no path from landmark " << lm << " to landmark " << target
                                                  << " — graph '" << spec_->name
                                                  << "' is not connected");
          spine[static_cast<std::size_t>(c)] = searchPath(w.search, lm, target);
        }
      });
}

void HierGraphTopology::buildBalls(GraphSearch& search) {
  const int n = adj_.numNodes;
  const int tn = tree_->numNodes();
  ballBegin_.assign(static_cast<std::size_t>(tn) + 1, 0);
  const auto byNode = [](const BallEntry& a, const BallEntry& b) { return a.node < b.node; };
  // Writes to `out` the first `cap` nodes the Dijkstra around `lm` pops,
  // each with its first-hop direction toward lm, and returns how many.
  // The ball is a prefix of the deterministic pop order, so every node's
  // next hop toward the landmark (its parent, popped strictly earlier) is
  // also in the ball — the persistence property routing relies on. The
  // cap is HARD: on expanders ball population grows exponentially with
  // radius, so reachability of anything outside the prefix is the spine
  // paths' job, never the prefix's.
  const auto growBall = [&](GraphSearch& s, NodeId lm, std::size_t cap, BallEntry* out) {
    std::size_t size = 0;
    s.shortestPaths(lm, nullptr, [&](NodeId u) {
      if (size >= cap) return false;
      const NodeId up = s.parent(u);
      out[size++] = BallEntry{u, static_cast<std::int16_t>(up < 0 ? -1 : adj_.dirTo(u, up))};
      return true;
    });
    return size;
  };

  // A reconfigured (allowIsolated) spec keeps retired, edgeless ids in the
  // node range; connectivity is required only of the attached nodes, and
  // no search from a tree node's landmark reaches more than those.
  std::size_t attached = static_cast<std::size_t>(n);
  if (spec_->allowIsolated) {
    attached = 0;
    for (NodeId v = 0; v < n; ++v)
      if (!adj_.isolated(v)) ++attached;
    if (attached == 0) attached = static_cast<std::size_t>(n);  // edgeless machine
  }

  // Root first (tree node 0): the full shortest-path tree, doubling as
  // the connectivity check and as the LCA structure spine fallbacks use.
  DIVA_CHECK_MSG(tree_->parent(0) < 0, "routing tree root is not node 0");
  ball_.resize(attached);
  const std::size_t rootSize = growBall(search, landmark_[0], attached, ball_.data());
  DIVA_CHECK_MSG(rootSize == attached,
                 "graph '" << spec_->name << "' is not connected (root ball reached "
                           << rootSize << " of " << attached << " nodes)");
  std::vector<NodeId> sptParent(static_cast<std::size_t>(n));
  std::vector<std::uint32_t> sptDepth(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    const bool reached = search.reached(v) && search.parent(v) >= 0;
    sptParent[v] = reached ? search.parent(v) : v;
    sptDepth[v] = reached ? search.hops(v) : 0;
  }
  std::sort(ball_.begin(), ball_.end(), byNode);
  ballBegin_[1] = ball_.size();

  std::vector<std::vector<NodeId>> spine(static_cast<std::size_t>(tn));
  buildSpinePaths(spine, sptParent, sptDepth);
  sptParent = {};
  sptDepth = {};

  // Every other ball grows on a worker thread into its own slice of
  // ball_, sized from a bound known up front: the prefix holds
  // min(cap, attached) entries and the spine adds at most its length
  // minus the landmark. One serial pass then closes the gaps.
  const auto capOf = [&](int i) {
    return static_cast<std::size_t>(std::max(
        kBallMinEntries, kBallEntryFactor * static_cast<int>(tree_->cluster(i).size())));
  };
  std::vector<std::size_t> sliceBegin(static_cast<std::size_t>(tn) + 1, ball_.size());
  for (int i = 1; i < tn; ++i)
    sliceBegin[i + 1] = sliceBegin[i] + std::min(capOf(i), attached) +
                        spine[static_cast<std::size_t>(i)].size() - 1;
  ball_.resize(sliceBegin[tn]);
  std::vector<std::size_t> ballSize(static_cast<std::size_t>(tn), 0);
  support::parallelFor(
      support::hardwareWorkers(), static_cast<std::size_t>(tn - 1),
      [&] { return GraphSearch(adj_); },
      [&](GraphSearch& s, std::size_t item) {
        const int i = static_cast<int>(item) + 1;
        BallEntry* first = ball_.data() + sliceBegin[i];
        const std::size_t grown = growBall(s, landmark_[i], capOf(i), first);
        std::sort(first, first + grown, byNode);
        // Inject the spine path (parent's landmark → lm): nodes not
        // already in the prefix get the along-path direction toward lm.
        // This is what restores ball(C) ∋ landmark(parent(C)) — the
        // invariant the chain induction needs — without the prefix having
        // to reach that far.
        const std::vector<NodeId>& path = spine[static_cast<std::size_t>(i)];
        std::size_t size = grown;
        for (std::size_t j = 0; j + 1 < path.size(); ++j) {
          const NodeId v = path[j];
          const BallEntry* it = std::lower_bound(
              first, first + grown, v, [](const BallEntry& a, NodeId x) { return a.node < x; });
          if (it != first + grown && it->node == v) continue;  // prefix direction wins
          first[size++] = BallEntry{v, static_cast<std::int16_t>(adj_.dirTo(v, path[j + 1]))};
        }
        if (size > grown) std::sort(first, first + size, byNode);
        ballSize[i] = size;
      });
  for (int i = 1; i < tn; ++i) {
    const auto from = ball_.begin() + static_cast<std::ptrdiff_t>(sliceBegin[i]);
    if (sliceBegin[i] != ballBegin_[i])
      std::copy(from, from + static_cast<std::ptrdiff_t>(ballSize[i]),
                ball_.begin() + static_cast<std::ptrdiff_t>(ballBegin_[i]));
    ballBegin_[i + 1] = ballBegin_[i] + ballSize[i];
  }
  ball_.resize(ballBegin_[tn]);
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
