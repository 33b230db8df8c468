#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/graph_topology.hpp"

namespace diva::net {

/// The graph searches of the network layer, each written once over a
/// `GraphAdjacency`: the deterministic Dijkstra behind the dense routing
/// tables, the hierarchical balls and spines, and the cluster-restricted
/// BFS behind bisection and landmarks.
///
/// Scratch is sized to the node count once, at construction, and is
/// stamped: a node's entries count only when its stamp equals the
/// current search's epoch, so starting a search is O(1) and a search
/// confined to a cluster costs O(|cluster|·degree), never O(numNodes).
/// Results of the last search stay readable until the next one starts.
class GraphSearch {
 public:
  explicit GraphSearch(const GraphAdjacency& g)
      : g_(g),
        seen_(static_cast<std::size_t>(g.numNodes), 0),
        inScope_(static_cast<std::size_t>(g.numNodes), 0),
        dist_(static_cast<std::size_t>(g.numNodes)),
        hops_(static_cast<std::size_t>(g.numNodes)),
        parent_(static_cast<std::size_t>(g.numNodes)) {}

  /// Deterministic Dijkstra from `root` over the edge weights. Ties
  /// prefer fewer hops, then the lowest-id parent, so every node's path
  /// to the root is unique. A non-null `scope` (sorted or not) confines
  /// the search to those nodes. `onPop(u)` sees the nodes in pop order;
  /// returning false ends the search before u's edges are relaxed.
  /// Every relaxer of a node is strictly closer to the root (weights are
  /// positive), hence already popped: a popped node's parent chain is
  /// final, and so is the chain of every node a completed search reached.
  template <typename OnPop>
  void shortestPaths(NodeId root, const std::vector<NodeId>* scope, OnPop&& onPop) {
    restrictTo(scope);
    newEpoch();
    visit(root, 0.0, 0, -1);
    using Entry = std::pair<double, NodeId>;  // pops by (distance, node id)
    std::vector<Entry>& heap = heap_;
    heap.clear();
    heap.push_back({0.0, root});
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<Entry>());
      const auto [du, u] = heap.back();
      heap.pop_back();
      if (du > dist_[u]) continue;  // stale entry
      if (!onPop(u)) return;
      for (int dir = 0; dir < g_.degree; ++dir) {
        const NodeId v = g_.neighbor(u, dir);
        if (v < 0) break;  // slots are packed: the first -1 ends the list
        if (v == root || !inScope(v)) continue;
        const double cand = du + g_.weightOf(u, dir);
        const std::uint32_t candHops = hops_[u] + 1;
        if (!reached(v)) {
          visit(v, cand, candHops, u);
          heap.push_back({cand, v});
          std::push_heap(heap.begin(), heap.end(), std::greater<Entry>());
        } else if (cand < dist_[v]) {
          dist_[v] = cand;
          hops_[v] = candHops;
          parent_[v] = u;
          heap.push_back({cand, v});
          std::push_heap(heap.begin(), heap.end(), std::greater<Entry>());
        } else if (cand == dist_[v] &&
                   (candHops < hops_[v] || (candHops == hops_[v] && u < parent_[v]))) {
          // Tie-break-only update: v keeps its distance and queue entry.
          hops_[v] = candHops;
          parent_[v] = u;
        }
      }
    }
  }

  /// Start a breadth-first sweep of `cluster` (sorted or not): forgets
  /// every earlier visit and confines the `bfs` calls that follow to the
  /// cluster's members.
  void sweep(const std::vector<NodeId>& cluster) {
    restrictTo(&cluster);
    newEpoch();
  }

  /// Breadth-first search from `src` over the swept cluster's members
  /// not yet visited in this sweep, neighbors in ascending-id order.
  /// `onVisit(u)` sees nodes in BFS order; returning false ends the
  /// search. Visits accumulate across calls until the next `sweep`.
  template <typename OnVisit>
  void bfs(NodeId src, OnVisit&& onVisit) {
    queue_.clear();
    visit(src, 0.0, 0, -1);
    queue_.push_back(src);
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const NodeId u = queue_[head];
      if (!onVisit(u)) return;
      for (int dir = 0; dir < g_.degree; ++dir) {
        const NodeId v = g_.neighbor(u, dir);
        if (v < 0) break;
        if (!inScope(v) || reached(v)) continue;
        visit(v, 0.0, hops_[u] + 1, u);
        queue_.push_back(v);
      }
    }
  }

  /// BFS from `src`: the node it reaches farthest in hops, ties to the
  /// lowest id. After a fresh `sweep`, `reachedCount()` then tells the
  /// size of src's component within the cluster.
  NodeId farthest(NodeId src) {
    NodeId far = src;
    bfs(src, [&](NodeId u) {
      if (hops_[u] > hops_[far] || (hops_[u] == hops_[far] && u < far)) far = u;
      return true;
    });
    return far;
  }

  /// Did the last search reach `v`?
  bool reached(NodeId v) const { return seen_[v] == epoch_; }
  /// Nodes the last search (or sweep so far) reached.
  std::size_t reachedCount() const { return reachedCount_; }
  /// v's predecessor on its path from the search root; -1 at the root.
  /// Only meaningful for reached nodes.
  NodeId parent(NodeId v) const { return parent_[v]; }
  /// Hops of v's path from the search root (reached nodes only).
  std::uint32_t hops(NodeId v) const { return hops_[v]; }

 private:
  bool inScope(NodeId v) const { return !scoped_ || inScope_[v] == scopeEpoch_; }

  void restrictTo(const std::vector<NodeId>* scope) {
    scoped_ = scope != nullptr;
    if (!scoped_) return;
    if (++scopeEpoch_ == 0) {
      std::fill(inScope_.begin(), inScope_.end(), 0);
      scopeEpoch_ = 1;
    }
    for (NodeId v : *scope) inScope_[v] = scopeEpoch_;
  }

  void newEpoch() {
    reachedCount_ = 0;
    if (++epoch_ == 0) {
      std::fill(seen_.begin(), seen_.end(), 0);
      epoch_ = 1;
    }
  }

  void visit(NodeId v, double dist, std::uint32_t hops, NodeId parent) {
    seen_[v] = epoch_;
    ++reachedCount_;
    dist_[v] = dist;
    hops_[v] = hops;
    parent_[v] = parent;
  }

  const GraphAdjacency& g_;
  std::vector<std::uint32_t> seen_;     ///< == epoch_: reached by the current search
  std::vector<std::uint32_t> inScope_;  ///< == scopeEpoch_: inside the current scope
  std::uint32_t epoch_ = 0;
  std::uint32_t scopeEpoch_ = 0;
  bool scoped_ = false;
  std::size_t reachedCount_ = 0;
  std::vector<double> dist_;
  std::vector<std::uint32_t> hops_;
  std::vector<NodeId> parent_;
  std::vector<std::pair<double, NodeId>> heap_;
  std::vector<NodeId> queue_;
};

}  // namespace diva::net
