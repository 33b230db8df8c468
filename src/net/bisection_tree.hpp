#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "support/rng.hpp"
#include "support/small_vec.hpp"

namespace diva::net {

/// The one construction of the paper's ℓ-ary and ℓ-k-ary cluster trees
/// (§2), shared by every topology; only the cluster geometry differs.
///
///  - An ℓ-ary node's children are the fringe of log2(ℓ) consecutive
///    bisections of its cluster. Clusters of one processor stop splitting
///    early, so a node near the bottom can have fewer than ℓ children.
///  - A cluster of ≤ leafSize processors instead gets one child per
///    processor, in the shape's canonical member order (leafSize = P gives
///    the P-ary tree the paper identifies with the fixed home strategy).
///  - Nodes are numbered in preorder, root 0; the Random embedding hashes
///    these numbers, so the order is part of the model.
///
/// `Shape` describes one cluster geometry through its `Cluster` type:
///
///     int size(const Cluster&) const;
///     Cluster unit(const Cluster& c, int i) const;  // i-th member of c, alone
///     NodeId proc(const Cluster& unit) const;       // processor of a 1-cluster
///     NodeId pick(const Cluster& c, std::uint64_t key) const;  // uniform member
///     NodeId follow(const Cluster& parent, NodeId parentHost,
///                   const Cluster& child) const;  // optional, see below
///
/// `pick` hashes a tree node into its cluster (the Random embedding, and
/// the Regular embedding's root); `follow` is the Regular embedding's
/// rule that a child keeps its parent host's relative position. A shape
/// whose clusters are strictly ascending member lists leaves `follow`
/// out: its relative position is the host's index in the list, so a
/// node's Regular host is `cluster[rank]`, where `rank` is the root's
/// index `hashBelow(key, size)` (its `pick` must draw exactly that)
/// reduced modulo each cluster size on the way down — an O(depth) loop
/// with no search.
///
/// The constructor's `bisect(cluster, a, b)` splits a cluster of ≥ 2
/// processors into two non-empty halves. It runs only during
/// construction, so it may borrow the topology or a partitioner; the
/// finished tree keeps only `Shape` and the clusters.
template <typename Shape>
class BisectionTree final : public ClusterTree {
 public:
  using Cluster = typename Shape::Cluster;

  template <typename Bisect>
  BisectionTree(Shape shape, Cluster all, int numProcs, DecompParams params, Bisect&& bisect)
      : shape_(std::move(shape)) {
    DIVA_CHECK_MSG(isSupportedArity(params.arity), "arity must be 2, 4 or 16");
    DIVA_CHECK_MSG(params.leafSize >= 1, "leafSize must be >= 1");
    nodes_.reserve(static_cast<std::size_t>(2) * numProcs);
    clusters_.reserve(static_cast<std::size_t>(2) * numProcs);
    build(std::move(all), -1, -1, 0, params, bisect);
    finalize(numProcs);
    if constexpr (!kFollows)
      DIVA_CHECK_MSG(maxDepth_ < kMaxFoldDepth, "cluster tree too deep for the rank fold");
  }

  /// The cluster of a tree node.
  const Cluster& cluster(int treeNode) const { return clusters_[treeNode]; }

  NodeId hostOf(int treeNode, std::uint64_t varKey, EmbeddingKind kind,
                std::uint64_t seed) const override {
    const Cluster& c = clusters_[treeNode];
    if (shape_.size(c) == 1) return shape_.proc(c);
    if (kind == EmbeddingKind::Random)
      return shape_.pick(
          c, support::hashCombine(seed, varKey, static_cast<std::uint64_t>(treeNode)));
    if constexpr (kFollows) {
      const int parent = nodes_[treeNode].parent;
      if (parent < 0) return shape_.pick(c, support::hashCombine(seed, varKey));
      return shape_.follow(clusters_[parent], hostOf(parent, varKey, kind, seed), c);
    } else {
      std::uint32_t sizes[kMaxFoldDepth];  // cluster sizes, treeNode up to below the root
      int depth = 0;
      for (int t = treeNode; nodes_[t].parent >= 0; t = nodes_[t].parent)
        sizes[depth++] = static_cast<std::uint32_t>(nodes_[t].size);
      auto rank = static_cast<std::uint32_t>(support::hashBelow(
          support::hashCombine(seed, varKey), static_cast<std::uint64_t>(nodes_[0].size)));
      while (depth > 0) rank %= sizes[--depth];
      return c[rank];
    }
  }

 private:
  static constexpr bool kFollows =
      requires(const Shape& s, const Cluster& c, NodeId h) { s.follow(c, h, c); };
  static constexpr int kMaxFoldDepth = 64;
  using Children = support::SmallVec<Cluster, 16>;

  template <typename Bisect>
  int build(Cluster&& c, int parent, int indexInParent, int depth, const DecompParams& params,
            Bisect& bisect) {
    const int self = static_cast<int>(nodes_.size());
    const int size = shape_.size(c);
    nodes_.push_back(Node{parent, indexInParent, {}, depth, size});
    leafProc_.push_back(size == 1 ? shape_.proc(c) : -1);

    // A node has at most max(arity, leafSize) children: inline room for
    // 16 keeps the build's per-node scratch off the heap, and each child
    // list is allocated once at its final size.
    Children children;
    if (size > 1 && size <= params.leafSize) {
      children.reserve(static_cast<std::size_t>(size));
      for (int i = 0; i < size; ++i) children.push_back(shape_.unit(c, i));
    } else if (size > 1) {
      split(Cluster(c), std::countr_zero(static_cast<unsigned>(params.arity)), children,
            bisect);
    }
    clusters_.push_back(std::move(c));

    nodes_[self].children.reserve(children.size());
    int idx = 0;
    for (Cluster& child : children) {
      const int n = build(std::move(child), self, idx++, depth + 1, params, bisect);
      nodes_[self].children.push_back(n);
    }
    return self;
  }

  template <typename Bisect>
  void split(Cluster&& c, int levels, Children& out, Bisect& bisect) const {
    const int size = shape_.size(c);
    if (levels == 0 || size == 1) {
      out.push_back(std::move(c));
      return;
    }
    Cluster a, b;
    bisect(c, a, b);
    DIVA_CHECK_MSG(shape_.size(a) >= 1 && shape_.size(b) >= 1 &&
                       shape_.size(a) + shape_.size(b) == size,
                   "bisection did not split the cluster into two non-empty halves");
    split(std::move(a), levels - 1, out, bisect);
    split(std::move(b), levels - 1, out, bisect);
  }

  Shape shape_;
  std::vector<Cluster> clusters_;  ///< parallel to nodes_
};

}  // namespace diva::net
