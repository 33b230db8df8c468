#pragma once

#include <memory>

#include "net/bisection_tree.hpp"
#include "net/topology.hpp"

namespace diva::net {

/// A subcube: the node ids [base, base + 2^freeDims).
struct Subcube {
  NodeId base = 0;
  int freeDims = 0;
};

/// Subcube decomposition as a `BisectionTree` shape. Bisection fixes the
/// highest free dimension, so every cluster is a contiguous id range and
/// the canonical leaf order is the numeric node order. The Regular
/// embedding keeps the parent host's free low bits — the hypercube
/// analogue of the paper's (i mod m1, j mod m2) rule.
struct CubeShape {
  using Cluster = Subcube;

  static int size(const Subcube& c) { return 1 << c.freeDims; }
  static Subcube unit(const Subcube& c, int i) { return Subcube{c.base + i, 0}; }
  static NodeId proc(const Subcube& c) { return c.base; }
  static NodeId pick(const Subcube& c, std::uint64_t key) {
    return c.base + static_cast<NodeId>(
                        support::hashBelow(key, static_cast<std::uint64_t>(size(c))));
  }
  static NodeId follow(const Subcube& parent, NodeId parentHost, const Subcube& child) {
    return child.base + ((parentHost - parent.base) & (size(child) - 1));
  }
  static void bisect(const Subcube& c, Subcube& a, Subcube& b) {
    const int half = c.freeDims - 1;
    a = Subcube{c.base, half};
    b = Subcube{c.base + (NodeId{1} << half), half};
  }
};

using HypercubeClusterTree = BisectionTree<CubeShape>;

/// d-dimensional hypercube (2^d nodes, node ids are coordinate bit
/// strings). Direction slot i is the link flipping bit i. Routing is
/// e-cube (dimension-order): correct differing bits from dimension 0
/// upward — the deterministic shortest path, one bit flip per hop.
class HypercubeTopology final : public Topology {
 public:
  explicit HypercubeTopology(int dims);

  int dims() const { return dims_; }

  TopologyKind kind() const override { return TopologyKind::Hypercube; }
  TopologySpec spec() const override { return TopologySpec::hypercube(dims_); }
  int numNodes() const override { return 1 << dims_; }
  int degree() const override { return dims_; }

  NodeId neighbor(NodeId n, int dir) const override {
    if (dir < 0 || dir >= dims_) return -1;
    return n ^ (NodeId{1} << dir);
  }

  void appendRoute(NodeId from, NodeId to, RouteVec& out) const override;

  std::unique_ptr<ClusterTree> decompose(DecompParams params) const override {
    return std::make_unique<HypercubeClusterTree>(CubeShape{}, Subcube{0, dims_}, numNodes(),
                                                  params, CubeShape::bisect);
  }

 private:
  int dims_;
};

}  // namespace diva::net
