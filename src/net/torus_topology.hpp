#pragma once

#include "net/mesh_topology.hpp"

namespace diva::net {

/// 2-D torus: the mesh with wraparound links. Same node numbering, same
/// four directed-link slots per node, same hierarchical decomposition and
/// embeddings (clusters are contiguous rectangles of the underlying grid;
/// the decomposition deliberately ignores the wrap edges, which only
/// shorten routes). Routing is dimension-order like the mesh, but each
/// dimension independently wraps in whichever direction is shorter (ties
/// break toward East/South, keeping routes deterministic).
class TorusTopology final : public MeshTopology {
 public:
  TorusTopology(int rows, int cols) : MeshTopology(rows, cols) {}

  TopologyKind kind() const override { return TopologyKind::Torus2D; }
  TopologySpec spec() const override {
    return TopologySpec::torus2d(grid_.rows(), grid_.cols());
  }

  NodeId neighbor(NodeId n, int dir) const override {
    const int rows = grid_.rows(), cols = grid_.cols();
    const Coord c = grid_.coordOf(n);
    NodeId nb = -1;
    switch (dir) {
      case Grid::East: nb = grid_.nodeAt(c.row, (c.col + 1) % cols); break;
      case Grid::West: nb = grid_.nodeAt(c.row, (c.col + cols - 1) % cols); break;
      case Grid::South: nb = grid_.nodeAt((c.row + 1) % rows, c.col); break;
      case Grid::North: nb = grid_.nodeAt((c.row + rows - 1) % rows, c.col); break;
      default: return -1;
    }
    return nb == n ? -1 : nb;  // a size-1 ring has no wrap link, not a self-loop
  }

  void appendRoute(NodeId from, NodeId to, RouteVec& out) const override;
};

}  // namespace diva::net
