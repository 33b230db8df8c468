#pragma once

#include <memory>

#include "net/bisection_tree.hpp"
#include "net/topology.hpp"

namespace diva::net {

struct Coord {
  int row = 0;
  int col = 0;
  bool operator==(const Coord&) const = default;
};

/// Coordinates of a rows×cols processor grid, numbered in row-major order
/// as in the paper ("processors numbered from 0 to P-1 in row major
/// order"). `Dir` names the grid's direction slots: link `linkIndex(n,
/// dir)` of a mesh or torus leaves node n toward `dir`, and every physical
/// wire is two directed links (the GCel reaches full bandwidth in both
/// directions simultaneously, which the paper measured explicitly).
class Grid {
 public:
  enum Dir : int { East = 0, West = 1, South = 2, North = 3 };
  static constexpr int kDirs = 4;

  Grid(int rows, int cols) : rows_(rows), cols_(cols) {
    DIVA_CHECK_MSG(rows >= 1 && cols >= 1, "mesh sides must be positive");
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int numNodes() const { return rows_ * cols_; }

  NodeId nodeAt(int row, int col) const {
    DIVA_CHECK(row >= 0 && row < rows_ && col >= 0 && col < cols_);
    return static_cast<NodeId>(row * cols_ + col);
  }

  Coord coordOf(NodeId n) const {
    DIVA_CHECK(n >= 0 && n < numNodes());
    return Coord{n / cols_, n % cols_};
  }

  /// Directed link slot leaving `from` toward `d`; equals
  /// `Topology::linkIndex` on grid topologies, without the virtual
  /// `degree()` call on the routing hot path.
  static int linkIndex(NodeId from, Dir d) { return from * kDirs + d; }

 private:
  int rows_;
  int cols_;
};

/// Axis-aligned submesh (a rectangle of processors): a grid cluster.
struct Submesh {
  int row0 = 0;
  int col0 = 0;
  int rows = 0;
  int cols = 0;

  int size() const { return rows * cols; }
  bool contains(Coord c) const {
    return c.row >= row0 && c.row < row0 + rows && c.col >= col0 && c.col < col0 + cols;
  }
  bool operator==(const Submesh&) const = default;
};

/// The paper's mesh decomposition as a `BisectionTree` shape. Bisection
/// halves the longer side ("we partition M into two non-overlapping
/// submeshes of size ⌈m1/2⌉×m2 and ⌊m1/2⌋×m2"; ties split rows), members
/// are in row-major order, and the Regular embedding maps a node whose
/// parent sits at relative position (i, j) of the parent's submesh to
/// (i mod m1, j mod m2) of its own m1×m2 submesh.
struct GridShape {
  using Cluster = Submesh;

  int gridCols = 0;

  static int size(const Submesh& s) { return s.size(); }
  static Submesh unit(const Submesh& s, int i) {
    return Submesh{s.row0 + i / s.cols, s.col0 + i % s.cols, 1, 1};
  }
  NodeId proc(const Submesh& s) const { return s.row0 * gridCols + s.col0; }
  NodeId pick(const Submesh& s, std::uint64_t key) const {
    const auto r = support::hashBelow(key, static_cast<std::uint64_t>(s.rows));
    const auto c = support::hashBelow(support::hashCombine(key, 0x5eedull),
                                      static_cast<std::uint64_t>(s.cols));
    return (s.row0 + static_cast<int>(r)) * gridCols + s.col0 + static_cast<int>(c);
  }
  NodeId follow(const Submesh& parent, NodeId parentHost, const Submesh& child) const {
    const int i = parentHost / gridCols - parent.row0;
    const int j = parentHost % gridCols - parent.col0;
    return (child.row0 + i % child.rows) * gridCols + child.col0 + j % child.cols;
  }
  static void bisect(const Submesh& s, Submesh& a, Submesh& b) {
    if (s.rows >= s.cols) {
      const int top = (s.rows + 1) / 2;
      a = Submesh{s.row0, s.col0, top, s.cols};
      b = Submesh{s.row0 + top, s.col0, s.rows - top, s.cols};
    } else {
      const int left = (s.cols + 1) / 2;
      a = Submesh{s.row0, s.col0, s.rows, left};
      b = Submesh{s.row0, s.col0 + left, s.rows, s.cols - left};
    }
  }
};

using MeshClusterTree = BisectionTree<GridShape>;

/// The paper's hierarchical decomposition of a grid (§2, Figure 1).
inline std::unique_ptr<MeshClusterTree> decomposeGrid(const Grid& grid, DecompParams params) {
  return std::make_unique<MeshClusterTree>(GridShape{grid.cols()},
                                           Submesh{0, 0, grid.rows(), grid.cols()},
                                           grid.numNodes(), params, GridShape::bisect);
}

/// The 2-D mesh of the Parsytec GCel — the paper's machine. Dimension-order
/// routing (columns then rows) with arithmetic-only route expansion; this
/// is the hot-path topology and must stay allocation-free.
class MeshTopology : public Topology {
 public:
  MeshTopology(int rows, int cols) : grid_(rows, cols) {}

  /// Grid-coordinate access for 2-D-structured applications (matmul's
  /// block layout, congestion heat maps).
  const Grid& grid() const { return grid_; }

  TopologyKind kind() const override { return TopologyKind::Mesh2D; }
  TopologySpec spec() const override {
    return TopologySpec::mesh2d(grid_.rows(), grid_.cols());
  }
  int numNodes() const override { return grid_.numNodes(); }
  int degree() const override { return Grid::kDirs; }

  NodeId neighbor(NodeId n, int dir) const override {
    const Coord c = grid_.coordOf(n);
    switch (dir) {
      case Grid::East: return c.col + 1 < grid_.cols() ? n + 1 : -1;
      case Grid::West: return c.col > 0 ? n - 1 : -1;
      case Grid::South: return c.row + 1 < grid_.rows() ? n + grid_.cols() : -1;
      case Grid::North: return c.row > 0 ? n - grid_.cols() : -1;
      default: return -1;
    }
  }

  /// Dimension-by-dimension order routing, exactly as assumed by the
  /// paper's analysis and implemented by the GCel's wormhole router: the
  /// unique shortest path that first uses edges of dimension 1 (columns,
  /// East/West) and then edges of dimension 2 (rows, South/North).
  void appendRoute(NodeId from, NodeId to, RouteVec& out) const override {
    // Pure-arithmetic walk: every intermediate hop is valid by
    // construction (we only ever step toward the destination inside the
    // grid), so coordinates are derived once, not per hop.
    const Coord src = grid_.coordOf(from);
    const Coord dst = grid_.coordOf(to);
    NodeId cur = from;
    for (int col = src.col; col != dst.col;) {
      const bool east = col < dst.col;
      const NodeId next = east ? cur + 1 : cur - 1;
      out.push_back(Hop{Grid::linkIndex(cur, east ? Grid::East : Grid::West), next});
      cur = next;
      col += east ? 1 : -1;
    }
    const int cols = grid_.cols();
    for (int row = src.row; row != dst.row;) {
      const bool south = row < dst.row;
      const NodeId next = south ? cur + cols : cur - cols;
      out.push_back(Hop{Grid::linkIndex(cur, south ? Grid::South : Grid::North), next});
      cur = next;
      row += south ? 1 : -1;
    }
  }

  std::unique_ptr<ClusterTree> decompose(DecompParams params) const override {
    return decomposeGrid(grid_, params);
  }

 protected:
  Grid grid_;
};

}  // namespace diva::net
