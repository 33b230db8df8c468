#include "net/torus_topology.hpp"

namespace diva::net {

namespace {

/// Signed per-dimension step plan: how many hops, and in which of the two
/// ring directions. Forward = increasing coordinate (East/South).
struct RingPlan {
  int count;
  bool forward;
};

RingPlan planRing(int from, int to, int size) {
  int fwd = to - from;
  if (fwd < 0) fwd += size;
  // Shorter way around; a tie (fwd == size/2 on even rings) goes forward
  // so routes stay deterministic.
  if (fwd * 2 <= size) return RingPlan{fwd, true};
  return RingPlan{size - fwd, false};
}

}  // namespace

void TorusTopology::appendRoute(NodeId from, NodeId to, RouteVec& out) const {
  // Arithmetic-only dimension-order walk (columns then rows), mirroring
  // the mesh hot path: no allocation beyond the caller's buffer.
  const int rows = grid_.rows(), cols = grid_.cols();
  const Coord src = grid_.coordOf(from), dst = grid_.coordOf(to);
  NodeId cur = from;

  const RingPlan colPlan = planRing(src.col, dst.col, cols);
  int col = src.col;
  for (int i = 0; i < colPlan.count; ++i) {
    const int nc = colPlan.forward ? (col + 1) % cols : (col + cols - 1) % cols;
    const NodeId next = cur + (nc - col);  // same row
    const auto d = colPlan.forward ? Grid::East : Grid::West;
    out.push_back(Hop{Grid::linkIndex(cur, d), next});
    cur = next;
    col = nc;
  }

  const RingPlan rowPlan = planRing(src.row, dst.row, rows);
  int row = src.row;
  for (int i = 0; i < rowPlan.count; ++i) {
    const int nr = rowPlan.forward ? (row + 1) % rows : (row + rows - 1) % rows;
    const NodeId next = cur + (nr - row) * cols;
    const auto d = rowPlan.forward ? Grid::South : Grid::North;
    out.push_back(Hop{Grid::linkIndex(cur, d), next});
    cur = next;
    row = nr;
  }
}

}  // namespace diva::net
