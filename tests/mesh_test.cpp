// Unit and property tests for the mesh topology, dimension-order routing
// and link statistics.

#include <gtest/gtest.h>

#include <cstdlib>

#include "net/link_stats.hpp"
#include "net/mesh_topology.hpp"

namespace diva::net {
namespace {

TEST(Mesh, RowMajorNumbering) {
  Grid m(4, 8);
  EXPECT_EQ(m.numNodes(), 32);
  EXPECT_EQ(m.nodeAt(0, 0), 0);
  EXPECT_EQ(m.nodeAt(0, 7), 7);
  EXPECT_EQ(m.nodeAt(1, 0), 8);
  EXPECT_EQ(m.nodeAt(3, 7), 31);
  EXPECT_EQ(m.coordOf(17).row, 2);
  EXPECT_EQ(m.coordOf(17).col, 1);
}

TEST(Mesh, NeighborsRespectBoundaries) {
  MeshTopology m(3, 3);
  const NodeId corner = m.grid().nodeAt(0, 0);
  EXPECT_GE(m.neighbor(corner, Grid::East), 0);
  EXPECT_GE(m.neighbor(corner, Grid::South), 0);
  EXPECT_EQ(m.neighbor(corner, Grid::West), -1);
  EXPECT_EQ(m.neighbor(corner, Grid::North), -1);
  const NodeId center = m.grid().nodeAt(1, 1);
  for (int d = 0; d < Grid::kDirs; ++d) EXPECT_GE(m.neighbor(center, d), 0);
  EXPECT_EQ(m.neighbor(center, Grid::East), m.grid().nodeAt(1, 2));
  EXPECT_EQ(m.neighbor(center, Grid::North), m.grid().nodeAt(0, 1));
}

TEST(Route, EmptyForSelf) {
  MeshTopology m(4, 4);
  EXPECT_TRUE(routeOf(m, 5, 5).empty());
}

TEST(Route, ColumnsFirstThenRows) {
  MeshTopology topo(4, 4);
  const Grid& m = topo.grid();
  // From (0,0) to (2,3): expect 3 East hops then 2 South hops.
  const auto hops = routeOf(topo, m.nodeAt(0, 0), m.nodeAt(2, 3));
  ASSERT_EQ(hops.size(), 5u);
  EXPECT_EQ(hops[0].to, m.nodeAt(0, 1));
  EXPECT_EQ(hops[1].to, m.nodeAt(0, 2));
  EXPECT_EQ(hops[2].to, m.nodeAt(0, 3));
  EXPECT_EQ(hops[3].to, m.nodeAt(1, 3));
  EXPECT_EQ(hops[4].to, m.nodeAt(2, 3));
}

class RouteProperty : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RouteProperty, AllPairsShortestAndXY) {
  const auto [rows, cols] = GetParam();
  MeshTopology topo(rows, cols);
  const Grid& m = topo.grid();
  auto manhattan = [&m](NodeId a, NodeId b) {
    const Coord ca = m.coordOf(a), cb = m.coordOf(b);
    return std::abs(ca.row - cb.row) + std::abs(ca.col - cb.col);
  };
  for (NodeId a = 0; a < m.numNodes(); ++a) {
    for (NodeId b = 0; b < m.numNodes(); ++b) {
      const auto hops = routeOf(topo, a, b);
      // Shortest: hop count equals Manhattan distance.
      EXPECT_EQ(static_cast<int>(hops.size()), manhattan(a, b));
      // Dimension order: no column movement after the first row movement.
      bool sawRow = false;
      NodeId cur = a;
      for (const Hop& h : hops) {
        const bool rowMove = m.coordOf(h.to).row != m.coordOf(cur).row;
        if (rowMove) sawRow = true;
        if (sawRow) {
          EXPECT_NE(m.coordOf(h.to).row, m.coordOf(cur).row);
        }
        // Links must connect adjacent nodes.
        EXPECT_EQ(manhattan(cur, h.to), 1);
        cur = h.to;
      }
      if (!hops.empty()) {
        EXPECT_EQ(cur, b);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, RouteProperty,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 8},
                                           std::pair{8, 1}, std::pair{4, 4},
                                           std::pair{3, 5}, std::pair{8, 8}));

TEST(LinkStats, CongestionIsMaxTotalIsSum) {
  MeshTopology m(2, 2);
  LinkStats s(m.numLinkSlots());
  const int l0 = m.linkIndex(0, Grid::East);
  const int l1 = m.linkIndex(0, Grid::South);
  s.record(l0, 100);
  s.record(l0, 100);
  s.record(l1, 50);
  EXPECT_EQ(s.congestionMessages(), 2u);
  EXPECT_EQ(s.congestionBytes(), 200u);
  EXPECT_EQ(s.totalMessages(), 3u);
  EXPECT_EQ(s.totalBytes(), 250u);
}

TEST(LinkStats, PhasesAreScoped) {
  MeshTopology m(2, 2);
  LinkStats s(m.numLinkSlots());
  const int l = m.linkIndex(0, Grid::East);
  s.setPhase(0);
  s.record(l, 10);
  s.setPhase(2);
  s.record(l, 30);
  s.record(l, 30);
  EXPECT_EQ(s.congestionBytes(0), 10u);
  EXPECT_EQ(s.congestionBytes(2), 60u);
  EXPECT_EQ(s.congestionBytes(1), 0u);
  EXPECT_EQ(s.congestionBytes(7), 0u);  // never entered, never stored
  EXPECT_EQ(s.numPhases(), 3);
  EXPECT_EQ(s.congestionBytes(), 70u);  // all phases
  EXPECT_EQ(s.congestionMessages(2), 2u);
}

TEST(LinkStats, ResetClearsEverything) {
  MeshTopology m(2, 2);
  LinkStats s(m.numLinkSlots());
  s.record(0, 5);
  s.reset();
  EXPECT_EQ(s.totalBytes(), 0u);
  EXPECT_EQ(s.congestionMessages(), 0u);
}

}  // namespace
}  // namespace diva::net
