// Tests for the hierarchical mesh decomposition and the access-tree
// embeddings (paper §2, Figure 1).

#include <gtest/gtest.h>

#include <set>

#include "net/mesh_topology.hpp"

namespace diva::net {
namespace {

using Params = DecompParams;

TEST(Decomposition, PaperFigure1_M4x3) {
  // The paper's example: M(4,3) under the 2-ary decomposition. Level 1
  // splits the 4-row side into two 2x3 submeshes.
  const auto d = decomposeGrid(Grid(4, 3), Params{2, 1});
  const auto& root = d->node(d->root());
  EXPECT_EQ(d->cluster(d->root()), (Submesh{0, 0, 4, 3}));
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(d->cluster(root.children[0]), (Submesh{0, 0, 2, 3}));
  EXPECT_EQ(d->cluster(root.children[1]), (Submesh{2, 0, 2, 3}));
  // Level 2 splits each 2x3 along the 3-column side: 2x2 and 2x1.
  const auto& c0 = d->node(root.children[0]);
  ASSERT_EQ(c0.children.size(), 2u);
  EXPECT_EQ(d->cluster(c0.children[0]), (Submesh{0, 0, 2, 2}));
  EXPECT_EQ(d->cluster(c0.children[1]), (Submesh{0, 2, 2, 1}));
}

struct ShapeCase {
  int rows, cols, arity, leafSize;
};

class DecompositionProperty : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(DecompositionProperty, PartitionInvariants) {
  const auto [rows, cols, arity, leafSize] = GetParam();
  const Grid m(rows, cols);
  const auto d = decomposeGrid(m, Params{arity, leafSize});

  int leaves = 0;
  for (int i = 0; i < d->numNodes(); ++i) {
    const auto& n = d->node(i);
    const Submesh& box = d->cluster(i);
    EXPECT_GT(box.size(), 0);
    EXPECT_EQ(n.size, box.size());
    if (n.isLeaf()) {
      EXPECT_EQ(box.size(), 1);
      ++leaves;
      continue;
    }
    // Children tile the parent exactly (disjoint cover).
    int covered = 0;
    for (int c : n.children) {
      const auto& cb = d->cluster(c);
      covered += cb.size();
      EXPECT_GE(cb.row0, box.row0);
      EXPECT_GE(cb.col0, box.col0);
      EXPECT_LE(cb.row0 + cb.rows, box.row0 + box.rows);
      EXPECT_LE(cb.col0 + cb.cols, box.col0 + box.cols);
      EXPECT_EQ(d->node(c).parent, i);
    }
    EXPECT_EQ(covered, box.size());
    // Arity bound: at most `arity` children, except k-terminated nodes
    // which have exactly box.size() (≤ leafSize) children.
    if (box.size() <= leafSize) {
      EXPECT_EQ(static_cast<int>(n.children.size()), box.size());
    } else {
      EXPECT_LE(static_cast<int>(n.children.size()), arity);
      EXPECT_GE(static_cast<int>(n.children.size()), 2);
    }
  }
  EXPECT_EQ(leaves, m.numNodes());

  // Every processor has a distinct leaf and leafOrder is a permutation.
  std::set<NodeId> seen;
  for (int w = 0; w < m.numNodes(); ++w) {
    const NodeId p = d->procOfRank(w);
    EXPECT_TRUE(seen.insert(p).second);
    EXPECT_EQ(d->rankOf(p), w);
    EXPECT_EQ(d->leafOf(p), d->leafOrder()[w]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DecompositionProperty,
    ::testing::Values(ShapeCase{4, 4, 2, 1}, ShapeCase{4, 4, 4, 1},
                      ShapeCase{8, 8, 16, 1}, ShapeCase{16, 16, 4, 1},
                      ShapeCase{4, 3, 2, 1}, ShapeCase{1, 7, 2, 1},
                      ShapeCase{5, 9, 4, 1}, ShapeCase{8, 8, 2, 4},
                      ShapeCase{8, 8, 4, 16}, ShapeCase{16, 16, 4, 8},
                      ShapeCase{8, 16, 4, 1}, ShapeCase{32, 32, 4, 1}));

TEST(Decomposition, FourAryIsTwoArySkippingLevels) {
  const Grid m(8, 8);
  const auto d2 = decomposeGrid(m, Params{2, 1});
  const auto d4 = decomposeGrid(m, Params{4, 1});
  // Every 4-ary node's box appears at an even depth of the 2-ary tree.
  std::set<std::tuple<int, int, int, int>> evenBoxes;
  for (int i = 0; i < d2->numNodes(); ++i) {
    if (d2->depthOf(i) % 2 == 0) {
      const auto& b = d2->cluster(i);
      evenBoxes.insert({b.row0, b.col0, b.rows, b.cols});
    }
  }
  for (int i = 0; i < d4->numNodes(); ++i) {
    const auto& b = d4->cluster(i);
    EXPECT_TRUE(evenBoxes.contains(std::tuple{b.row0, b.col0, b.rows, b.cols}))
        << "4-ary box not on an even 2-ary level";
  }
}

TEST(Decomposition, LeafSizeTerminationGivesPerProcessorChildren) {
  const auto d = decomposeGrid(Grid(8, 8), Params{2, 4});
  for (int i = 0; i < d->numNodes(); ++i) {
    const auto& n = d->node(i);
    if (n.size > 1 && n.size <= 4) {
      ASSERT_EQ(n.children.size(), static_cast<std::size_t>(n.size));
      for (int c : n.children) EXPECT_TRUE(d->node(c).isLeaf());
    }
  }
}

TEST(Decomposition, FullMeshLeafSizeIsPary) {
  // k = P gives the root P children — the paper's P-ary tree remark.
  const auto d = decomposeGrid(Grid(4, 4), Params{4, 16});
  EXPECT_EQ(d->node(d->root()).children.size(), 16u);
  EXPECT_EQ(d->maxDepth(), 1);
}

TEST(CanonicalLeafOrder, IsAPermutationAndLocal) {
  const MeshTopology m(8, 8);
  const auto order = canonicalLeafOrder(m);
  std::set<NodeId> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), 64u);
  // Locality: consecutive ranks are close in the mesh (within the 2-ary
  // decomposition, rank neighbours share a small submesh). The first and
  // second half occupy disjoint halves of the mesh.
  for (int w = 0; w + 1 < 64; ++w)
    EXPECT_LE(routeOf(m, order[w], order[w + 1]).size(), 8u);
}

class EmbeddingProperty : public ::testing::TestWithParam<EmbeddingKind> {};

TEST_P(EmbeddingProperty, HostsLieInTheirSubmesh) {
  const Grid m(8, 8);
  const auto d = decomposeGrid(m, Params{4, 1});
  for (std::uint64_t x : {1ull, 2ull, 99ull, 12345ull}) {
    for (int n = 0; n < d->numNodes(); ++n) {
      const NodeId h = d->hostOf(n, x, GetParam(), 42);
      EXPECT_TRUE(d->cluster(n).contains(m.coordOf(h)))
          << "tree node " << n << " hosted outside its submesh";
    }
    // Leaves host their own processor.
    for (NodeId p = 0; p < m.numNodes(); ++p)
      EXPECT_EQ(d->hostOf(d->leafOf(p), x, GetParam(), 42), p);
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, EmbeddingProperty,
                         ::testing::Values(EmbeddingKind::Regular,
                                           EmbeddingKind::Random));

TEST(Embedding, DifferentVariablesGetDifferentRoots) {
  const auto d = decomposeGrid(Grid(16, 16), Params{4, 1});
  std::set<NodeId> roots;
  for (std::uint64_t x = 0; x < 64; ++x)
    roots.insert(d->hostOf(d->root(), x, EmbeddingKind::Regular, 7));
  // 64 draws over 256 processors: expect substantial spread.
  EXPECT_GT(roots.size(), 32u);
}

TEST(Embedding, RegularEmbeddingIsParentRelative) {
  // The child of a node hosted at relative position (i, j) sits at
  // (i mod m1, j mod m2) of the child box (paper §2, "practical
  // improvements").
  const Grid m(8, 8);
  const auto d = decomposeGrid(m, Params{2, 1});
  for (std::uint64_t x = 1; x < 16; ++x) {
    for (int n = 0; n < d->numNodes(); ++n) {
      const auto& nd = d->node(n);
      if (nd.parent < 0) continue;
      const Submesh& box = d->cluster(n);
      const Submesh& pb = d->cluster(nd.parent);
      const Coord pc = m.coordOf(d->hostOf(nd.parent, x, EmbeddingKind::Regular, 3));
      const Coord cc = m.coordOf(d->hostOf(n, x, EmbeddingKind::Regular, 3));
      EXPECT_EQ(cc.row - box.row0, (pc.row - pb.row0) % box.rows);
      EXPECT_EQ(cc.col - box.col0, (pc.col - pb.col0) % box.cols);
    }
  }
}

TEST(Embedding, DeterministicAcrossInstances) {
  const auto d = decomposeGrid(Grid(8, 8), Params{4, 1});
  const auto e = decomposeGrid(Grid(8, 8), Params{4, 1});
  for (int n = 0; n < d->numNodes(); ++n)
    EXPECT_EQ(d->hostOf(n, 5, EmbeddingKind::Random, 11),
              e->hostOf(n, 5, EmbeddingKind::Random, 11));
  int differs = 0;
  for (int n = 0; n < d->numNodes(); ++n)
    differs += d->hostOf(n, 5, EmbeddingKind::Random, 11) !=
               d->hostOf(n, 5, EmbeddingKind::Random, 12);
  EXPECT_GT(differs, 0);
}

}  // namespace
}  // namespace diva::net
