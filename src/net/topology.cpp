#include "net/topology.hpp"

#include <sstream>

#include "net/graph_topology.hpp"
#include "net/hier_routing.hpp"
#include "net/hypercube_topology.hpp"
#include "net/mesh_topology.hpp"
#include "net/torus_topology.hpp"

namespace diva::net {

const char* topologyKindName(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::Mesh2D: return "mesh2d";
    case TopologyKind::Torus2D: return "torus2d";
    case TopologyKind::Hypercube: return "hypercube";
    case TopologyKind::Graph: return "graph";
  }
  return "?";
}

std::string TopologySpec::describe() const {
  std::ostringstream os;
  os << topologyKindName(kind);
  if (kind == TopologyKind::Hypercube) {
    os << '-' << a << 'd';
  } else if (kind == TopologyKind::Graph) {
    os << '-' << (graphSpec ? graphSpec->name : std::string("unset"));
    if (hierArity > 0) os << "-hier" << hierArity;
  } else {
    os << '-' << a << 'x' << b;
  }
  return os.str();
}

void ClusterTree::finalize(int numProcs) {
  DIVA_CHECK(!nodes_.empty() && leafProc_.size() == nodes_.size());
  leafOfProc_.assign(numProcs, -1);
  rankOfProc_.assign(numProcs, -1);
  leafOrder_.clear();
  leafOrder_.reserve(static_cast<std::size_t>(numProcs));
  maxDepth_ = 0;
  // Left-to-right DFS fixes the canonical leaf order independently of the
  // order in which a builder happened to append nodes.
  std::vector<int> stack{root()};
  while (!stack.empty()) {
    const int n = stack.back();
    stack.pop_back();
    maxDepth_ = std::max(maxDepth_, nodes_[n].depth);
    if (nodes_[n].isLeaf()) {
      const NodeId p = leafProc_[n];
      DIVA_CHECK_MSG(p >= 0 && p < numProcs, "leaf without a processor");
      DIVA_CHECK_MSG(leafOfProc_[p] < 0, "processor " << p << " has two leaves");
      leafOfProc_[p] = n;
      leafOrder_.push_back(n);
      continue;
    }
    for (auto it = nodes_[n].children.rbegin(); it != nodes_[n].children.rend(); ++it)
      stack.push_back(*it);
  }
  // Leaves cover each processor at most once. A tree over an elastic
  // (reconfigured) machine covers only the *member* processors — retired
  // ids keep leafOf/rankOf = -1 — so coverage may be partial, but never
  // empty and never larger than the processor set.
  DIVA_CHECK_MSG(!leafOrder_.empty() &&
                     static_cast<int>(leafOrder_.size()) <= numProcs,
                 "decomposition leaves do not fit the processor set");
  for (int w = 0; w < static_cast<int>(leafOrder_.size()); ++w)
    rankOfProc_[procOfLeaf(leafOrder_[w])] = w;
}

int ClusterTree::childToward(int treeNode, NodeId p) const {
  int cur = leafOf(p);
  while (cur >= 0) {
    const int par = nodes_[cur].parent;
    if (par == treeNode) return cur;
    cur = par;
  }
  return -1;
}

std::unique_ptr<Topology> makeTopology(const TopologySpec& spec) {
  switch (spec.kind) {
    case TopologyKind::Mesh2D:
    case TopologyKind::Torus2D:
      DIVA_CHECK_MSG(spec.a >= 1 && spec.b >= 1 &&
                         static_cast<std::int64_t>(spec.a) * spec.b <= kMaxGraphNodes,
                     topologyKindName(spec.kind)
                         << " sides must be positive with at most " << kMaxGraphNodes
                         << " nodes (got " << spec.a << "x" << spec.b << ")");
      if (spec.kind == TopologyKind::Torus2D)
        return std::make_unique<TorusTopology>(spec.a, spec.b);
      return std::make_unique<MeshTopology>(spec.a, spec.b);
    case TopologyKind::Hypercube:
      DIVA_CHECK_MSG(spec.a >= 0 && spec.a <= 20,
                     "hypercube dimension must be in [0, 20] (got " << spec.a << ")");
      return std::make_unique<HypercubeTopology>(spec.a);
    case TopologyKind::Graph:
      DIVA_CHECK_MSG(spec.graphSpec != nullptr, "graph topology spec without a graph");
      if (spec.hierArity > 0)
        return std::make_unique<HierGraphTopology>(spec.graphSpec, spec.hierArity);
      return std::make_unique<GraphTopology>(spec.graphSpec);
  }
  DIVA_CHECK_MSG(false, "unknown topology kind");
  return nullptr;
}

std::vector<NodeId> canonicalLeafOrder(const Topology& topo) {
  const auto tree = topo.decompose(DecompParams{2, 1});
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(topo.numNodes()));
  for (int leaf : tree->leafOrder()) order.push_back(tree->procOfLeaf(leaf));
  return order;
}

std::vector<Hop> routeOf(const Topology& topo, NodeId from, NodeId to) {
  RouteVec buf;
  topo.appendRoute(from, to, buf);
  return std::vector<Hop>(buf.begin(), buf.end());
}

}  // namespace diva::net
