#include "net/hypercube_topology.hpp"

#include <bit>

namespace diva::net {

HypercubeTopology::HypercubeTopology(int dims) : dims_(dims) {
  DIVA_CHECK_MSG(dims >= 0 && dims <= 20, "hypercube dimension out of range");
}

void HypercubeTopology::appendRoute(NodeId from, NodeId to, RouteVec& out) const {
  // Pure-arithmetic e-cube walk: flip differing bits lowest-first. At most
  // `dims_` hops, so routes stay within the inline buffer up to 2^16 nodes.
  NodeId cur = from;
  NodeId diff = from ^ to;
  while (diff != 0) {
    const int bit = std::countr_zero(static_cast<std::uint32_t>(diff));
    const NodeId next = cur ^ (NodeId{1} << bit);
    out.push_back(Hop{linkIndex(cur, bit), next});
    cur = next;
    diff &= diff - 1;
  }
}

}  // namespace diva::net
