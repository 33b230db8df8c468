#include "net/topology_env.hpp"

#include <cstdlib>

#include "net/graph_topology.hpp"

namespace diva::net {

TopologySpec topologyByName(const std::string& name, int rows, int cols,
                            bool requireGrid) {
  DIVA_CHECK_MSG(rows >= 1 && cols >= 1 &&
                     static_cast<std::int64_t>(rows) * cols <= kMaxGraphNodes,
                 "topologyByName: rows/cols must be positive with at most "
                     << kMaxGraphNodes << " nodes (got " << rows << "x" << cols << ")");
  const int procs = rows * cols;
  if (name == "mesh2d") return TopologySpec::mesh2d(rows, cols);
  if (name == "torus2d") return TopologySpec::torus2d(rows, cols);
  DIVA_CHECK_MSG(!requireGrid, "this workload is grid-structured: the topology must be "
                               "mesh2d or torus2d (got '"
                                   << name << "')");
  if (name == "hypercube") {
    int d = 0;
    while ((1 << d) < procs) ++d;
    DIVA_CHECK_MSG((1 << d) == procs,
                   rows << "x" << cols << " is not a hypercube-compatible size");
    return TopologySpec::hypercube(d);
  }
  if (name == "ring") return TopologySpec::graph(ringGraph(procs));
  if (name == "star") return TopologySpec::graph(starGraph(procs));
  if (name == "random-regular")
    return TopologySpec::graph(randomRegularGraph(procs, 4, 1));
  if (name.rfind("graph:", 0) == 0)
    return TopologySpec::graph(loadGraphFile(name.substr(6)));
  // hier-* variants: the same graphs under hierarchical (landmark-ball)
  // routing — sparse state, bounded-stretch routes (docs/routing.md).
  if (name.rfind("hier-", 0) == 0) {
    TopologySpec s = topologyByName(name.substr(5), rows, cols, false);
    DIVA_CHECK_MSG(s.kind == TopologyKind::Graph,
                   "hierarchical routing needs a graph shape (got '" << name << "')");
    s.hierArity = 16;
    return s;
  }
  DIVA_CHECK_MSG(false, "unknown topology name '" << name << "'");
  return {};
}

TopologySpec topologyFromEnv(int rows, int cols, bool requireGrid,
                             const std::string& defaultName) {
  const char* env = std::getenv("DIVA_TOPOLOGY");
  const std::string name =
      (env && *env) ? env : (defaultName.empty() ? "mesh2d" : defaultName);
  return topologyByName(name, rows, cols, requireGrid);
}

}  // namespace diva::net
