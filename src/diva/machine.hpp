#pragma once

#include <memory>

#include "diva/stats.hpp"
#include "net/cost_model.hpp"
#include "net/mesh_topology.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"

namespace diva {

/// One simulated machine: event engine, network topology, measurement
/// state and the message-passing network. Applications and the DIVA
/// runtime are built on top of a Machine; hand-optimized message-passing
/// baselines use the Machine directly.
struct Machine {
  /// Any topology: `Machine m(net::TopologySpec::torus2d(8, 8));`
  explicit Machine(const net::TopologySpec& spec,
                   net::CostModel cost = net::CostModel::gcel())
      : topology(net::makeTopology(spec)),
        stats(*topology),
        net(engine, *topology, cost, stats.links) {}

  /// 2-D mesh shorthand (the Parsytec GCel network shape of the paper).
  Machine(int rows, int cols, net::CostModel cost = net::CostModel::gcel())
      : Machine(net::TopologySpec::mesh2d(rows, cols), cost) {}

  sim::Engine engine;
  std::unique_ptr<net::Topology> topology;
  Stats stats;
  net::Network net;

  const net::Topology& topo() const { return *topology; }
  int numProcs() const { return topology->numNodes(); }

  /// Grid-coordinate access for 2-D-structured applications (matmul's
  /// block layout, congestion heat maps). Valid for mesh and torus
  /// machines; throws CheckError on shapes without grid coordinates.
  const net::Grid& mesh() const {
    const auto* grid = dynamic_cast<const net::MeshTopology*>(topology.get());
    DIVA_CHECK_MSG(grid != nullptr, "machine topology " << topology->name()
                                                        << " has no 2-D grid coordinates");
    return grid->grid();
  }

  /// Run the simulation to quiescence and close phase accounting.
  sim::Time run() {
    const sim::Time t = engine.run();
    stats.closePhases(t);
    return t;
  }
};

}  // namespace diva
