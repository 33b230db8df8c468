#pragma once

// Shared helpers for the figure-reproduction benches.
//
// Env knobs:
//   DIVA_FULL=1     — run the paper's full parameter sweeps (slower).
//   DIVA_QUICK=1    — minimal sweeps for smoke-testing.
//   DIVA_TOPOLOGY=  — machine shape for the topology-parameterized benches
//                     (mesh2d default; torus2d, hypercube, ring, star,
//                     random-regular — see topoForSide()).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/barneshut/barneshut.hpp"
#include "apps/bitonic/bitonic.hpp"
#include "apps/matmul/matmul.hpp"
#include "diva/access_tree_strategy.hpp"
#include "diva/machine.hpp"
#include "diva/runtime.hpp"
#include "net/graph_topology.hpp"
#include "net/topology_env.hpp"
#include "support/table.hpp"

namespace diva::bench {

inline bool envFlag(const char* name) {
  const char* v = std::getenv(name);
  return v && *v && std::string(v) != "0";
}

enum class Scale { Quick, Default, Full };

inline Scale scale() {
  if (envFlag("DIVA_QUICK")) return Scale::Quick;
  if (envFlag("DIVA_FULL")) return Scale::Full;
  return Scale::Default;
}

struct StratSpec {
  RuntimeConfig config;
  std::string name;
};

inline StratSpec fixedHome() { return {RuntimeConfig::fixedHome(), "fixed home"}; }
inline StratSpec accessTree(int arity, int leafSize = 1) {
  return {RuntimeConfig::accessTree(arity, leafSize),
          AccessTreeStrategy::variantName(arity, leafSize)};
}

/// "24.52" / "44%"-style cells as in the paper's bar charts.
inline std::string ratioCell(double value, double baseline) {
  return support::fmt(value / baseline, 2);
}

/// The machine shape for a rows×cols sweep point, selected by
/// DIVA_TOPOLOGY. Grid shapes (mesh2d — the default — and torus2d) work
/// for every bench; the non-grid shapes (hypercube, ring, star,
/// random-regular, graph:<file>) — built over P = rows·cols processors —
/// only for benches whose application is not grid-structured (bitonic,
/// Barnes–Hut). Benches that require a grid pass requireGrid = true and
/// fail fast with a clear message otherwise. Name parsing lives in
/// net::topologyFromEnv, shared with the examples and scenario_runner.
inline net::TopologySpec topoForShape(int rows, int cols, bool requireGrid = false) {
  return net::topologyFromEnv(rows, cols, requireGrid);
}

/// Square-machine shorthand for the side×side sweeps.
inline net::TopologySpec topoForSide(int side, bool requireGrid = false) {
  return topoForShape(side, side, requireGrid);
}

/// Machine-readable sweep record consumed by bench/run_bench.sh, which
/// stores the last one per figure in BENCH_engine.json. The named-field
/// form is for benches whose headline ratio is not access-tree vs fixed
/// home (e.g. abl_embedding compares random vs regular embedding).
inline void printDatapoint(const char* fig, const net::TopologySpec& spec,
                           const char* field, double value) {
  std::printf("DATAPOINT %s topology=%s %s=%.4f\n", fig,
              spec.describe().c_str(), field, value);
}

inline void printDatapoint(const char* fig, const net::TopologySpec& spec,
                           double atOverFhTime) {
  printDatapoint(fig, spec, "at_fh_time", atOverFhTime);
}

}  // namespace diva::bench
