// Ablation (paper §2, "practical improvements"): the theoretical fully
// random embedding vs the practical parent-relative ("regular")
// embedding of access tree nodes. The paper argues the regular embedding
// shortens expected tree-edge routes without observable downsides; this
// bench quantifies that on matrix multiplication and bitonic sorting.

#include <cstdio>

#include "bench_common.hpp"

using namespace diva;
using namespace diva::bench;
namespace mm = diva::apps::matmul;
namespace bs = diva::apps::bitonic;

int main() {
  const int side = scale() == Scale::Quick ? 8 : 16;
  const net::TopologySpec topo = topoForSide(side, /*requireGrid=*/true);

  std::printf("Ablation — random vs regular access tree embedding (%dx%d mesh)\n\n",
              side, side);
  support::Table table({"application", "embedding", "congestion [KB]", "time [s]",
                        "total traffic [MB]"});

  double regularTime = 0, randomTime = 0;
  for (const auto kind : {net::EmbeddingKind::Regular, net::EmbeddingKind::Random}) {
    const char* name = kind == net::EmbeddingKind::Regular ? "regular" : "random";
    RuntimeConfig rc = RuntimeConfig::accessTree(4, 1);
    rc.embedding = kind;
    double& timeSum = kind == net::EmbeddingKind::Regular ? regularTime : randomTime;

    {
      mm::Config cfg;
      cfg.blockInts = 1024;
      Machine m(topo, net::CostModel::gcel().withoutCompute());
      Runtime rt(m, rc.on(topo));
      const auto r = mm::runDiva(m, rt, cfg);
      timeSum += r.timeUs;
      table.addRow({"matmul", name, support::fmt(r.congestionBytes / 1e3, 0),
                    support::fmt(r.timeUs / 1e6, 2),
                    support::fmt(r.totalBytes / 1e6, 1)});
    }
    {
      bs::Config cfg;
      cfg.keysPerProc = 1024;
      Machine m(topo);
      Runtime rt(m, rc.on(topo));
      const auto r = bs::runDiva(m, rt, cfg);
      timeSum += r.timeUs;
      table.addRow({"bitonic", name, support::fmt(r.congestionBytes / 1e3, 0),
                    support::fmt(r.timeUs / 1e6, 2),
                    support::fmt(r.totalBytes / 1e6, 1)});
    }
  }
  table.print();

  // Headline ratio for BENCH_engine.json: theoretical random embedding vs
  // the practical regular embedding, both apps' times summed — there is
  // no fixed-home leg here, so the datapoint carries its own field name.
  printDatapoint("abl_embedding", topo, "random_regular_time",
                 randomTime / regularTime);
  return 0;
}
