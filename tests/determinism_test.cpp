// Golden event-trace regression: a seeded end-to-end run (access-tree
// strategy + barriers, on a mesh and on a graph topology) hashes its
// message-delivery trace (time, node, channel) and compares against a
// committed golden value. A queue rewrite that silently reorders the
// simulated model — even while every self-consistency test still passes —
// changes this hash.
//
// The hash depends only on IEEE double arithmetic evaluated in program
// order (the cost model uses +, *, max), so it is stable across -O levels
// and toolchains on the same FP semantics (x86-64 SSE2, no FMA
// contraction). If a new platform ever legitimately disagrees, regenerate
// the goldens from the values these tests print on failure.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "diva/access_tree_strategy.hpp"
#include "diva/machine.hpp"
#include "diva/runtime.hpp"
#include "net/graph_topology.hpp"
#include "support/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/workload.hpp"

namespace diva {
namespace {

using sim::Task;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

/// Runs the reference workload on `spec` and returns the delivery-trace
/// hash: every processor does seeded compute/read/write rounds separated
/// by barriers, so the trace covers the data-management protocol, the
/// barrier service and the full message pipeline.
std::uint64_t traceHash(const net::TopologySpec& spec) {
  Machine m(spec);
  Runtime rt(m, RuntimeConfig::accessTree(4, 1, /*seed=*/42).on(spec));
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  m.net.setDeliveryProbe([&hash](sim::Time t, NodeId node, net::Channel ch) {
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(t));
    hash = fnv1a(hash, static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)));
    hash = fnv1a(hash, static_cast<std::uint64_t>(ch));
  });

  const NodeId procs = static_cast<NodeId>(m.numProcs());
  std::vector<VarId> vars;
  for (int i = 0; i < 4; ++i) {
    vars.push_back(rt.createVarFree(static_cast<NodeId>((i * 7 + 3) % procs),
                                    makeValue<std::int64_t>(i)));
  }
  for (NodeId p = 0; p < procs; ++p) {
    sim::spawn([](Machine& mm, Runtime& r, NodeId self, std::vector<VarId>& vs) -> Task<> {
      const NodeId procs = static_cast<NodeId>(mm.numProcs());
      support::SplitMix64 rng(support::hashCombine(99, static_cast<std::uint64_t>(self)));
      for (int round = 0; round < 4; ++round) {
        co_await mm.net.compute(self, rng.uniform(0.0, 300.0));
        const VarId v = vs[rng.below(vs.size())];
        // Exactly one writer per round (concurrent writes to a variable
        // are illegal without a lock); everyone else reads concurrently.
        if (self == (round * 5 + 1) % procs) {
          const auto cur = valueAs<std::int64_t>(co_await r.read(self, v));
          co_await r.write(self, v, makeValue<std::int64_t>(cur + self));
        } else {
          (void)co_await r.read(self, v);
        }
        co_await r.barrier(self);
      }
    }(m, rt, p, vars));
  }
  m.run();
  rt.checkAllInvariants();
  return hash;
}

TEST(DeterminismGolden, MeshEventTraceMatchesCommittedHash) {
  const std::uint64_t h = traceHash(net::TopologySpec::mesh2d(4, 4));
  // Committed golden (see file header for when to regenerate).
  const std::uint64_t kGolden = 0x2d6da8c3dd1d75dcull;
  EXPECT_EQ(h, kGolden) << "mesh trace hash changed: 0x" << std::hex << h
                        << " — the simulated model is no longer identical";
}

TEST(DeterminismGolden, GraphEventTraceMatchesCommittedHash) {
  const std::uint64_t h =
      traceHash(net::TopologySpec::graph(net::randomRegularGraph(16, 3, 7)));
  const std::uint64_t kGolden = 0x6abc3cd75895995aull;
  EXPECT_EQ(h, kGolden) << "graph trace hash changed: 0x" << std::hex << h
                        << " — the simulated model is no longer identical";
}

/// Delivery-trace hash of the committed hotspot scenario under the 4-ary
/// access tree: pins the whole workload pipeline — scenario parser, split
/// streams, Zipf sampler (integral exponent: exact arithmetic), driver,
/// strategy, locks, barriers. Editing scenarios/hotspot.scenario or any
/// generator implies regenerating this golden deliberately.
std::uint64_t scenarioTraceHash(const net::TopologySpec& spec, const char* file) {
  const workload::WorkloadSpec wl =
      workload::loadScenarioFile(std::string(DIVA_SCENARIO_DIR) + "/" + file);
  Machine m(spec);
  RuntimeConfig rc = RuntimeConfig::accessTree(4, 1, wl.seed).on(spec);
  Runtime rt(m, rc);
  std::uint64_t hash = 14695981039346656037ull;
  m.net.setDeliveryProbe([&hash](sim::Time t, NodeId node, net::Channel ch) {
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(t));
    hash = fnv1a(hash, static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)));
    hash = fnv1a(hash, static_cast<std::uint64_t>(ch));
  });
  (void)workload::run(m, rt, wl);
  rt.checkAllInvariants();
  return hash;
}

TEST(DeterminismGolden, HotspotScenarioTraceMatchesCommittedHash) {
  const std::uint64_t h =
      scenarioTraceHash(net::TopologySpec::mesh2d(8, 8), "hotspot.scenario");
  const std::uint64_t kGolden = 0x22c46d1f015b5bc6ull;
  EXPECT_EQ(h, kGolden) << "hotspot scenario trace hash changed: 0x" << std::hex << h
                        << " — workload generation or the simulated model moved";
}

TEST(DeterminismGolden, OpenLoopScenarioTraceMatchesCommittedHash) {
  // Pins the open-loop serving pipeline on top of everything the hotspot
  // golden covers: Poisson/burst arrival generation (portableLog — IEEE
  // arithmetic only), trace-file replay, queue-bound shedding and the
  // scheduled-arrival driver. Editing scenarios/openloop.scenario or
  // scenarios/sample.trace implies regenerating this golden deliberately.
  const std::uint64_t h =
      scenarioTraceHash(net::TopologySpec::mesh2d(8, 8), "openloop.scenario");
  const std::uint64_t kGolden = 0x56f64c3f9578eeeeull;
  EXPECT_EQ(h, kGolden) << "openloop scenario trace hash changed: 0x" << std::hex << h
                        << " — arrival generation or the serving driver moved";
}

/// Byte-wise FNV-1a of a string (the report digests below).
std::uint64_t fnv1aBytes(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// What a committed scenario run leaves behind: its delivery-trace hash
/// and an FNV digest of its `reportJson` bytes.
struct ScenarioFingerprint {
  std::uint64_t deliveries = 0;
  std::uint64_t report = 0;
  std::uint64_t evictions = 0;
};

/// Runs `file` under `rc` on `spec` the way runOn does (the scenario's
/// seed and cache bound applied), with the delivery probe attached.
ScenarioFingerprint scenarioFingerprint(const net::TopologySpec& spec, const char* file,
                                        RuntimeConfig rc) {
  const workload::WorkloadSpec wl =
      workload::loadScenarioFile(std::string(DIVA_SCENARIO_DIR) + "/" + file);
  Machine m(spec);
  rc.seed = wl.seed;
  rc.cacheCapacityBytes = wl.cacheBytes ? wl.cacheBytes : ~0ull;
  Runtime rt(m, rc.on(spec));
  std::uint64_t hash = 14695981039346656037ull;
  m.net.setDeliveryProbe([&hash](sim::Time t, NodeId node, net::Channel ch) {
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(t));
    hash = fnv1a(hash, static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)));
    hash = fnv1a(hash, static_cast<std::uint64_t>(ch));
  });
  const workload::WorkloadReport r = workload::run(m, rt, wl);
  rt.checkAllInvariants();
  return {hash, fnv1aBytes(workload::reportJson(r)), m.stats.ops.evictions};
}

/// Goldens for the committed scenarios under both strategies. The churn
/// and elastic delivery hashes pin the drivers' crashed-issuer retry path
/// and the reconfiguration path (which no other golden reaches), and
/// crash_reconfig pins crash repair and epoch migration parked on the
/// same objects and drained together; the
/// report digests pin every counter the report derives from the run. The
/// access-tree hotspot and openloop delivery hashes repeat the goldens
/// above, which cross-checks this harness against theirs. shift is the
/// one committed bounded-cache scenario: its rows pin LRU replacement
/// under fixed home and under tree shapes where one processor hosts
/// several tree nodes of a variable, and each must actually evict.
struct ScenarioGolden {
  const char* file;
  int arity;     ///< access-tree arity ℓ, or 0 for fixed home
  int leafSize;  ///< access-tree leaf size k (1 = pure ℓ-ary)
  std::uint64_t deliveries;
  std::uint64_t report;
};

constexpr ScenarioGolden kScenarioGoldens[] = {
    {"hotspot.scenario", 4, 1, 0x22c46d1f015b5bc6ull, 0x68896ec8bdc471d6ull},
    {"hotspot.scenario", 0, 1, 0xb842fc41e124d5f2ull, 0xf2092f22dae8cf0aull},
    {"churn.scenario", 4, 1, 0x701871b8e12beabcull, 0xefd1edbb90c06b9cull},
    {"churn.scenario", 0, 1, 0x2287725c71aae5a4ull, 0x9eae232887b0a032ull},
    {"elastic.scenario", 4, 1, 0xc80c809220af3d21ull, 0xe25737a2f660dccaull},
    {"elastic.scenario", 0, 1, 0x0e17631974b43e27ull, 0x959b4ff3f2b64d08ull},
    {"openloop.scenario", 4, 1, 0x56f64c3f9578eeeeull, 0x989643822e6cac79ull},
    {"openloop.scenario", 0, 1, 0xaee2e81354e8ba67ull, 0x1a093cd0422e8e90ull},
    {"crash_reconfig.scenario", 4, 1, 0x44ca0f392bc50baaull, 0x68b344589ae42c14ull},
    {"crash_reconfig.scenario", 0, 1, 0x1095e4bf52cbed8eull, 0x12975fc602ec0b00ull},
    {"shift.scenario", 0, 1, 0x6635fdfb09521829ull, 0x5a0ce064cca8e383ull},
    {"shift.scenario", 2, 1, 0x366e155bf9686b5dull, 0x33b754e1ab67d4e4ull},
    {"shift.scenario", 4, 1, 0x3745c8c57c5f34eaull, 0x829e2a827f2800f6ull},
    {"shift.scenario", 16, 1, 0xc90a4f69d3af5534ull, 0x54ae85f9f1fe40e7ull},
    {"shift.scenario", 4, 16, 0x7eb693f8a12d1b2aull, 0x3d5b24ffd50231ceull},
};

TEST(DeterminismGolden, ScenarioDeliveriesAndReportsMatchCommittedDigests) {
  for (const ScenarioGolden& g : kScenarioGoldens) {
    // elastic and crash_reconfig run on the shape scenario_runner resolves
    // for their `topology random-regular` line at 16 procs; the rest on
    // the 8×8 mesh.
    const std::string file = g.file;
    const bool graph = file == "elastic.scenario" || file == "crash_reconfig.scenario";
    const net::TopologySpec spec =
        graph ? net::TopologySpec::graph(net::randomRegularGraph(16, 4, 1))
              : net::TopologySpec::mesh2d(8, 8);
    const RuntimeConfig rc = g.arity ? RuntimeConfig::accessTree(g.arity, g.leafSize)
                                     : RuntimeConfig::fixedHome();
    const ScenarioFingerprint f = scenarioFingerprint(spec, g.file, rc);
    const std::string strategy =
        g.arity ? AccessTreeStrategy::variantName(g.arity, g.leafSize) : "fixed home";
    if (file == "shift.scenario") {
      EXPECT_GT(f.evictions, 0u) << g.file << " under " << strategy << " never evicted";
    }
    EXPECT_EQ(f.deliveries, g.deliveries) << g.file << " under " << strategy
                                          << ": delivery trace hash changed: 0x"
                                          << std::hex << f.deliveries;
    EXPECT_EQ(f.report, g.report) << g.file << " under " << strategy
                                  << ": reportJson digest changed: 0x" << std::hex
                                  << f.report;
  }
}

TEST(DeterminismGolden, TraceHashIsRunToRunStable) {
  // Guards the harness itself: two runs in one process must agree (no
  // address-dependent or allocation-order-dependent inputs leak in).
  const auto spec = net::TopologySpec::mesh2d(4, 4);
  EXPECT_EQ(traceHash(spec), traceHash(spec));
}

}  // namespace
}  // namespace diva
