// Elastic-machine tests (docs/faults.md "Reconfiguration"): live
// grow/rewire/shrink at the network layer, scenario `reconfig`
// round-trips, run-time validation against the evolving shape,
// strategy-state migration under randomized reconfiguration on several
// topologies and routing modes, the drivers' retirement rules, trace
// capture round-trips, and the committed elastic scenario.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "diva/machine.hpp"
#include "diva/runtime.hpp"
#include "net/fault.hpp"
#include "net/graph_topology.hpp"
#include "net/network.hpp"
#include "serve/trace.hpp"
#include "sim/task.hpp"
#include "support/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/workload.hpp"

namespace diva {
namespace {

using sim::Task;

// ---------------------------------------------------------------------------
// Network layer: structural events, membership, epochs
// ---------------------------------------------------------------------------

TEST(Reconfig, GrowRewireShrinkUpdatesMembership) {
  sim::Engine engine;
  net::GraphTopology topo(net::ringGraph(8));
  net::LinkStats stats(topo.numLinkSlots());
  net::Network net(engine, topo, net::CostModel::gcel(), stats);
  EXPECT_EQ(net.numMembers(), 8);
  EXPECT_EQ(net.reconfigEpoch(), 0);

  const net::NodeId a = net.addNode(0);
  const net::NodeId b = net.addNode(4);
  EXPECT_EQ(a, 8);
  EXPECT_EQ(b, 9);
  engine.run();  // deliver the (coalesced) epoch notification
  EXPECT_EQ(net.numMembers(), 10);
  EXPECT_TRUE(net.nodeMember(a));
  EXPECT_GE(net.reconfigEpoch(), 1);

  net.addLink(a, b);
  net.removeLink(0, a);  // a stays connected through b
  engine.run();
  net.commitReconfig();

  // Messages route across the new edges.
  int got = 0;
  net.setHandler(b, net::kFirstAppChannel, [&](net::Message&& m) { got = m.as<int>(); });
  net.post(net::Message{a, b, net::kFirstAppChannel, 64, 5});
  engine.run();
  EXPECT_EQ(got, 5);

  net.removeNode(a);
  net.removeNode(b);
  engine.run();
  net.commitReconfig();
  EXPECT_EQ(net.numMembers(), 8);
  EXPECT_FALSE(net.nodeMember(a));
  // Ids are never reused: the next node gets a fresh id.
  EXPECT_EQ(net.addNode(1), 10);
}

TEST(Reconfig, DisconnectingRemovalThrows) {
  sim::Engine engine;
  net::GraphTopology topo(net::gridGraph(1, 3));  // path 0-1-2: 1 is a bridge node
  net::LinkStats stats(topo.numLinkSlots());
  net::Network net(engine, topo, net::CostModel::gcel(), stats);
  EXPECT_THROW(net.removeNode(1), support::CheckError);
  EXPECT_THROW(net.removeLink(0, 1), support::CheckError);
  // Leaf removal is fine.
  net.removeNode(2);
  engine.run();
  EXPECT_EQ(net.numMembers(), 2);
}

TEST(Reconfig, FirstMemberFromWrapsAndSkipsRejectedNodes) {
  sim::Engine engine;
  net::GraphTopology topo(net::ringGraph(8));
  net::LinkStats stats(topo.numLinkSlots());
  net::Network net(engine, topo, net::CostModel::gcel(), stats);
  net.removeNode(6);         // retired: never a successor
  net.setNodeUp(7, false);   // down: a member, rejected by liveness predicates
  const auto live = [&](net::NodeId q) { return net.nodeUp(q); };

  EXPECT_EQ(net.firstMemberFrom(3), 3) << "the start id is inclusive";
  EXPECT_EQ(net.firstMemberFrom(6), 7) << "retired skipped, down accepted";
  EXPECT_EQ(net.firstMemberFrom(6, live), 0) << "wraps past the last id";
  EXPECT_EQ(net.firstMemberFrom(8, live), 0) << "a start one past the end wraps";
  EXPECT_EQ(net.firstMemberFrom(6, [&](net::NodeId q) { return live(q) && q >= 2; }), 2);

  EXPECT_THROW(net.firstMemberFrom(0, [](net::NodeId) { return false; }),
               support::CheckError);
  EXPECT_THROW(net.firstMemberFrom(0, [](net::NodeId q) { return q == 6; }),
               support::CheckError)
      << "a retired node never qualifies";
}

// ---------------------------------------------------------------------------
// Scenario format: `reconfig` directive
// ---------------------------------------------------------------------------

TEST(ReconfigScenario, ReconfigDirectivesRoundTrip) {
  const std::string text =
      "scenario elastic-mini\n"
      "objects 8 128\n"
      "procs 8\n"
      "phase a\n"
      "rounds 2\n"
      "reconfig 100 add-node 0\n"
      "reconfig 150 add-node 1 2.5 1.5\n"
      "reconfig 200 add-link 8 9\n"
      "reconfig 300 remove-link 0 8\n"
      "reconfig 400 remove-node 8\n"
      "fault 500 node-down 2\n";
  const workload::WorkloadSpec spec = workload::parseScenario(text);
  ASSERT_EQ(spec.phases.size(), 1u);
  const net::FaultPlan& plan = spec.phases[0].faults;
  ASSERT_EQ(plan.size(), 6u);
  EXPECT_EQ(plan[0].kind, net::FaultEvent::Kind::AddNode);
  EXPECT_EQ(plan[0].a, 0);
  EXPECT_EQ(plan[1].kind, net::FaultEvent::Kind::AddNode);
  EXPECT_DOUBLE_EQ(plan[1].weightMul, 2.5);   // new-edge weight
  EXPECT_DOUBLE_EQ(plan[1].latencyMul, 1.5);  // new-edge latency
  EXPECT_EQ(plan[2].kind, net::FaultEvent::Kind::AddLink);
  EXPECT_EQ(plan[2].a, 8);
  EXPECT_EQ(plan[2].b, 9);
  EXPECT_EQ(plan[3].kind, net::FaultEvent::Kind::RemoveLink);
  EXPECT_EQ(plan[4].kind, net::FaultEvent::Kind::RemoveNode);
  EXPECT_TRUE(net::isStructural(plan[0].kind));
  EXPECT_FALSE(net::isStructural(plan[5].kind));
  // Line numbers survive the parse (run-time validation points at them).
  EXPECT_EQ(plan[0].line, 6);
  EXPECT_EQ(plan[4].line, 10);
  EXPECT_EQ(workload::parseScenario(workload::formatScenario(spec)), spec);
}

TEST(ReconfigScenario, MalformedReconfigLinesRejectedWithLineNumbers) {
  auto expectThrowContaining = [](const std::string& text, const std::string& needle) {
    try {
      (void)workload::parseScenario(text);
      FAIL() << "expected CheckError for: " << text;
    } catch (const support::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message '" << e.what() << "' lacks '" << needle << "'";
    }
  };
  const std::string head = "objects 8\nphase a\n";
  expectThrowContaining("objects 8\nreconfig 10 add-node 1\nphase a\n",
                        "before any 'phase'");
  expectThrowContaining(head + "reconfig 10 shapeshift 1\n", "unknown reconfig kind");
  expectThrowContaining(head + "reconfig -5 add-node 1\n", "must be >= 0");
  expectThrowContaining(head + "reconfig 10 add-node 1 0 1\n", "must be positive");
  expectThrowContaining(head + "reconfig 10 remove-node 1 2\n", "trailing token");
  expectThrowContaining(head + "reconfig 10 add-link 1\n", "line 3");
}

TEST(ReconfigScenario, CommittedElasticScenarioParses) {
  const workload::WorkloadSpec spec =
      workload::loadScenarioFile(std::string(DIVA_SCENARIO_DIR) + "/elastic.scenario");
  EXPECT_EQ(spec.name, "elastic");
  EXPECT_EQ(spec.procs, 16);
  int structural = 0;
  for (const auto& ph : spec.phases)
    for (const auto& ev : ph.faults) structural += net::isStructural(ev.kind) ? 1 : 0;
  EXPECT_EQ(structural, 21);  // 8 add-node + 4 add-link + 1 remove-link + 8 remove-node
}

// ---------------------------------------------------------------------------
// Run-time validation against the evolving shape
// ---------------------------------------------------------------------------

workload::WorkloadSpec tinySpecWithEvents(const std::string& events) {
  return workload::parseScenario(
      "scenario v\n"
      "objects 4\n"
      "phase a\n"
      "rounds 1\n" +
      events);
}

TEST(ReconfigWorkload, EndpointsValidatedAgainstEvolvingShape) {
  // The machine starts with 8 nodes; node 8 only exists because the
  // add-node fires first. Both the structural add-link and the
  // non-structural node-down must range-check against the grown shape.
  const workload::WorkloadSpec ok = tinySpecWithEvents(
      "reconfig 10 add-node 0\n"
      "reconfig 20 add-link 8 4\n"
      "fault 30 node-down 8\n"
      "fault 40 node-up 8\n");
  const workload::WorkloadReport r = workload::runOn(
      net::TopologySpec::graph(net::ringGraph(8)), RuntimeConfig::fixedHome(), ok);
  EXPECT_TRUE(r.reconfigured);
  EXPECT_TRUE(r.faulted);

  // A retired node keeps its links until the phase-end commit, so they
  // can still fail and heal inside its handoff window.
  const workload::WorkloadReport h = workload::runOn(
      net::TopologySpec::graph(net::ringGraph(8)), RuntimeConfig::fixedHome(),
      tinySpecWithEvents("reconfig 10 remove-node 3\n"
                         "fault 20 link-down 3 4\n"
                         "fault 30 link-up 3 4\n"));
  EXPECT_TRUE(h.reconfigured);

  // Id 9 never exists: rejected before the run starts, naming the line.
  const workload::WorkloadSpec bad = tinySpecWithEvents(
      "reconfig 10 add-node 0\n"
      "reconfig 20 add-link 9 4\n");
  try {
    (void)workload::runOn(net::TopologySpec::graph(net::ringGraph(8)),
                          RuntimeConfig::fixedHome(), bad);
    FAIL() << "expected CheckError";
  } catch (const support::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("scenario line 6"), std::string::npos) << msg;
  }
}

/// Runs `spec` through workload::run on a machine the caller owns. A
/// rejected plan must fail before the engine advanced: the pre-flight
/// replays it through the same ShapeModel checks the run would hit.
/// Returns the error message, or "" when the run completed.
std::string runOrReject(const net::TopologySpec& topo, const RuntimeConfig& config,
                        const workload::WorkloadSpec& spec) {
  Machine m(topo);
  Runtime rt(m, config);
  try {
    (void)workload::run(m, rt, spec);
  } catch (const support::CheckError& e) {
    EXPECT_EQ(m.engine.now(), 0.0) << e.what();
    EXPECT_TRUE(m.engine.idle()) << e.what();
    return e.what();
  }
  rt.checkAllInvariants();
  return "";
}

TEST(ReconfigWorkload, DisconnectingRemovalsRejectedWithLineNumbers) {
  for (const char* events : {"reconfig 10 remove-node 1\n", "reconfig 10 remove-link 0 1\n"}) {
    SCOPED_TRACE(events);
    const std::string msg = runOrReject(net::TopologySpec::graph(net::gridGraph(1, 3)),
                                        RuntimeConfig::fixedHome(),
                                        tinySpecWithEvents(events));
    EXPECT_NE(msg.find("disconnect"), std::string::npos) << msg;
    EXPECT_NE(msg.find("scenario line 5"), std::string::npos) << msg;
  }
}

TEST(ShapePreflight, InvalidPlansRejectedBeforeTheEngineAdvances) {
  // Each plan would throw partway through the run; every one must be
  // rejected up front, naming its scenario line (events start on line 5).
  struct Case {
    net::TopologySpec topo;
    const char* events;
    const char* needle;
    int line;
  };
  const std::vector<Case> cases = {
      {net::TopologySpec::mesh2d(4, 4), "fault 1 node-down 99\n", "out of range", 5},
      // 0 and 5 are diagonal on a 4x4 mesh.
      {net::TopologySpec::mesh2d(4, 4), "fault 100 link-down 0 5\n", "not adjacent", 5},
      {net::TopologySpec::graph(net::ringGraph(2)),
       "reconfig 100 remove-node 1\nreconfig 100 remove-node 0\n", "empty the machine", 6},
      {net::TopologySpec::mesh2d(2, 2),
       "fault 100 node-down 0\nfault 100 node-down 1\n"
       "fault 100 node-down 2\nfault 100 node-down 3\n",
       "no live member", 8},
      // Retiring the last live member leaves nothing to host the objects.
      {net::TopologySpec::graph(net::ringGraph(3)),
       "fault 100 node-down 0\nfault 100 node-down 1\nreconfig 200 remove-node 2\n",
       "no live member", 7},
      // Node 8 joins at once but is routable only once the epoch is
      // delivered at the end of the instant.
      {net::TopologySpec::graph(net::ringGraph(8)),
       "reconfig 100 add-node 0\nfault 100 node-down 8\n", "out of range", 6},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.events);
    const std::string msg =
        runOrReject(c.topo, RuntimeConfig::fixedHome(), tinySpecWithEvents(c.events));
    EXPECT_NE(msg.find(c.needle), std::string::npos) << msg;
    EXPECT_NE(msg.find("scenario line " + std::to_string(c.line)), std::string::npos)
        << msg;
  }
}

TEST(ShapePreflight, RandomPlansAreRejectedUpFrontOrRunClean) {
  // Agreement between the pre-flight and the run on random plans over
  // all nine kinds: several events per instant, link faults on the
  // edges of nodes that may be retiring (their handoff window lasts to
  // the phase end). Every plan is either rejected before the engine
  // advances or runs to completion with every invariant intact.
  //
  // Transient faults heal later in their phase, as the fault model
  // means them to: a cut that never heals strands the messages that
  // need it by design (docs/faults.md), and a crash that never heals
  // exposes two fixed-home defects still open in ROADMAP.md.
  const net::GraphSpec g = net::randomRegularGraph(8, 3, 11);
  const char* kinds[] = {"fault %d link-down %d %d\n", "fault %d link-up %d %d\n",
                         "fault %d node-down %d\n",    "fault %d node-up %d\n",
                         "fault %d degrade %d %d 2 3\n", "reconfig %d add-node %d\n",
                         "reconfig %d remove-node %d\n", "reconfig %d add-link %d %d\n",
                         "reconfig %d remove-link %d %d\n"};
  int rejected = 0;
  int ran = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    support::SplitMix64 rng(seed);
    std::string text = "scenario agree\nobjects 8\n";
    for (int p = 0; p < 2; ++p) {
      text += "phase p" + std::to_string(p) + "\nrounds 3\nreads 0.6\n";
      const int events = 2 + static_cast<int>(rng.below(5));
      for (int e = 0; e < events; ++e) {
        const int at = 100 * (1 + static_cast<int>(rng.below(3)));
        const auto k = rng.below(9);
        // Ids reach two past the starting machine (add-node targets).
        // Link faults and removals mostly name an edge of the starting
        // graph; add-link mostly a fresh pair.
        int a = static_cast<int>(rng.below(10));
        int b = static_cast<int>(rng.below(10));
        if (k != 7 && rng.uniform() < 0.8) {
          const net::GraphSpec::Edge& ed = g.edges[rng.below(g.edges.size())];
          a = ed.u;
          b = ed.v;
        }
        char line[64];
        std::snprintf(line, sizeof line, kinds[k], at, a, b);
        text += line;
        if (k == 0 || k == 2) {  // link-down / node-down: the matching up
          std::snprintf(line, sizeof line, kinds[k + 1], at + 300, a, b);
          text += line;
        }
      }
    }
    const workload::WorkloadSpec spec = workload::parseScenario(text);
    for (const RuntimeConfig& config :
         {RuntimeConfig::fixedHome(), RuntimeConfig::accessTree(4, 1)}) {
      SCOPED_TRACE(text);
      const std::string msg = runOrReject(net::TopologySpec::graph(g), config, spec);
      (msg.empty() ? ran : rejected) += 1;
    }
  }
  // Both outcomes must be common, or the property says little.
  EXPECT_GE(ran, 10);
  EXPECT_GE(rejected, 10);
}

TEST(ShapePreflight, ProxyEntryLeafHoldingACopyServesInPlace) {
  // A plan the random generator found: node 8 joins while a variable
  // still sits on its superseded access tree, so node 8's request enters
  // through a proxy leaf — here one that already holds a copy. It must
  // be served in place (a one-node tree path), not trip an assertion.
  const workload::WorkloadSpec spec = workload::parseScenario(
      "scenario proxy\nobjects 8\n"
      "phase p0\nrounds 3\nreads 0.6\n"
      "reconfig 100 add-link 4 3\nreconfig 100 remove-node 1\n"
      "fault 300 degrade 3 6 2 3\n"
      "phase p1\nrounds 3\nreads 0.6\n"
      "reconfig 200 add-node 2\n");
  EXPECT_EQ(runOrReject(net::TopologySpec::graph(net::randomRegularGraph(8, 3, 11)),
                        RuntimeConfig::accessTree(4, 1), spec),
            "");
}

TEST(ReconfigWorkload, NonGraphTopologyRejected) {
  try {
    (void)workload::runOn(net::TopologySpec::mesh2d(2, 2), RuntimeConfig::fixedHome(),
                          tinySpecWithEvents("reconfig 10 add-node 0\n"));
    FAIL() << "expected CheckError";
  } catch (const support::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("graph-backed"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Strategy-state migration: randomized grow/rewire/shrink property test
// ---------------------------------------------------------------------------

std::int64_t readInt(Machine& m, Runtime& rt, NodeId p, VarId x) {
  std::int64_t out = 0;
  sim::spawn([](Runtime& r, NodeId n, VarId v, std::int64_t& o) -> Task<> {
    o = valueAs<std::int64_t>(co_await r.read(n, v));
  }(rt, p, x, out));
  m.engine.run();
  return out;
}

void writeInt(Machine& m, Runtime& rt, NodeId p, VarId x, std::int64_t v) {
  sim::spawn([](Runtime& r, NodeId n, VarId var, std::int64_t val) -> Task<> {
    co_await r.write(n, var, makeValue(val));
  }(rt, p, x, v));
  m.engine.run();
}

struct ReconfigStratCase {
  RuntimeConfig config;
  const char* label;
};

class ReconfigStrategyTest : public ::testing::TestWithParam<ReconfigStratCase> {};

TEST_P(ReconfigStrategyTest, RandomizedGrowRewireShrinkQuiescence) {
  // The ISSUE's property test: on three shapes under both routing modes,
  // interleave random reads/writes with grow → rewire → shrink epochs.
  // After every epoch no object may be lost or dually owned and every
  // object must be managed by the new access tree (checkAllInvariants
  // enforces the superseded-context check); at the end every object
  // reads back its last written value on the shrunken machine.
  struct Shape {
    net::GraphSpec graph;
    const char* label;
  };
  const std::vector<Shape> shapes = {
      {net::gridGraph(4, 4), "mesh"},
      {net::ringGraph(16), "ring"},
      {net::randomRegularGraph(16, 3, 7), "rr"},
  };
  for (const Shape& shape : shapes) {
    for (const bool hier : {false, true}) {
      SCOPED_TRACE(std::string(shape.label) + (hier ? "/hier" : "/dense"));
      Machine m(hier ? net::TopologySpec::hierGraph(shape.graph, 4)
                     : net::TopologySpec::graph(shape.graph));
      Runtime rt(m, GetParam().config);
      const int base = m.numProcs();
      support::SplitMix64 rng(0xE1A5 ^ static_cast<std::uint64_t>(base) ^
                              (hier ? 0x8000u : 0u));
      std::vector<VarId> vars;
      std::vector<std::int64_t> truth;
      for (int i = 0; i < 10; ++i) {
        const NodeId owner = static_cast<NodeId>(rng.below(base));
        truth.push_back(i * 100);
        vars.push_back(rt.createVarFree(owner, makeValue(truth.back())));
      }
      auto traffic = [&](int ops, int salt) {
        for (int op = 0; op < ops; ++op) {
          const std::size_t i = rng.below(vars.size());
          const int members = m.net.numMembers();
          const NodeId p = m.net.memberAt(static_cast<int>(rng.below(members)));
          if (rng.uniform() < 0.5) {
            EXPECT_EQ(readInt(m, rt, p, vars[i]), truth[i]);
          } else {
            truth[i] = salt * 1000 + op;
            writeInt(m, rt, p, vars[i], truth[i]);
          }
        }
      };
      traffic(8, 1);

      // Grow: two nodes join at random anchors (one coalesced epoch),
      // then issue traffic themselves.
      const NodeId a1 = static_cast<NodeId>(rng.below(base));
      const NodeId a2 = static_cast<NodeId>(rng.below(base));
      const NodeId n1 = m.net.addNode(a1);
      const NodeId n2 = m.net.addNode(a2);
      m.engine.run();  // deliver the epoch before the new nodes issue
      rt.checkAllInvariants();
      truth[0] = 7777;
      writeInt(m, rt, n1, vars[0], truth[0]);
      EXPECT_EQ(readInt(m, rt, n2, vars[0]), truth[0]);
      traffic(8, 2);
      rt.completeReconfig();
      rt.checkAllInvariants();

      // Rewire: link the newcomers, drop n2's anchor edge (it stays
      // connected through n1's link).
      m.net.addLink(n1, n2);
      m.net.removeLink(a2, n2);
      m.engine.run();
      traffic(6, 3);
      rt.completeReconfig();
      rt.checkAllInvariants();

      // Shrink back: retire the newcomers one epoch at a time.
      m.net.removeNode(n2);
      m.engine.run();
      rt.checkAllInvariants();
      traffic(6, 4);
      m.net.removeNode(n1);
      m.engine.run();
      rt.completeReconfig();
      rt.checkAllInvariants();
      EXPECT_EQ(m.net.numMembers(), base);

      // Quiescence on the final shape: nothing lost.
      for (std::size_t i = 0; i < vars.size(); ++i)
        EXPECT_EQ(readInt(m, rt, 0, vars[i]), truth[i]);
      rt.checkAllInvariants();
      EXPECT_GT(m.stats.ops.migratedVars, 0u);
    }
  }
}

TEST_P(ReconfigStrategyTest, CrashAndEpochAtOneInstantParkOnABusyVariable) {
  // One variable mid-write while, at one instant, a copy holder crashes
  // and the writer itself is retired. The crash repair and the epoch
  // migration both park on the variable (it is the only one, so neither
  // counter may move before its write retires); the drain then runs
  // both, and the written value survives them.
  Machine m(net::TopologySpec::graph(net::randomRegularGraph(16, 4, 1)));
  Runtime rt(m, GetParam().config);
  const NodeId owner = 3;
  const NodeId writer = 9;
  const VarId x = rt.createVarFree(owner, makeValue(std::int64_t{1}));
  EXPECT_EQ(readInt(m, rt, writer, x), 1);  // the writer now holds a copy
  const std::uint64_t repaired = m.stats.ops.repairedVars;
  const std::uint64_t migrated = m.stats.ops.migratedVars;

  bool written = false;
  sim::spawn([](Runtime& r, NodeId n, VarId v, bool& done) -> Task<> {
    co_await r.write(n, v, makeValue(std::int64_t{42}));
    done = true;
  }(rt, writer, x, written));
  const sim::Time at = m.engine.now() + 1.0;
  m.engine.scheduleAt(at, [&] {
    ASSERT_FALSE(written) << "the write must still be in flight";
    m.net.setNodeUp(owner, false);
    m.net.removeNode(writer);  // the epoch fires later in this instant
  });
  m.engine.scheduleAt(at + 0.5, [&] {
    ASSERT_FALSE(written) << "the write must still be in flight";
    EXPECT_EQ(m.net.reconfigEpoch(), 1);
    EXPECT_EQ(m.stats.ops.repairedVars, repaired) << "repair ran under a busy variable";
    EXPECT_EQ(m.stats.ops.migratedVars, migrated) << "migration ran under a busy variable";
  });
  m.engine.run();
  ASSERT_TRUE(written);
  rt.completeReconfig();
  rt.checkAllInvariants();
  EXPECT_GT(m.stats.ops.repairedVars, repaired);
  EXPECT_GT(m.stats.ops.migratedVars, migrated);
  EXPECT_EQ(readInt(m, rt, 0, x), 42);

  m.net.setNodeUp(owner, true);
  EXPECT_EQ(readInt(m, rt, owner, x), 42);
  rt.checkAllInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ReconfigStrategyTest,
    ::testing::Values(ReconfigStratCase{RuntimeConfig::accessTree(4, 1), "at4"},
                      ReconfigStratCase{RuntimeConfig::accessTree(2, 4), "at2_4"},
                      ReconfigStratCase{RuntimeConfig::fixedHome(), "fh"}),
    [](const ::testing::TestParamInfo<ReconfigStratCase>& info) {
      return std::string(info.param.label);
    });

// ---------------------------------------------------------------------------
// Workload layer: elastic runs, metrics, trace capture round-trip
// ---------------------------------------------------------------------------

TEST(ReconfigWorkload, ElasticScenarioRunsDeterministicallyWithFullAvailability) {
  const workload::WorkloadSpec spec =
      workload::loadScenarioFile(std::string(DIVA_SCENARIO_DIR) + "/elastic.scenario");
  const net::TopologySpec topo =
      net::TopologySpec::graph(net::randomRegularGraph(16, 4, 1));
  const workload::WorkloadReport r1 =
      workload::runOn(topo, RuntimeConfig::accessTree(4, 1), spec);
  EXPECT_TRUE(r1.reconfigured);
  EXPECT_EQ(r1.reconfigEpochs, 15u);  // 4 grow + 3 rewire + 8 shrink instants
  EXPECT_DOUBLE_EQ(r1.availability, 1.0);
  EXPECT_EQ(r1.failedOps, 0u);
  EXPECT_GT(r1.migratedVars, 0u);
  EXPECT_GT(r1.migrationMessages, 0u);
  const std::string text = workload::formatReport(r1);
  EXPECT_NE(text.find("reconfig"), std::string::npos);
  EXPECT_NE(text.find("vars migrated"), std::string::npos);
  // Bit-determinism, epochs included: a second run renders identically.
  const workload::WorkloadReport r2 =
      workload::runOn(topo, RuntimeConfig::accessTree(4, 1), spec);
  EXPECT_EQ(text, workload::formatReport(r2));
}

// Retirement rules (docs/workloads.md): node 5 of a 16-node random-regular
// machine leaves 600 µs into a 24-round phase, with rounds still to go.

constexpr int kRetiringNode = 5;
constexpr int kRetireRounds = 24;

/// Runs the retiring phase closed loop (think time pacing) or open loop
/// (Poisson arrivals) under `rc`, capturing the issued stream.
workload::WorkloadReport runRetiring(bool openLoop, const RuntimeConfig& rc,
                                     serve::Trace& captured) {
  const workload::WorkloadSpec spec = workload::parseScenario(
      std::string("scenario retire\nobjects 16\nphase p\nrounds ") +
      std::to_string(kRetireRounds) + "\nreads 0.8\n" +
      (openLoop ? "arrival poisson 40000\n" : "think 100\n") + "reconfig 600 remove-node " +
      std::to_string(kRetiringNode) + "\n");
  workload::RunOptions opts;
  opts.captureTrace = &captured;
  return workload::runOn(net::TopologySpec::graph(net::randomRegularGraph(16, 4, 1)), rc,
                         spec, opts);
}

/// Issued (captured) accesses per node.
std::vector<int> issuedPerNode(const serve::Trace& captured) {
  std::vector<int> n(16, 0);
  for (const serve::TraceRequest& req : captured.requests)
    ++n[static_cast<std::size_t>(req.node)];
  return n;
}

TEST(ReconfigWorkload, ClosedLoopRetiredNodesRemainingRoundsAreNeverOffered) {
  for (const RuntimeConfig& rc :
       {RuntimeConfig::accessTree(4, 1), RuntimeConfig::fixedHome()}) {
    serve::Trace captured;
    const workload::WorkloadReport r = runRetiring(/*openLoop=*/false, rc, captured);
    const workload::WorkloadReport::Phase& p = r.phases[0];
    const std::vector<int> issued = issuedPerNode(captured);
    // The retired node issued some rounds before it left, not all of them.
    EXPECT_GT(issued[kRetiringNode], 0) << r.strategy;
    EXPECT_LT(issued[kRetiringNode], kRetireRounds) << r.strategy;
    for (int node = 0; node < 16; ++node) {
      if (node != kRetiringNode) {
        EXPECT_EQ(issued[static_cast<std::size_t>(node)], kRetireRounds) << r.strategy;
      }
    }
    // Its remaining rounds count neither as served nor as failed.
    EXPECT_EQ(p.reads + p.writes, captured.requests.size()) << r.strategy;
    EXPECT_EQ(p.failedOps, 0u) << r.strategy;
    EXPECT_DOUBLE_EQ(r.availability, 1.0) << r.strategy;
    EXPECT_FALSE(p.serve.active);
  }
}

TEST(ReconfigWorkload, OpenLoopRetiredNodesRemainingArrivalsFailAndDrop) {
  for (const RuntimeConfig& rc :
       {RuntimeConfig::accessTree(4, 1), RuntimeConfig::fixedHome()}) {
    serve::Trace captured;
    const workload::WorkloadReport r = runRetiring(/*openLoop=*/true, rc, captured);
    const workload::WorkloadReport::Phase& p = r.phases[0];
    const std::vector<int> issued = issuedPerNode(captured);
    const std::uint64_t offered = 16u * kRetireRounds;
    EXPECT_LT(issued[kRetiringNode], kRetireRounds) << r.strategy;
    // Every scheduled arrival was offered; the retired node's unserved
    // ones are both failed and dropped, and nothing else is lost.
    EXPECT_EQ(p.serve.arrived, offered) << r.strategy;
    EXPECT_EQ(p.serve.arrived, p.serve.served + p.serve.dropped) << r.strategy;
    EXPECT_EQ(p.serve.served, p.reads + p.writes) << r.strategy;
    EXPECT_GT(p.failedOps, 0u) << r.strategy;
    EXPECT_EQ(p.serve.dropped, p.failedOps) << r.strategy;
    EXPECT_EQ(p.failedOps,
              static_cast<std::uint64_t>(kRetireRounds - issued[kRetiringNode]))
        << r.strategy;
    EXPECT_LT(r.availability, 1.0) << r.strategy;
  }
}

TEST(ReconfigWorkload, ReconfigFreeReportOmitsReconfigSection) {
  workload::WorkloadSpec spec;
  spec.name = "flat";
  spec.numObjects = 8;
  spec.phases.push_back(workload::PhaseSpec{
      .name = "p0", .rounds = 4, .readFraction = 0.8, .zipfS = 1.0, .thinkMeanUs = 50.0});
  const workload::WorkloadReport r = workload::runOn(
      net::TopologySpec::mesh2d(4, 4), RuntimeConfig::fixedHome(), spec);
  EXPECT_FALSE(r.reconfigured);
  EXPECT_EQ(r.reconfigEpochs, 0u);
  EXPECT_EQ(workload::formatReport(r).find("reconfig"), std::string::npos);
}

TEST(TraceCapture, CaptureThenReplayMatchesOpCounts) {
  workload::WorkloadSpec spec;
  spec.name = "cap";
  spec.numObjects = 8;
  spec.objectBytes = 128;
  spec.seed = 5;
  spec.phases.push_back(workload::PhaseSpec{
      .name = "p0", .rounds = 4, .readFraction = 0.5, .zipfS = 1.0, .thinkMeanUs = 20.0});

  serve::Trace captured;
  workload::RunOptions opts;
  opts.captureTrace = &captured;
  const workload::WorkloadReport live = workload::runOn(
      net::TopologySpec::mesh2d(2, 2), RuntimeConfig::fixedHome(), spec, opts);
  EXPECT_EQ(captured.name, "cap");
  EXPECT_EQ(captured.numObjects, 8);
  ASSERT_EQ(captured.requests.size(), static_cast<std::size_t>(live.servedOps));
  std::size_t capturedReads = 0;
  for (std::size_t i = 0; i < captured.requests.size(); ++i) {
    const serve::TraceRequest& req = captured.requests[i];
    EXPECT_GE(req.node, 0);
    EXPECT_LT(req.node, 4);
    EXPECT_LT(req.object, 8);
    if (i > 0) {
      EXPECT_GE(req.timeUs, captured.requests[i - 1].timeUs);
    }
    capturedReads += req.isRead ? 1u : 0u;
  }

  // Round-trip: the formatted capture replays as a trace phase and
  // serves the same number of operations.
  const std::string path = ::testing::TempDir() + "reconfig_capture_roundtrip.trace";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << serve::formatTrace(captured);
  }
  workload::WorkloadSpec replay;
  replay.name = "replay";
  replay.numObjects = 8;
  replay.objectBytes = 128;
  replay.seed = 5;
  workload::PhaseSpec ph;
  ph.name = "replayed";
  ph.tracePath = path;
  replay.phases.push_back(ph);
  const workload::WorkloadReport back = workload::runOn(
      net::TopologySpec::mesh2d(2, 2), RuntimeConfig::fixedHome(), replay);
  EXPECT_EQ(back.servedOps, live.servedOps);
  EXPECT_EQ(back.failedOps, 0u);
  // The replayed op mix is the captured one.
  std::uint64_t replayReads = 0;
  for (const auto& p : back.phases) replayReads += p.reads;
  EXPECT_EQ(replayReads, capturedReads);
}

}  // namespace
}  // namespace diva
