// Fault & churn subsystem tests (docs/faults.md): link detour/park
// semantics, degraded links, fault-plan scheduling, scenario `fault`
// round-trips, protocol repair under processor crashes for both
// strategies, and workload availability accounting.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "diva/machine.hpp"
#include "diva/runtime.hpp"
#include "net/fault.hpp"
#include "net/graph_topology.hpp"
#include "net/link_stats.hpp"
#include "net/mesh_topology.hpp"
#include "net/network.hpp"
#include "sim/task.hpp"
#include "support/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/workload.hpp"

namespace diva {
namespace {

using sim::Task;

// ---------------------------------------------------------------------------
// Network layer: liveness, detour-or-park, degrade
// ---------------------------------------------------------------------------

struct NetFixture {
  explicit NetFixture(int rows = 4, int cols = 4)
      : topo(rows, cols),
        stats(topo.numLinkSlots()),
        net(engine, topo, net::CostModel::gcel(), stats) {}
  sim::Engine engine;
  net::MeshTopology topo;
  net::LinkStats stats;
  net::Network net;
};

TEST(Fault, MessageDetoursAroundDeadLink) {
  NetFixture f;  // 4x4 mesh, dimension-order routes go along row 0 first
  int got = 0;
  f.net.setHandler(3, net::kFirstAppChannel, [&](net::Message&& m) {
    got = m.as<int>();
  });
  // 0→3 routes 0-1-2-3; sever the middle of that row. A live detour
  // through row 1 exists, so the message must still arrive.
  f.net.setLinkUp(1, 2, false);
  f.net.post(net::Message{0, 3, net::kFirstAppChannel, 64, 7});
  f.engine.run();
  EXPECT_EQ(got, 7);
  EXPECT_GE(f.net.reroutedFlights(), 1u);
  EXPECT_EQ(f.net.parkedFlights(), 0u);
}

TEST(Fault, FlightParksWhenCutOffAndResumesOnHeal) {
  // Ring of 4: node 2 is unreachable once both its links are dead.
  sim::Engine engine;
  net::GraphTopology topo(net::ringGraph(4));
  net::LinkStats stats(topo.numLinkSlots());
  net::Network net(engine, topo, net::CostModel::gcel(), stats);
  double arrived = -1.0;
  net.setHandler(2, net::kFirstAppChannel, [&](net::Message&&) {
    arrived = engine.now();
  });
  net.setLinkUp(1, 2, false);
  net.setLinkUp(2, 3, false);
  net.post(net::Message{0, 2, net::kFirstAppChannel, 64, 1});
  engine.run();
  EXPECT_LT(arrived, 0.0);  // no live path: parked, not delivered, not lost
  EXPECT_EQ(net.parkedFlights(), 1u);
  EXPECT_EQ(net.flightsInLimbo(), 1u);
  engine.scheduleAt(500.0, [&] { net.setLinkUp(1, 2, true); });
  engine.run();
  EXPECT_GE(arrived, 500.0);  // delivered after the heal, never dropped
  EXPECT_EQ(net.flightsInLimbo(), 0u);
}

TEST(Fault, DegradedLinkSlowsDeliveryAndHealsToNominal) {
  // 1×3 mesh, message 0→2, wormhole cut-through: an isolated message's
  // delivery time is send + Σ inter-hop latencies + the LAST link's
  // stream time. So the latency multiplier is observable on the first
  // link (0-1) and the bandwidth multiplier on the last link (1-2); a
  // non-final link's bandwidth only throttles subsequent traffic.
  auto deliveryTime = [](double lastWeightMul, double firstLatencyMul,
                         bool healFirst = false) {
    NetFixture f(1, 3);
    double arrived = -1.0;
    f.net.setHandler(2, net::kFirstAppChannel, [&](net::Message&&) {
      arrived = f.engine.now();
    });
    if (lastWeightMul != 1.0 || healFirst) f.net.degradeLink(1, 2, lastWeightMul, 1.0);
    if (firstLatencyMul != 1.0 || healFirst)
      f.net.degradeLink(0, 1, 1.0, firstLatencyMul);
    if (healFirst) {
      f.net.degradeLink(1, 2, 1.0, 1.0);
      f.net.degradeLink(0, 1, 1.0, 1.0);
    }
    f.net.post(net::Message{0, 2, net::kFirstAppChannel, 4096, 1});
    f.engine.run();
    return arrived;
  };
  const double nominal = deliveryTime(1.0, 1.0);
  EXPECT_GT(deliveryTime(3.0, 1.0), nominal);
  EXPECT_GT(deliveryTime(1.0, 3.0), nominal);
  // Degrading back to the nominal multipliers restores the exact rate
  // (multipliers are relative to the topology's nominal, not cumulative).
  EXPECT_DOUBLE_EQ(deliveryTime(4.0, 2.0, /*healFirst=*/true), nominal);
}

TEST(Fault, CrashedNodeStillDeliversProtocolTraffic) {
  // The always-on agent model: a crash loses application state, not the
  // router or protocol agent — messages to a dead node are delivered.
  NetFixture f;
  int got = 0;
  f.net.setHandler(5, net::kFirstAppChannel, [&](net::Message&& m) {
    got = m.as<int>();
  });
  f.net.setNodeUp(5, false);
  EXPECT_FALSE(f.net.nodeUp(5));
  EXPECT_EQ(f.net.numLiveNodes(), 15);
  f.net.post(net::Message{0, 5, net::kFirstAppChannel, 64, 9});
  f.engine.run();
  EXPECT_EQ(got, 9);
  f.net.setNodeUp(5, true);
  EXPECT_TRUE(f.net.nodeUp(5));
  EXPECT_EQ(f.net.numLiveNodes(), 16);
}

TEST(Fault, CrashingTheLastLiveNodeThrows) {
  NetFixture f(2, 2);
  f.net.setNodeUp(0, false);
  f.net.setNodeUp(1, false);
  f.net.setNodeUp(2, false);
  EXPECT_THROW(f.net.setNodeUp(3, false), support::CheckError);
}

TEST(Fault, CrashingTheLastLiveMemberThrowsWhileARetiredNodeIsUp) {
  // A retired node stays up until the end of the run but hosts nothing:
  // crashing every member beside it would leave the strategies no node
  // to re-home onto.
  sim::Engine engine;
  net::GraphTopology topo(net::ringGraph(4));
  net::LinkStats stats(topo.numLinkSlots());
  net::Network net(engine, topo, net::CostModel::gcel(), stats);
  net.removeNode(3);
  engine.run();
  net.setNodeUp(0, false);
  net.setNodeUp(1, false);
  EXPECT_THROW(net.setNodeUp(2, false), support::CheckError);
  EXPECT_TRUE(net.nodeUp(2));
  EXPECT_EQ(net.numLiveNodes(), 2);  // the retired node still counts as live
  net.setNodeUp(3, false);           // crashing the retired node is fine
  EXPECT_EQ(net.numLiveNodes(), 1);
}

TEST(Fault, FaultPlanFiresAtScheduledOffsets) {
  NetFixture f;
  std::vector<std::pair<double, bool>> transitions;
  f.net.addLivenessListener([&](net::NodeId n, bool up) {
    EXPECT_EQ(n, 6);
    transitions.emplace_back(f.engine.now(), up);
  });
  net::FaultPlan plan;
  net::FaultEvent down;
  down.kind = net::FaultEvent::Kind::NodeDown;
  down.offsetUs = 100.0;
  down.a = 6;
  net::FaultEvent up = down;
  up.kind = net::FaultEvent::Kind::NodeUp;
  up.offsetUs = 250.0;
  net::scheduleFaultPlan(f.engine, f.net, plan, 50.0);  // empty plan: no-op
  plan.push_back(down);
  plan.push_back(up);
  net::scheduleFaultPlan(f.engine, f.net, plan, 50.0);
  f.engine.run();
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_DOUBLE_EQ(transitions[0].first, 150.0);
  EXPECT_FALSE(transitions[0].second);
  EXPECT_DOUBLE_EQ(transitions[1].first, 300.0);
  EXPECT_TRUE(transitions[1].second);
}

// ---------------------------------------------------------------------------
// Scenario format: `fault` directive
// ---------------------------------------------------------------------------

TEST(FaultScenario, FaultDirectivesRoundTrip) {
  const std::string text =
      "scenario churny\n"
      "objects 8 128\n"
      "procs 16\n"
      "phase a\n"
      "rounds 2\n"
      "fault 100 link-down 1 2\n"
      "fault 150 node-down 3\n"
      "fault 200 degrade 4 5 2.5 1.5\n"
      "fault 300 node-up 3\n"
      "fault 400 link-up 1 2\n";
  const workload::WorkloadSpec spec = workload::parseScenario(text);
  ASSERT_EQ(spec.phases.size(), 1u);
  const net::FaultPlan& faults = spec.phases[0].faults;
  ASSERT_EQ(faults.size(), 5u);
  EXPECT_EQ(faults[0].kind, net::FaultEvent::Kind::LinkDown);
  EXPECT_EQ(faults[1].kind, net::FaultEvent::Kind::NodeDown);
  EXPECT_EQ(faults[1].a, 3);
  EXPECT_EQ(faults[2].kind, net::FaultEvent::Kind::Degrade);
  EXPECT_DOUBLE_EQ(faults[2].weightMul, 2.5);
  EXPECT_DOUBLE_EQ(faults[2].latencyMul, 1.5);
  EXPECT_EQ(workload::parseScenario(workload::formatScenario(spec)), spec);
}

TEST(FaultScenario, MalformedFaultLinesRejectedWithLineNumbers) {
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
  expectThrowContaining("objects 8\nfault 10 node-down 1\nphase a\n",
                        "before any 'phase'");
  expectThrowContaining(head + "fault 10 melt 1\n", "unknown fault kind");
  expectThrowContaining(head + "fault -5 node-down 1\n", "must be >= 0");
  expectThrowContaining(head + "fault 10 degrade 1 2 0 1\n", "must be positive");
  expectThrowContaining(head + "fault 10 node-down 1 2\n", "trailing token");
  expectThrowContaining(head + "fault 10 link-down 1\n", "line 3");
}

TEST(FaultScenario, CommittedChurnScenarioParses) {
  const workload::WorkloadSpec spec =
      workload::loadScenarioFile(std::string(DIVA_SCENARIO_DIR) + "/churn.scenario");
  EXPECT_EQ(spec.name, "churn");
  EXPECT_EQ(spec.procs, 64);
  bool anyFault = false;
  for (const auto& ph : spec.phases) anyFault |= !ph.faults.empty();
  EXPECT_TRUE(anyFault);
}

TEST(FaultScenario, LoadErrorsNameTheFile) {
  try {
    (void)workload::loadScenarioFile("/dev/null");
    FAIL() << "expected CheckError";
  } catch (const support::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/null"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Protocol repair: kill-and-recover under both strategies
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

struct FaultStratCase {
  RuntimeConfig config;
  const char* label;
};

class FaultStrategyTest : public ::testing::TestWithParam<FaultStratCase> {};

TEST_P(FaultStrategyTest, KillAndRecoverLosesNoData) {
  Machine m(4, 4);
  Runtime rt(m, GetParam().config);
  std::vector<VarId> vars;
  for (NodeId owner = 0; owner < 16; ++owner)
    vars.push_back(
        rt.createVarFree(owner, makeValue(static_cast<std::int64_t>(owner * 10))));
  // Spread copies around — including onto the future victim, so the
  // crash is guaranteed to destroy state that repair must scrub.
  for (VarId x : vars) (void)readInt(m, rt, 3, x);
  for (VarId x : vars) (void)readInt(m, rt, 5, x);
  m.net.setNodeUp(5, false);
  m.engine.run();  // drain recovery traffic
  rt.checkAllInvariants();
  // Every value survives the crash and is readable from a live node.
  for (std::size_t i = 0; i < vars.size(); ++i)
    EXPECT_EQ(readInt(m, rt, 0, vars[i]), static_cast<std::int64_t>(i * 10));
  m.net.setNodeUp(5, true);
  m.engine.run();
  rt.checkAllInvariants();
  // The recovered node rebuilds its state through the normal protocol.
  EXPECT_EQ(readInt(m, rt, 5, vars[5]), 50);
  writeInt(m, rt, 5, vars[5], 555);
  EXPECT_EQ(readInt(m, rt, 9, vars[5]), 555);
  rt.checkAllInvariants();
  EXPECT_GT(m.stats.ops.repairedVars, 0u);
}

TEST_P(FaultStrategyTest, CrashMidOperationDefersRepairUntilQuiet) {
  Machine m(4, 4);
  Runtime rt(m, GetParam().config);
  const VarId x = rt.createVarFree(2, makeValue<std::int64_t>(41));
  // Launch reads from several nodes and crash the owner while they are
  // in flight: repair must wait for the variable to go quiet, then leave
  // a coherent component (nothing lost, nothing dually owned).
  for (NodeId p : {static_cast<NodeId>(6), static_cast<NodeId>(10),
                   static_cast<NodeId>(15)}) {
    sim::spawn([](Runtime& r, NodeId n, VarId v) -> Task<> {
      (void)co_await r.read(n, v);
    }(rt, p, x));
  }
  m.engine.scheduleAt(m.engine.now() + 1.0, [&] { m.net.setNodeUp(2, false); });
  m.engine.run();
  rt.checkAllInvariants();
  EXPECT_EQ(readInt(m, rt, 0, x), 41);
  m.net.setNodeUp(2, true);
  m.engine.run();
  rt.checkAllInvariants();
}

TEST_P(FaultStrategyTest, RandomizedKillAndRecoverQuiescence) {
  // The ISSUE's property test: on three shapes, interleave random
  // reads/writes with crash/recover cycles; at every quiescent point no
  // object may be lost or dually owned, and every object must read back
  // its last written value.
  const std::vector<net::TopologySpec> shapes = {
      net::TopologySpec::mesh2d(4, 4),
      net::TopologySpec::graph(net::ringGraph(16)),
      net::TopologySpec::graph(net::randomRegularGraph(16, 3, 7)),
  };
  for (const net::TopologySpec& shape : shapes) {
    Machine m(shape);
    Runtime rt(m, GetParam().config);
    const int procs = m.numProcs();
    support::SplitMix64 rng(0xFA0171ull ^ static_cast<std::uint64_t>(procs));
    std::vector<VarId> vars;
    std::vector<std::int64_t> truth;
    for (int i = 0; i < 12; ++i) {
      const NodeId owner = static_cast<NodeId>(rng.below(procs));
      truth.push_back(i * 100);
      vars.push_back(rt.createVarFree(owner, makeValue(truth.back())));
    }
    for (int round = 0; round < 6; ++round) {
      const NodeId victim = static_cast<NodeId>(rng.below(procs));
      // Random traffic before the crash.
      for (int op = 0; op < 8; ++op) {
        const std::size_t i = rng.below(vars.size());
        const NodeId p = static_cast<NodeId>(rng.below(procs));
        if (rng.uniform() < 0.5) {
          EXPECT_EQ(readInt(m, rt, p, vars[i]), truth[i]);
        } else {
          truth[i] = round * 1000 + op;
          writeInt(m, rt, p, vars[i], truth[i]);
        }
      }
      m.net.setNodeUp(victim, false);
      m.engine.run();
      rt.checkAllInvariants();
      // Traffic from live nodes while the victim is down.
      for (int op = 0; op < 4; ++op) {
        const std::size_t i = rng.below(vars.size());
        NodeId p = static_cast<NodeId>(rng.below(procs));
        if (p == victim) p = static_cast<NodeId>((p + 1) % procs);
        if (rng.uniform() < 0.5) {
          EXPECT_EQ(readInt(m, rt, p, vars[i]), truth[i]);
        } else {
          truth[i] = round * 1000 + 500 + op;
          writeInt(m, rt, p, vars[i], truth[i]);
        }
      }
      rt.checkAllInvariants();
      m.net.setNodeUp(victim, true);
      m.engine.run();
      rt.checkAllInvariants();
    }
    // Quiescence: every object intact with its last written value.
    for (std::size_t i = 0; i < vars.size(); ++i)
      EXPECT_EQ(readInt(m, rt, 0, vars[i]), truth[i]);
    rt.checkAllInvariants();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, FaultStrategyTest,
    ::testing::Values(FaultStratCase{RuntimeConfig::accessTree(4, 1), "at4"},
                      FaultStratCase{RuntimeConfig::accessTree(2, 4), "at2_4"},
                      FaultStratCase{RuntimeConfig::fixedHome(), "fh"}),
    [](const ::testing::TestParamInfo<FaultStratCase>& info) {
      return std::string(info.param.label);
    });

// ---------------------------------------------------------------------------
// Workload layer: availability accounting
// ---------------------------------------------------------------------------

workload::WorkloadSpec smallSpec() {
  workload::WorkloadSpec spec;
  spec.name = "fault-wl";
  spec.numObjects = 8;
  spec.objectBytes = 128;
  spec.seed = 11;
  spec.phases.push_back(workload::PhaseSpec{
      .name = "p0", .rounds = 6, .readFraction = 0.8, .zipfS = 1.0, .thinkMeanUs = 50.0});
  return spec;
}

TEST(FaultWorkload, FaultedRunReportsAvailabilityAndRepairs) {
  workload::WorkloadSpec spec = smallSpec();
  net::FaultEvent down;
  down.kind = net::FaultEvent::Kind::NodeDown;
  down.offsetUs = 20.0;
  down.a = 3;
  net::FaultEvent up = down;
  up.kind = net::FaultEvent::Kind::NodeUp;
  up.offsetUs = 400.0;
  spec.phases[0].faults = {down, up};
  const workload::WorkloadReport r =
      workload::runOn(net::TopologySpec::mesh2d(4, 4), RuntimeConfig::fixedHome(), spec);
  EXPECT_TRUE(r.faulted);
  // Every op either served or failed; nothing double-counted or dropped.
  EXPECT_EQ(r.servedOps + r.failedOps, 16u * 6u);
  EXPECT_GE(r.availability, 0.0);
  EXPECT_LE(r.availability, 1.0);
  const std::string text = workload::formatReport(r);
  EXPECT_NE(text.find("availability"), std::string::npos);
  EXPECT_NE(text.find("recovery"), std::string::npos);
}

TEST(FaultWorkload, FaultFreeReportOmitsAvailabilitySection) {
  const workload::WorkloadReport r = workload::runOn(
      net::TopologySpec::mesh2d(4, 4), RuntimeConfig::fixedHome(), smallSpec());
  EXPECT_FALSE(r.faulted);
  EXPECT_DOUBLE_EQ(r.availability, 1.0);
  const std::string text = workload::formatReport(r);
  EXPECT_EQ(text.find("availability"), std::string::npos);
}

TEST(FaultWorkload, OutOfRangeFaultEndpointRejected) {
  workload::WorkloadSpec spec = smallSpec();
  net::FaultEvent down;
  down.kind = net::FaultEvent::Kind::NodeDown;
  down.offsetUs = 1.0;
  down.a = 99;  // machine has 16 nodes
  spec.phases[0].faults = {down};
  EXPECT_THROW(workload::runOn(net::TopologySpec::mesh2d(4, 4),
                               RuntimeConfig::fixedHome(), spec),
               support::CheckError);
}

}  // namespace
}  // namespace diva
