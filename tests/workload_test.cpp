// The synthetic-workload subsystem: generator statistics (Zipf
// frequency-rank slope, stream splitting, phase-boundary determinism),
// scenario file format round-trips, driver report invariants, and the
// strategy A/B acceptance property — the access tree beats the fixed
// home baseline on max-link congestion under a hotspot workload, on the
// mesh and on a general graph.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "diva/machine.hpp"
#include "net/graph_topology.hpp"
#include "net/topology_env.hpp"
#include "support/check.hpp"
#include "workload/scenario.hpp"
#include "workload/workload.hpp"

namespace diva {
namespace {

using support::SplitMix64;
using workload::PhaseSpec;
using workload::WorkloadSpec;
using workload::ZipfSampler;

// --------------------------------------------------------------------------
// RNG stream splitting
// --------------------------------------------------------------------------

TEST(RngSplit, ChildStreamsAreDeterministicAndDistinct) {
  const SplitMix64 master(42);
  SplitMix64 a = master.split(1);
  SplitMix64 a2 = master.split(1);
  SplitMix64 b = master.split(2);
  EXPECT_EQ(a.next(), a2.next());  // same id → same stream
  bool anyDiff = false;
  SplitMix64 a3 = master.split(1);
  for (int i = 0; i < 16; ++i) anyDiff |= a3.next() != b.next();
  EXPECT_TRUE(anyDiff);  // different ids → different streams
}

TEST(RngSplit, SplitDoesNotAdvanceParent) {
  SplitMix64 p(7);
  SplitMix64 q(7);
  (void)p.split(123);
  (void)p.split(456);
  EXPECT_EQ(p.next(), q.next());
}

TEST(RngSplit, SplitsCommuteWithDraws) {
  // split() is a function of (state, id): drawing after splitting must
  // give the same child as splitting after copying.
  SplitMix64 p(99);
  const SplitMix64 snapshot = p;
  SplitMix64 child1 = p.split(5);
  (void)p.next();
  SplitMix64 child2 = snapshot.split(5);
  EXPECT_EQ(child1.next(), child2.next());
}

// --------------------------------------------------------------------------
// Zipf generator statistics
// --------------------------------------------------------------------------

TEST(Zipf, UniformWhenExponentZero) {
  const int n = 16;
  ZipfSampler zipf(n, 0.0);
  SplitMix64 rng(1);
  std::vector<int> count(n, 0);
  const int draws = 160000;
  for (int i = 0; i < draws; ++i) ++count[zipf(rng)];
  for (int r = 0; r < n; ++r) {
    const double freq = static_cast<double>(count[r]) / draws;
    EXPECT_NEAR(freq, 1.0 / n, 0.01) << "rank " << r;
  }
}

TEST(Zipf, FrequencyRankSlopeMatchesExponent) {
  // Least-squares slope of log(freq) vs log(rank+1) over the well-sampled
  // head must recover -s for a Zipf(s) sampler.
  for (const double s : {1.0, 2.0}) {
    const int n = 64;
    ZipfSampler zipf(n, s);
    SplitMix64 rng(1234);
    std::vector<int> count(n, 0);
    const int draws = 400000;
    for (int i = 0; i < draws; ++i) ++count[zipf(rng)];
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    const int head = 16;
    for (int r = 0; r < head; ++r) {
      ASSERT_GT(count[r], 100) << "rank " << r << " undersampled at s=" << s;
      const double x = std::log(static_cast<double>(r + 1));
      const double y = std::log(static_cast<double>(count[r]) / draws);
      sx += x, sy += y, sxx += x * x, sxy += x * y;
    }
    const double slope = (head * sxy - sx * sy) / (head * sxx - sx * sx);
    EXPECT_NEAR(slope, -s, 0.08) << "s=" << s;
  }
}

TEST(Zipf, SkewConcentratesOnHotRanks) {
  ZipfSampler zipf(256, 1.0);
  SplitMix64 rng(5);
  int hot = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i)
    if (zipf(rng) < 8) ++hot;
  // With s=1, n=256: P(rank<8) = H(8)/H(256) ≈ 2.72/6.12 ≈ 0.44.
  EXPECT_GT(hot, draws * 2 / 5);
  EXPECT_LT(hot, draws / 2);
}

TEST(Zipf, RejectsBadParameters) {
  EXPECT_THROW(ZipfSampler(0, 1.0), support::CheckError);
  EXPECT_THROW(ZipfSampler(4, -0.5), support::CheckError);
  // Spec validation bounds exponents at kMaxExponent, so every accepted
  // integral exponent takes the exact-arithmetic (bit-stable) path.
  WorkloadSpec spec;
  spec.numObjects = 4;
  spec.phases.push_back(PhaseSpec{.name = "p", .zipfS = ZipfSampler::kMaxExponent + 1.0});
  EXPECT_THROW(spec.validate(), support::CheckError);
  spec.phases[0].zipfS = ZipfSampler::kMaxExponent;
  spec.validate();
  // High integral exponents degrade gracefully (deterministic rank 0).
  ZipfSampler extreme(8, ZipfSampler::kMaxExponent);
  SplitMix64 rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(extreme(rng), 0);
}

// --------------------------------------------------------------------------
// Phase-boundary determinism
// --------------------------------------------------------------------------

TEST(AccessStream, PureFunctionOfSeedPhaseNode) {
  // The phase-1 stream is identical no matter what phase 0 looked like —
  // editing one phase of a scenario never changes another phase's access
  // sequence.
  SplitMix64 a = workload::accessStream(42, 1, 3);
  SplitMix64 b = workload::accessStream(42, 1, 3);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.next(), b.next());

  SplitMix64 otherPhase = workload::accessStream(42, 0, 3);
  SplitMix64 otherNode = workload::accessStream(42, 1, 4);
  SplitMix64 otherSeed = workload::accessStream(43, 1, 3);
  SplitMix64 base = workload::accessStream(42, 1, 3);
  const std::uint64_t v = base.next();
  EXPECT_NE(v, otherPhase.next());
  EXPECT_NE(v, otherNode.next());
  EXPECT_NE(v, otherSeed.next());
}

// --------------------------------------------------------------------------
// Scenario file format
// --------------------------------------------------------------------------

WorkloadSpec sampleSpec() {
  WorkloadSpec spec;
  spec.name = "roundtrip";
  spec.numObjects = 96;
  spec.objectBytes = 512;
  spec.cacheBytes = 8192;
  spec.seed = 1234567;
  spec.procs = 16;
  spec.phases.push_back(PhaseSpec{.name = "warm", .rounds = 3});
  spec.phases.push_back(PhaseSpec{
      .name = "hot", .rounds = 9, .readFraction = 0.75, .zipfS = 1.0, .thinkMeanUs = 250.0});
  spec.phases.push_back(PhaseSpec{
      .name = "drift", .rounds = 7, .readFraction = 0.25, .zipfS = 2.0, .hotShift = 48,
      .thinkMeanUs = 125.5, .barrier = false});
  return spec;
}

TEST(Scenario, FormatParseRoundTrip) {
  const WorkloadSpec spec = sampleSpec();
  const WorkloadSpec back = workload::parseScenario(workload::formatScenario(spec));
  EXPECT_EQ(spec, back);
}

TEST(Scenario, ParsesDefaultsAndComments) {
  const WorkloadSpec spec = workload::parseScenario(
      "# a comment\n"
      "\n"
      "objects 4\n"
      "phase only\n"
      "rounds 2\n");
  EXPECT_EQ(spec.name, "file");
  EXPECT_EQ(spec.numObjects, 4);
  EXPECT_EQ(spec.objectBytes, 64u);
  EXPECT_EQ(spec.cacheBytes, 0u);
  EXPECT_EQ(spec.seed, 1u);
  EXPECT_EQ(spec.procs, 0);
  ASSERT_EQ(spec.phases.size(), 1u);
  EXPECT_EQ(spec.phases[0].name, "only");
  EXPECT_EQ(spec.phases[0].rounds, 2);
  EXPECT_DOUBLE_EQ(spec.phases[0].readFraction, 1.0);
  EXPECT_TRUE(spec.phases[0].barrier);
}

TEST(Scenario, RejectsMalformedInput) {
  EXPECT_THROW(workload::parseScenario("phase p\n"), support::CheckError);  // no objects
  EXPECT_THROW(workload::parseScenario("objects 4\n"), support::CheckError);  // no phase
  EXPECT_THROW(workload::parseScenario("objects 4\nrounds 3\n"),
               support::CheckError);  // phase key before 'phase'
  EXPECT_THROW(workload::parseScenario("objects 4\nfrobnicate 1\n"),
               support::CheckError);  // unknown directive
  EXPECT_THROW(workload::parseScenario("objects 4\nphase p\nreads 1.5\n"),
               support::CheckError);  // validation: fraction out of range
  EXPECT_THROW(workload::parseScenario("objects 4\nphase p\nbarrier 2\n"),
               support::CheckError);
  EXPECT_THROW(workload::parseScenario("objects 4\nobjects 5\nphase p\n"),
               support::CheckError);  // duplicate objects
  EXPECT_THROW(workload::parseScenario("objects 4x\nphase p\n"),
               support::CheckError);  // malformed number
  // Every directive rejects trailing tokens instead of silently dropping
  // them (a one-line "rounds 5 reads 0.1" typo must not run a different
  // workload than written).
  EXPECT_THROW(workload::parseScenario("scenario two words\nobjects 4\nphase p\n"),
               support::CheckError);
  EXPECT_THROW(workload::parseScenario("objects 4\nphase hot rounds 5\n"),
               support::CheckError);
  EXPECT_THROW(workload::parseScenario("objects 4\nphase p\nrounds 5 reads 0.1\n"),
               support::CheckError);
  EXPECT_THROW(workload::parseScenario("objects 4 64 128\nphase p\n"),
               support::CheckError);
  // Unsigned fields reject negative literals (istream would wrap them).
  EXPECT_THROW(workload::parseScenario("objects 4 -1\nphase p\n"), support::CheckError);
  EXPECT_THROW(workload::parseScenario("seed -1\nobjects 4\nphase p\n"),
               support::CheckError);
}

TEST(Scenario, TimeInputsThatWouldOverflowSimulatedTimeAreRejected) {
  // Each of these once passed validation and then made simulated time
  // non-finite: `think 1e308` doubles to inf in the think-time draw, and
  // `arrival fixed 1e-310` gives an infinite arrival interval (the runner
  // printed `wall ms inf` and -1e308 latency percentiles, and exited 0).
  const std::string head = "objects 4\nphase p\n";
  const char* bad[] = {
      "think 1e308\n",
      "arrival fixed 1e-310\n",
      "arrival poisson 1e-305\n",
      "arrival burst 1000 1e308 10\n",
      "fault 1e308 node-down 1\n",
      "fault 0 degrade 0 1 1e308 1\n",
      "reconfig 0 add-node 0 1 1e308\n",
  };
  for (const char* line : bad)
    EXPECT_THROW(workload::parseScenario(head + line), support::CheckError) << line;
  // The ceiling itself is accepted.
  EXPECT_NO_THROW(workload::parseScenario(head + "think 9007199254740992\n"));
  EXPECT_NO_THROW(workload::parseScenario(head + "arrival fixed 1e-9\n"));
}

TEST(Scenario, SizeInputsAboveTheCapsAreRejected) {
  // Each reproducer once passed validation; the run then aborted with
  // bad_alloc or length_error while allocating objects or processors.
  // Nothing here builds a machine or allocates a payload.
  const char* bad[] = {
      "objects 2000000000\nphase p\n",
      "objects 4\nprocs 2000000000\nphase p\n",
      "objects 1048577\nphase p\n",
      "objects 1024 1048577\nphase p\n",
      "objects 1 1073741825\nphase p\n",
      "objects 4\nprocs 1048577\nphase p\n",
  };
  for (const char* text : bad)
    EXPECT_THROW(workload::parseScenario(text), support::CheckError) << text;
  // The ceilings themselves are accepted.
  EXPECT_NO_THROW(workload::parseScenario("objects 1048576 1024\nprocs 1048576\nphase p\n"));
  EXPECT_NO_THROW(workload::parseScenario("objects 1 1073741824\nphase p\n"));
  // A machine-size flag cannot get around the procs cap: grids above
  // kMaxGraphNodes nodes are rejected before anything is allocated.
  EXPECT_THROW((void)net::makeTopology(net::TopologySpec::mesh2d(40000, 50000)),
               support::CheckError);
  EXPECT_THROW((void)net::makeTopology(net::TopologySpec::torus2d(1024, 1025)),
               support::CheckError);
  EXPECT_NO_THROW((void)net::makeTopology(net::TopologySpec::mesh2d(1024, 1024)));
}

TEST(Scenario, InlineCommentsAreAllowedEverywhere) {
  const WorkloadSpec spec = workload::parseScenario(
      "objects 4 128   # population, payload\n"
      "phase p         # the only phase\n"
      "rounds 2        # two accesses each\n");
  EXPECT_EQ(spec.numObjects, 4);
  EXPECT_EQ(spec.objectBytes, 128u);
  ASSERT_EQ(spec.phases.size(), 1u);
  EXPECT_EQ(spec.phases[0].name, "p");
  EXPECT_EQ(spec.phases[0].rounds, 2);
}

TEST(Scenario, NamesMustBeSingleTokensToRoundTrip) {
  // A spec built in C++ with a whitespace name could never round-trip
  // through the text format; validate() rejects it up front.
  WorkloadSpec spec = sampleSpec();
  spec.name = "two words";
  EXPECT_THROW(spec.validate(), support::CheckError);
  spec = sampleSpec();
  spec.phases[0].name = "hot phase";
  EXPECT_THROW(spec.validate(), support::CheckError);
  // '#' starts a comment in the format, so it can't appear in names.
  spec = sampleSpec();
  spec.name = "a#b";
  EXPECT_THROW(spec.validate(), support::CheckError);
}

// --------------------------------------------------------------------------
// Driver
// --------------------------------------------------------------------------

WorkloadSpec hotspotSpec() {
  WorkloadSpec spec;
  spec.name = "hotspot-test";
  spec.numObjects = 64;
  spec.objectBytes = 512;
  spec.seed = 42;
  spec.phases.push_back(PhaseSpec{.name = "warm", .rounds = 2});
  spec.phases.push_back(PhaseSpec{
      .name = "hot", .rounds = 12, .readFraction = 0.9, .zipfS = 1.0, .thinkMeanUs = 100.0});
  return spec;
}

TEST(WorkloadDriver, ReportAccountsEveryAccess) {
  const WorkloadSpec spec = hotspotSpec();
  const workload::WorkloadReport r =
      workload::runOn(net::TopologySpec::mesh2d(4, 4), RuntimeConfig::accessTree(4), spec);
  ASSERT_EQ(r.phases.size(), spec.phases.size());
  EXPECT_EQ(r.procs, 16);
  for (std::size_t p = 0; p < r.phases.size(); ++p) {
    const auto& pr = r.phases[p];
    // Every processor performed exactly `rounds` accesses.
    EXPECT_EQ(pr.reads + pr.writes,
              static_cast<std::uint64_t>(spec.phases[p].rounds) * 16);
    EXPECT_GT(pr.wallUs, 0.0);
  }
  // All-read warmup phase: no writes.
  EXPECT_EQ(r.phases[0].writes, 0u);
  // The mixed phase took locks for each write.
  EXPECT_EQ(r.phases[1].locks, r.phases[1].writes);
  EXPECT_GT(r.phases[1].writes, 0u);
  EXPECT_GT(r.linkBytes, 0u);
  EXPECT_GE(r.linkMessages, r.congestionMessages);
  EXPECT_GT(r.completionUs, 0.0);
}

TEST(WorkloadDriver, SameSeedSameReportBytes) {
  const WorkloadSpec spec = hotspotSpec();
  const auto topo = net::TopologySpec::torus2d(4, 4);
  const workload::WorkloadReport a =
      workload::runOn(topo, RuntimeConfig::accessTree(4), spec);
  const workload::WorkloadReport b =
      workload::runOn(topo, RuntimeConfig::accessTree(4), spec);
  EXPECT_EQ(workload::formatReport(a), workload::formatReport(b));
}

TEST(WorkloadDriver, PhaseStorageGrowsWithThePhasesRun) {
  WorkloadSpec spec;
  spec.name = "many-phases";
  spec.numObjects = 8;
  spec.seed = 3;
  for (int p = 0; p < 12; ++p) {
    std::string name = "p";  // two-step append sidesteps a GCC 12 -Wrestrict false positive
    name += std::to_string(p);
    spec.phases.push_back(PhaseSpec{.name = std::move(name), .readFraction = 0.5});
  }
  const workload::WorkloadReport r =
      workload::runOn(net::TopologySpec::mesh2d(2, 2), RuntimeConfig::fixedHome(), spec);
  ASSERT_EQ(r.phases.size(), spec.phases.size());
  for (const auto& pr : r.phases) EXPECT_EQ(pr.reads + pr.writes, 4u);
}

TEST(WorkloadDriver, PhasesNeverEnteredReadZero) {
  // Barnes–Hut reads every phase it defines; one a run skipped (or never
  // reached) must read as 0, not index past the storage entered so far.
  Machine m(2, 2);
  m.stats.setPhase(3, 10.0);
  m.stats.addCompute(5.0);
  m.stats.closePhases(25.0);
  EXPECT_DOUBLE_EQ(m.stats.wallUs(0), 10.0);
  EXPECT_DOUBLE_EQ(m.stats.wallUs(3), 15.0);
  EXPECT_DOUBLE_EQ(m.stats.computeUs(3), 5.0);
  for (const int skipped : {1, 2, 4, 9}) {
    EXPECT_DOUBLE_EQ(m.stats.wallUs(skipped), 0.0);
    EXPECT_DOUBLE_EQ(m.stats.computeUs(skipped), 0.0);
    EXPECT_EQ(m.stats.links.congestionMessages(skipped), 0u);
  }
}

TEST(WorkloadDriver, ValidatesSpec) {
  WorkloadSpec spec;  // no phases
  spec.numObjects = 4;
  EXPECT_THROW(workload::runOn(net::TopologySpec::mesh2d(2, 2),
                               RuntimeConfig::fixedHome(), spec),
               support::CheckError);
  spec.phases.push_back(PhaseSpec{.name = "p", .readFraction = 2.0});  // bad fraction
  EXPECT_THROW(spec.validate(), support::CheckError);
}

// --------------------------------------------------------------------------
// The A/B acceptance property (ISSUE 5): on the committed hotspot
// scenario, the access tree runs at lower max-link congestion than the
// fixed home baseline — on the mesh and on a GraphTopology shape. The
// hierarchy needs depth to spread load, so this is a 64-processor
// property (at 16 processors the tree is too shallow and the effect
// vanishes — scenarios/hotspot.scenario pins procs 64).
// --------------------------------------------------------------------------

void expectAccessTreeWinsCongestion(const net::TopologySpec& topo) {
  const WorkloadSpec spec = workload::loadScenarioFile(
      std::string(DIVA_SCENARIO_DIR) + "/hotspot.scenario");
  ASSERT_EQ(spec.procs, 64);
  const workload::WorkloadReport at =
      workload::runOn(topo, RuntimeConfig::accessTree(4), spec);
  const workload::WorkloadReport fh =
      workload::runOn(topo, RuntimeConfig::fixedHome(), spec);
  EXPECT_LT(at.congestionBytes, fh.congestionBytes) << "on " << topo.describe();
  EXPECT_LT(at.congestionMessages, fh.congestionMessages) << "on " << topo.describe();
}

TEST(WorkloadAB, AccessTreeBeatsFixedHomeOnMeshHotspot) {
  expectAccessTreeWinsCongestion(net::TopologySpec::mesh2d(8, 8));
}

TEST(WorkloadAB, AccessTreeBeatsFixedHomeOnGraphHotspot) {
  expectAccessTreeWinsCongestion(net::TopologySpec::graph(net::ringGraph(64)));
}

// --------------------------------------------------------------------------
// topologyByName (shared by scenario_runner, examples and benches)
// --------------------------------------------------------------------------

TEST(TopologyEnv, NamesResolveToSpecs) {
  EXPECT_EQ(net::topologyByName("mesh2d", 4, 4, true),
            net::TopologySpec::mesh2d(4, 4));
  EXPECT_EQ(net::topologyByName("torus2d", 2, 8, true),
            net::TopologySpec::torus2d(2, 8));
  EXPECT_EQ(net::topologyByName("hypercube", 4, 4, false),
            net::TopologySpec::hypercube(4));
  EXPECT_EQ(net::topologyByName("ring", 4, 4, false).graphSpec->numNodes, 16);
  EXPECT_EQ(net::topologyByName("star", 3, 3, false).graphSpec->numNodes, 9);
  EXPECT_EQ(net::topologyByName("random-regular", 4, 4, false).graphSpec->numNodes, 16);
  EXPECT_THROW(net::topologyByName("ring", 4, 4, /*requireGrid=*/true),
               support::CheckError);
  EXPECT_THROW(net::topologyByName("nonsense", 4, 4, false), support::CheckError);
  EXPECT_THROW(net::topologyByName("hypercube", 3, 5, false), support::CheckError);
}

}  // namespace
}  // namespace diva
