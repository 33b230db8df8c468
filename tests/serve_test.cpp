// The open-loop serving subsystem (docs/serving.md): latency-histogram
// quantiles against a sorted-sample oracle, portableLog accuracy,
// arrival-schedule determinism and rate recovery, request-trace format
// round-trips and rejections, the open-loop driver's accounting
// invariants (arrived = served + dropped, SLO deadline and queue-bound
// counters), and the scenario-format serving directives.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "serve/arrival.hpp"
#include "serve/latency_histogram.hpp"
#include "serve/trace.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/workload.hpp"

namespace diva {
namespace {

using serve::ArrivalSpec;
using serve::LatencyHistogram;
using support::SplitMix64;
using workload::PhaseSpec;
using workload::WorkloadSpec;

// --------------------------------------------------------------------------
// Latency histogram
// --------------------------------------------------------------------------

TEST(Histogram, QuantilesMatchSortedSampleOracle) {
  // Log-spaced buckets with 8 sub-buckets per octave are at most 12.5%
  // wide, and quantiles report the holding bucket's upper bound: the
  // result must bracket the exact order statistic from above within one
  // bucket width.
  LatencyHistogram h;
  SplitMix64 rng(2026);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    // Latencies spanning several orders of magnitude, like a real mix of
    // cache hits and queued misses.
    const double us = 0.05 * std::exp(rng.uniform() * 12.0);
    samples.push_back(us);
    h.record(us);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const std::size_t idx = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size()))) - 1;
    const double oracle = samples[idx];
    const double got = h.quantile(q);
    EXPECT_GE(got, oracle) << "q=" << q;
    EXPECT_LE(got, oracle * 1.125 + 1e-12) << "q=" << q;
  }
  EXPECT_EQ(h.quantile(0.0), samples.front());
  EXPECT_EQ(h.quantile(1.0), samples.back());
  EXPECT_EQ(h.count(), samples.size());
}

TEST(Histogram, EmptyReportsZeros) {
  const LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p999(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, SingleSampleIsEveryQuantile) {
  LatencyHistogram h;
  h.record(37.5);
  // The holding bucket's upper bound overshoots the one sample, but
  // quantiles clamp to the tracked exact max.
  for (const double q : {0.0, 0.5, 0.99, 1.0}) EXPECT_EQ(h.quantile(q), 37.5);
  EXPECT_EQ(h.mean(), 37.5);
}

TEST(Histogram, OverflowAndUnderflowKeepExactExtremes) {
  LatencyHistogram h;
  const double huge = LatencyHistogram::kMaxValue() * 4.0;
  h.record(0.0);  // below 2^-6 µs: underflow bucket
  h.record(huge);
  EXPECT_EQ(h.underflowCount(), 1u);
  EXPECT_EQ(h.overflowCount(), 1u);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  // The overflow bucket has no bound; the quantile must fall back to the
  // exact maximum instead of saturating at the range edge.
  EXPECT_EQ(h.quantile(1.0), huge);
}

TEST(Histogram, MergeEqualsRecordingEverythingInOne) {
  LatencyHistogram a, b, all;
  SplitMix64 rng(7);
  for (int i = 0; i < 3000; ++i) {
    const double us = rng.uniform(0.01, 5000.0);
    (i % 2 == 0 ? a : b).record(us);
    all.record(us);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  for (const double q : {0.5, 0.9, 0.99}) EXPECT_EQ(a.quantile(q), all.quantile(q));
}

TEST(Histogram, BucketBoundsBracketTheirValues) {
  SplitMix64 rng(11);
  for (int i = 0; i < 2000; ++i) {
    const double us = 0.02 * std::exp(rng.uniform() * 20.0);
    const int idx = LatencyHistogram::indexOf(us);
    EXPECT_GE(us, LatencyHistogram::lowerBound(idx));
    EXPECT_LT(us, LatencyHistogram::upperBound(idx));
  }
}

// --------------------------------------------------------------------------
// portableLog — the libm-free ln that makes Poisson schedules bit-stable
// --------------------------------------------------------------------------

TEST(PortableLog, MatchesLibmToAFewUlp) {
  SplitMix64 rng(3);
  for (int i = 0; i < 5000; ++i) {
    // The full range Poisson sampling exercises: uniform() ∈ [2^-53, 1].
    const double x = 1.0 - rng.uniform();
    const double got = serve::portableLog(x);
    const double want = std::log(x);
    EXPECT_NEAR(got, want, std::abs(want) * 1e-14 + 1e-15) << "x=" << x;
  }
  for (const double x : {1e-300, 1e-12, 0.5, 1.0, 2.0, 1e12, 1e299}) {
    EXPECT_NEAR(serve::portableLog(x), std::log(x), std::abs(std::log(x)) * 1e-14 + 1e-15);
  }
  EXPECT_THROW(serve::portableLog(0.0), support::CheckError);
  EXPECT_THROW(serve::portableLog(-1.0), support::CheckError);
}

// --------------------------------------------------------------------------
// Arrival schedules
// --------------------------------------------------------------------------

TEST(Arrivals, DeterministicAndStrictlyAscending) {
  ArrivalSpec spec;
  spec.kind = ArrivalSpec::Kind::Poisson;
  spec.ratePerSec = 50000.0;
  const auto a = serve::generateArrivals(spec, 500, 16, 42, 1, 3);
  const auto b = serve::generateArrivals(spec, 500, 16, 42, 1, 3);
  EXPECT_EQ(a, b);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
}

TEST(Arrivals, DistinctPerNodeAndPerPhase) {
  ArrivalSpec spec;
  spec.kind = ArrivalSpec::Kind::Poisson;
  spec.ratePerSec = 50000.0;
  const auto node3 = serve::generateArrivals(spec, 100, 16, 42, 1, 3);
  const auto node4 = serve::generateArrivals(spec, 100, 16, 42, 1, 4);
  const auto phase2 = serve::generateArrivals(spec, 100, 16, 42, 2, 3);
  EXPECT_NE(node3, node4);
  EXPECT_NE(node3, phase2);
}

TEST(Arrivals, PoissonRecoversTheMeanRate) {
  // One node carrying the whole aggregate rate: n exponential gaps sum to
  // ~n·mean, so the empirical rate is within a few σ (σ/mean = 1/√n).
  ArrivalSpec spec;
  spec.kind = ArrivalSpec::Kind::Poisson;
  spec.ratePerSec = 10000.0;
  const int n = 40000;
  const auto times = serve::generateArrivals(spec, n, 1, 9, 0, 0);
  const double empiricalRate = static_cast<double>(n) / times.back() * 1e6;
  EXPECT_NEAR(empiricalRate, spec.ratePerSec, spec.ratePerSec * 0.02);
}

TEST(Arrivals, FixedIsExactRoundRobin) {
  ArrivalSpec spec;
  spec.kind = ArrivalSpec::Kind::Fixed;
  spec.ratePerSec = 1e6;  // 1 µs aggregate tick
  const int procs = 8;
  for (const net::NodeId node : {0, 3, 7}) {
    const auto times = serve::generateArrivals(spec, 5, procs, 1, 0, node);
    for (int k = 0; k < 5; ++k) {
      EXPECT_DOUBLE_EQ(times[static_cast<std::size_t>(k)],
                       static_cast<double>(k * procs + node + 1));
    }
  }
}

TEST(Arrivals, BurstArrivalsLandInsideOnWindows) {
  ArrivalSpec spec;
  spec.kind = ArrivalSpec::Kind::Burst;
  spec.ratePerSec = 200000.0;
  spec.burstOnUs = 50.0;
  spec.burstOffUs = 150.0;
  const auto times = serve::generateArrivals(spec, 2000, 4, 17, 0, 2);
  const double cycle = spec.burstOnUs + spec.burstOffUs;
  for (const double t : times) {
    const double inCycle = t - std::floor(t / cycle) * cycle;
    EXPECT_LE(inCycle, spec.burstOnUs + 1e-6) << "t=" << t;
  }
}

TEST(Arrivals, ValidationRejectsNonsense) {
  ArrivalSpec spec;
  spec.ratePerSec = 10.0;  // rate without a kind
  EXPECT_THROW(spec.validate("test"), support::CheckError);
  spec.kind = ArrivalSpec::Kind::Poisson;
  spec.burstOnUs = 5.0;  // windows on a non-burst kind
  EXPECT_THROW(spec.validate("test"), support::CheckError);
  spec.burstOnUs = 0.0;
  spec.ratePerSec = 0.0;
  EXPECT_THROW(spec.validate("test"), support::CheckError);
  spec.kind = ArrivalSpec::Kind::Burst;
  spec.ratePerSec = 10.0;
  EXPECT_THROW(spec.validate("test"), support::CheckError);  // no windows
  spec.burstOnUs = 5.0;
  spec.burstOffUs = 5.0;
  spec.validate("test");
}

// --------------------------------------------------------------------------
// Request-trace format
// --------------------------------------------------------------------------

TEST(TraceFormat, RoundTripsExactly) {
  serve::Trace t;
  t.name = "sample";
  t.numObjects = 6;
  t.objectBytes = 256;
  t.requests = {{0.0, 0, true, 0},
                {12.5, 3, false, 5},
                {12.5, 1, true, 2},
                {100.125, 2, true, 4}};
  EXPECT_EQ(serve::parseTrace(serve::formatTrace(t)), t);
}

TEST(TraceFormat, ParsesCommentsAndDerivesObjectCount) {
  const serve::Trace t = serve::parseTrace(
      "# header comment\n"
      "trace demo\n"
      "0 1 r 4   # inline comment\n"
      "\n"
      "5.5 0 w 9\n");
  EXPECT_EQ(t.name, "demo");
  EXPECT_EQ(t.numObjects, 10);  // derived: max id + 1
  EXPECT_EQ(t.objectBytes, 64u);
  ASSERT_EQ(t.requests.size(), 2u);
  EXPECT_FALSE(t.requests[1].isRead);
}

TEST(TraceFormat, RejectsMalformedInput) {
  // Each entry: (text, why it must fail).
  const char* bad[] = {
      "0 1 x 4\n",              // unknown op
      "-1 1 r 4\n",             // negative time
      "5 1 r 4\n4 1 r 4\n",     // decreasing time
      "0 1 r 4 junk\n",         // trailing token
      "0 1 r\n",                // missing object
      "objects 3\n0 1 r 7\n",   // id outside declared population
      "objects 2\nobjects 2\n0 0 r 0\n",  // duplicate objects line
      "0 -2 r 4\n",             // negative node
      "0 1 r -4\n",             // negative object
      "garbage 1 r 4\n",        // unparsable time
      "trace demo\n",           // no requests at all
  };
  for (const char* text : bad) {
    EXPECT_THROW(serve::parseTrace(text), support::CheckError) << text;
  }
}

TEST(TraceFormat, NegativeSizesAndOverflowingTimesAreRejected) {
  // `objects 4 -1` used to wrap to a 2^64-1 byte payload; an arrival time
  // past sim::kMaxInputTime could make a later phase's clock infinite.
  const char* bad[] = {
      "objects 4 -1\n0 0 r 0\n",
      "0 0 r 0\n1e308 0 r 1\n",
  };
  for (const char* text : bad) {
    try {
      (void)serve::parseTrace(text);
      ADD_FAILURE() << "expected CheckError for: " << text;
    } catch (const support::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("trace file line "), std::string::npos)
          << e.what();
    }
  }
}

TEST(TraceFormat, LoadPrefixesErrorsWithThePath) {
  try {
    serve::loadTraceFile("/nonexistent/zzz.trace");
    FAIL() << "expected CheckError";
  } catch (const support::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("zzz.trace"), std::string::npos);
  }
}

// --------------------------------------------------------------------------
// Scenario directives for serving
// --------------------------------------------------------------------------

TEST(ScenarioServe, ArrivalDirectivesRoundTrip) {
  WorkloadSpec spec;
  spec.name = "serve";
  spec.numObjects = 8;
  PhaseSpec open;
  open.name = "poisson";
  open.rounds = 4;
  open.arrival.kind = ArrivalSpec::Kind::Poisson;
  open.arrival.ratePerSec = 12000.0;
  open.deadlineUs = 500.0;
  spec.phases.push_back(open);
  PhaseSpec burst;
  burst.name = "burst";
  burst.rounds = 2;
  burst.arrival.kind = ArrivalSpec::Kind::Burst;
  burst.arrival.ratePerSec = 30000.0;
  burst.arrival.burstOnUs = 100.0;
  burst.arrival.burstOffUs = 400.0;
  burst.queueLimit = 4;
  spec.phases.push_back(burst);
  PhaseSpec replay;
  replay.name = "replay";
  replay.tracePath = "some.trace";
  spec.phases.push_back(replay);
  EXPECT_EQ(workload::parseScenario(workload::formatScenario(spec)), spec);
}

TEST(ScenarioServe, ParsesTheServingGrammar) {
  const WorkloadSpec spec = workload::parseScenario(
      "objects 8\n"
      "phase p\n"
      "rounds 3\n"
      "arrival burst 5000 20 80\n"
      "deadline 1500\n"
      "queue 6\n");
  ASSERT_EQ(spec.phases.size(), 1u);
  const PhaseSpec& ph = spec.phases[0];
  EXPECT_EQ(ph.arrival.kind, ArrivalSpec::Kind::Burst);
  EXPECT_EQ(ph.arrival.ratePerSec, 5000.0);
  EXPECT_EQ(ph.arrival.burstOnUs, 20.0);
  EXPECT_EQ(ph.arrival.burstOffUs, 80.0);
  EXPECT_EQ(ph.deadlineUs, 1500.0);
  EXPECT_EQ(ph.queueLimit, 6);
  EXPECT_TRUE(ph.openLoop());
}

TEST(ScenarioServe, RejectsBadServingDirectives) {
  const char* bad[] = {
      // Unknown arrival kind.
      "objects 4\nphase p\narrival uniform 100\n",
      // Burst without windows.
      "objects 4\nphase p\narrival burst 100\n",
      // Arrival before any phase.
      "objects 4\narrival poisson 100\nphase p\n",
      // Think time on an open-loop phase (the schedule is the pacing).
      "objects 4\nphase p\nthink 50\narrival poisson 100\n",
      // Deadline on a closed-loop phase.
      "objects 4\nphase p\ndeadline 100\n",
      // Queue bound on a closed-loop phase.
      "objects 4\nphase p\nqueue 4\n",
      // Trace phase with generator keys.
      "objects 4\nphase p\nrounds 5\ntrace t.trace\n",
      // Trace combined with generated arrivals.
      "objects 4\nphase p\narrival poisson 100\ntrace t.trace\n",
  };
  for (const char* text : bad) {
    EXPECT_THROW(workload::parseScenario(text), support::CheckError) << text;
  }
}

// --------------------------------------------------------------------------
// Open-loop driver
// --------------------------------------------------------------------------

WorkloadSpec smallOpenLoopSpec() {
  WorkloadSpec spec;
  spec.name = "serve-test";
  spec.numObjects = 12;
  spec.objectBytes = 64;
  spec.seed = 99;
  PhaseSpec ph;
  ph.name = "open";
  ph.rounds = 8;
  ph.readFraction = 0.75;
  ph.zipfS = 1.0;
  ph.arrival.kind = ArrivalSpec::Kind::Poisson;
  ph.arrival.ratePerSec = 20000.0;
  spec.phases.push_back(ph);
  return spec;
}

TEST(OpenLoopDriver, AccountingIsConservative) {
  const WorkloadSpec spec = smallOpenLoopSpec();
  const workload::WorkloadReport r = workload::runOn(
      net::TopologySpec::mesh2d(4, 4), RuntimeConfig::accessTree(4, 1), spec);
  ASSERT_TRUE(r.serve.active);
  EXPECT_EQ(r.serve.arrived, 16u * 8u);  // every scheduled request arrived
  EXPECT_EQ(r.serve.served + r.serve.dropped, r.serve.arrived);
  EXPECT_EQ(r.serve.dropped, 0u);  // no queue bound, no faults
  EXPECT_LE(r.serve.late, r.serve.served);
  EXPECT_GE(r.serve.maxInFlight, 1);
  EXPECT_GT(r.serve.achievedPerSec, 0.0);
  ASSERT_EQ(r.phases.size(), 1u);
  EXPECT_TRUE(r.phases[0].serve.active);
  EXPECT_EQ(r.phases[0].serve.served, r.serve.served);
}

TEST(OpenLoopDriver, ClosedLoopPhasesStayInactive) {
  WorkloadSpec spec = smallOpenLoopSpec();
  spec.phases[0].arrival = {};
  const workload::WorkloadReport r = workload::runOn(
      net::TopologySpec::mesh2d(4, 4), RuntimeConfig::accessTree(4, 1), spec);
  EXPECT_FALSE(r.serve.active);
  EXPECT_FALSE(r.phases[0].serve.active);
  EXPECT_EQ(r.serve.arrived, 0u);
}

TEST(OpenLoopDriver, ReportIsDeterministic) {
  const WorkloadSpec spec = smallOpenLoopSpec();
  const auto topo = net::TopologySpec::mesh2d(4, 4);
  const workload::WorkloadReport a =
      workload::runOn(topo, RuntimeConfig::fixedHome(), spec);
  const workload::WorkloadReport b =
      workload::runOn(topo, RuntimeConfig::fixedHome(), spec);
  EXPECT_EQ(workload::formatReport(a), workload::formatReport(b));
}

TEST(OpenLoopDriver, TinyDeadlineMarksMissesLate) {
  WorkloadSpec spec = smallOpenLoopSpec();
  spec.phases[0].deadlineUs = 1e-9;  // any positive latency is late
  const workload::WorkloadReport r = workload::runOn(
      net::TopologySpec::mesh2d(4, 4), RuntimeConfig::accessTree(4, 1), spec);
  // First touches miss and cross the network, so some requests take real
  // simulated time; cache hits at the arrival instant stay on time.
  EXPECT_GT(r.serve.late, 0u);
  EXPECT_LE(r.serve.late, r.serve.served);
}

TEST(OpenLoopDriver, QueueBoundShedsUnderOverload) {
  WorkloadSpec spec = smallOpenLoopSpec();
  spec.phases[0].rounds = 32;
  spec.phases[0].arrival.ratePerSec = 5e6;  // far past saturation
  spec.phases[0].queueLimit = 1;
  const workload::WorkloadReport r = workload::runOn(
      net::TopologySpec::mesh2d(4, 4), RuntimeConfig::accessTree(4, 1), spec);
  EXPECT_GT(r.serve.dropped, 0u);
  EXPECT_EQ(r.serve.served + r.serve.dropped, r.serve.arrived);
}

TEST(OpenLoopDriver, TraceReplayDrivesTheRun) {
  const std::string path = testing::TempDir() + "serve_test_replay.trace";
  {
    std::ofstream out(path);
    out << "trace replay\nobjects 4 64\n";
    // 3 reads and 2 writes spread over 4 of 16 nodes.
    out << "0 0 r 1\n10 5 w 2\n20 9 r 0\n30 5 r 3\n40 12 w 1\n";
  }
  WorkloadSpec spec;
  spec.name = "replay-test";
  spec.numObjects = 4;
  spec.seed = 5;
  PhaseSpec ph;
  ph.name = "replay";
  ph.tracePath = path;
  spec.phases.push_back(ph);
  const workload::WorkloadReport r = workload::runOn(
      net::TopologySpec::mesh2d(4, 4), RuntimeConfig::fixedHome(), spec);
  EXPECT_EQ(r.serve.arrived, 5u);
  EXPECT_EQ(r.serve.served, 5u);
  ASSERT_EQ(r.phases.size(), 1u);
  EXPECT_EQ(r.phases[0].reads, 3u);
  EXPECT_EQ(r.phases[0].writes, 2u);
  std::remove(path.c_str());
}

TEST(OpenLoopDriver, OpenLoopAtBuildsSweepRungs) {
  WorkloadSpec spec;
  spec.numObjects = 8;
  PhaseSpec think;
  think.name = "closed";
  think.rounds = 4;
  think.thinkMeanUs = 100.0;
  spec.phases.push_back(think);
  PhaseSpec replay;
  replay.name = "replay";
  replay.tracePath = "x.trace";
  spec.phases.push_back(replay);
  const WorkloadSpec open = workload::openLoopAt(spec, 5000.0);
  for (const PhaseSpec& ph : open.phases) {
    EXPECT_EQ(ph.arrival.kind, ArrivalSpec::Kind::Poisson);
    EXPECT_EQ(ph.arrival.ratePerSec, 5000.0);
    EXPECT_EQ(ph.thinkMeanUs, 0.0);
    EXPECT_TRUE(ph.tracePath.empty());
  }
}

// --------------------------------------------------------------------------
// Scenario-load preflight & overflow-tail quantiles (regressions)
// --------------------------------------------------------------------------

TEST(ScenarioServe, UnreadableTraceFailsAtLoadWithItsPath) {
  // Regression: a scenario pointing at a missing trace file used to get
  // past loading and blow up mid-run with macro noise. It must now fail
  // at load time with a message naming the phase and the resolved trace
  // path — what scenario_runner prints before exiting 3.
  const std::string dir = testing::TempDir();
  const std::string path = dir + "serve_test_broken.scenario";
  {
    std::ofstream out(path);
    out << "scenario broken\nobjects 4\nphase replay\ntrace no_such_file.trace\n";
  }
  try {
    (void)workload::loadScenarioFile(path);
    FAIL() << "missing trace must fail at load";
  } catch (const support::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cannot open trace file"), std::string::npos) << what;
    EXPECT_NE(what.find("replay"), std::string::npos) << what;
    EXPECT_NE(what.find("no_such_file.trace"), std::string::npos) << what;
    EXPECT_EQ(what.find("check failed"), std::string::npos)
        << "load error must read as a file problem, not an assertion: " << what;
  }
  std::remove(path.c_str());
}

TEST(ScenarioServe, TopologyDirectiveRoundTrips) {
  const WorkloadSpec spec = workload::parseScenario(
      "scenario shaped\nobjects 4\nprocs 32\ntopology hier-random-regular\n"
      "phase p\nrounds 1\n");
  EXPECT_EQ(spec.topology, "hier-random-regular");
  const WorkloadSpec again = workload::parseScenario(workload::formatScenario(spec));
  EXPECT_EQ(again, spec);
  // Multi-token shapes are rejected at validation.
  EXPECT_THROW(workload::parseScenario("objects 4\ntopology two words\nphase p\n"),
               support::CheckError);
}

TEST(Histogram, OverflowBucketQuantilesReportTheExactTail) {
  // All samples ≥ 2^26 µs land in one unbounded bucket; every quantile
  // that falls into it must report the tracked exact maximum rather than
  // the range edge.
  LatencyHistogram h;
  const double lo = LatencyHistogram::kMaxValue();
  for (int i = 0; i < 100; ++i) h.record(lo + i * 1e6);
  const double exactMax = lo + 99 * 1e6;
  for (const double q : {0.5, 0.9, 0.99, 1.0}) EXPECT_EQ(h.quantile(q), exactMax);
  EXPECT_EQ(h.overflowCount(), 100u);
  EXPECT_EQ(h.max(), exactMax);

  // A mixed population: the median stays in range, the tail is exact.
  LatencyHistogram m;
  for (int i = 0; i < 99; ++i) m.record(10.0);
  m.record(lo * 8.0);
  EXPECT_LT(m.quantile(0.5), 16.0);
  EXPECT_EQ(m.quantile(1.0), lo * 8.0);
}

TEST(Histogram, ZeroSampleQuantileIsZeroForEveryQ) {
  const LatencyHistogram h;
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) EXPECT_EQ(h.quantile(q), 0.0);
}

}  // namespace
}  // namespace diva
