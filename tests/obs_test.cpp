// Observability subsystem (src/obs/): tracer determinism and category
// filtering, the pure-observer contract (tracing ON leaves the golden
// delivery-trace hash untouched), the serve⊃txn span taxonomy of the
// open-loop driver, sampler interval accounting, and the registry's JSON
// rendering that --report-json and registerReport share.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "diva/machine.hpp"
#include "diva/runtime.hpp"
#include "net/topology_env.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/tracer.hpp"
#include "support/check.hpp"
#include "workload/scenario.hpp"
#include "workload/workload.hpp"

namespace diva {
namespace {

using workload::PhaseSpec;
using workload::WorkloadSpec;

// --------------------------------------------------------------------------
// Categories
// --------------------------------------------------------------------------

TEST(ObsCategories, ParseNamesAndAll) {
  EXPECT_EQ(obs::parseCategories("txn"), obs::kCatTxn);
  EXPECT_EQ(obs::parseCategories("txn,fault"), obs::kCatTxn | obs::kCatFault);
  EXPECT_EQ(obs::parseCategories("migration,reconfig,repair"),
            obs::kCatMigration | obs::kCatReconfig | obs::kCatRepair);
  EXPECT_EQ(obs::parseCategories("all"), obs::kCatAll);
  EXPECT_THROW(obs::parseCategories("bogus"), support::CheckError);
  EXPECT_THROW(obs::parseCategories("txn,,fault"), support::CheckError);
}

TEST(ObsCategories, NamesRoundTripThroughBits) {
  for (int bit = 0; bit < obs::kNumCats; ++bit) {
    EXPECT_EQ(obs::parseCategories(obs::catName(bit)), obs::Cat{1u} << bit);
  }
}

// --------------------------------------------------------------------------
// Tracer on the committed elastic scenario (reconfig epochs, per-variable
// migrations, phase extents — the ISSUE's acceptance shape)
// --------------------------------------------------------------------------

WorkloadSpec elasticSpec() {
  return workload::loadScenarioFile(std::string(DIVA_SCENARIO_DIR) +
                                    "/elastic.scenario");
}

/// The shape scenario_runner resolves for `topology random-regular` at 16
/// procs (gridShape(16) → 4×4).
net::TopologySpec elasticTopo() {
  return net::topologyByName("random-regular", 4, 4, /*requireGrid=*/false);
}

std::string tracedElasticJson(obs::Cat mask, obs::Tracer* keep = nullptr) {
  obs::Tracer local;
  obs::Tracer& tracer = keep != nullptr ? *keep : local;
  workload::RunOptions opts;
  opts.tracer = &tracer;
  opts.traceMask = mask;
  (void)workload::runOn(elasticTopo(), RuntimeConfig::accessTree(4), elasticSpec(),
                        opts);
  return tracer.toChromeJson();
}

TEST(ObsTracer, TracedElasticRunIsByteDeterministic) {
  obs::Tracer tracer;
  const std::string a = tracedElasticJson(obs::kCatAll, &tracer);
  const std::string b = tracedElasticJson(obs::kCatAll);
  EXPECT_GT(tracer.numRecords(), 0u);
  EXPECT_EQ(a, b) << "same run, different trace bytes";
  // The acceptance shape: reconfiguration epoch spans on the machine
  // track, per-variable migration handoffs, phase extents.
  EXPECT_GT(tracer.numRecords(obs::kCatReconfig), 0u);
  EXPECT_GT(tracer.numRecords(obs::kCatMigration), 0u);
  EXPECT_GT(tracer.numRecords(obs::kCatPhase), 0u);
  EXPECT_NE(a.find("\"name\":\"epoch\""), std::string::npos);
  EXPECT_NE(a.find("\"name\":\"migrate\""), std::string::npos);
  EXPECT_NE(a.find("\"name\":\"phase:rewire\""), std::string::npos);
}

TEST(ObsTracer, CategoryMaskBoundsRecordingAtTheSource) {
  obs::Tracer tracer;
  (void)tracedElasticJson(obs::kCatMigration | obs::kCatReconfig, &tracer);
  EXPECT_GT(tracer.numRecords(obs::kCatMigration), 0u);
  EXPECT_GT(tracer.numRecords(obs::kCatReconfig), 0u);
  EXPECT_EQ(tracer.numRecords(obs::kCatMigration) +
                tracer.numRecords(obs::kCatReconfig),
            tracer.numRecords())
      << "a disabled category still recorded";
  EXPECT_EQ(tracer.numRecords(obs::kCatTxn), 0u);
  EXPECT_EQ(tracer.numRecords(obs::kCatServe), 0u);
}

// --------------------------------------------------------------------------
// Pure-observer contract: tracing ON must not move the simulated model.
// Same harness as the determinism suite's hotspot golden; same committed
// hash, now with every category recording.
// --------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(ObsTracer, TracingOnLeavesTheGoldenDeliveryHashUnchanged) {
  const WorkloadSpec wl = workload::loadScenarioFile(std::string(DIVA_SCENARIO_DIR) +
                                                     "/hotspot.scenario");
  const net::TopologySpec spec = net::TopologySpec::mesh2d(8, 8);
  Machine m(spec);
  Runtime rt(m, RuntimeConfig::accessTree(4, 1, wl.seed).on(spec));
  std::uint64_t hash = 14695981039346656037ull;
  m.net.setDeliveryProbe([&hash](sim::Time t, NodeId node, net::Channel ch) {
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(t));
    hash = fnv1a(hash, static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)));
    hash = fnv1a(hash, static_cast<std::uint64_t>(ch));
  });
  obs::Tracer tracer;
  tracer.enable(m.engine);
  workload::RunOptions opts;
  opts.tracer = &tracer;
  (void)workload::run(m, rt, wl, opts);
  EXPECT_GT(tracer.numRecords(), 0u);
  // The committed golden from the determinism suite — tracing is a pure
  // observer, so the simulated model must be bit-identical.
  EXPECT_EQ(hash, 0x22c46d1f015b5bc6ull)
      << "tracing perturbed the simulated model: 0x" << std::hex << hash;
}

// --------------------------------------------------------------------------
// Span taxonomy: both drivers issue through one path, so an open-loop
// request's `serve` span wraps the same `txn` spans a closed-loop access
// emits.
// --------------------------------------------------------------------------

/// Value of `key` in one Chrome trace-event line (the writer emits one
/// event per line); "" when absent.
std::string eventField(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) return "";
  const std::size_t b = at + pat.size();
  if (line[b] == '"') return line.substr(b + 1, line.find('"', b + 1) - b - 1);
  return line.substr(b, line.find_first_of(",}", b) - b);
}

TEST(ObsTracer, OpenLoopTxnSpansNestInsideServeSpans) {
  obs::Tracer tracer;
  workload::RunOptions opts;
  opts.tracer = &tracer;
  (void)workload::runOn(
      net::TopologySpec::mesh2d(8, 8), RuntimeConfig::accessTree(4),
      workload::loadScenarioFile(std::string(DIVA_SCENARIO_DIR) + "/openloop.scenario"),
      opts);
  // Replay the sync spans per track, checking what each txn span opens in.
  struct Open {
    std::string cat;
    int txns = 0;  ///< read / write-txn spans opened directly inside
  };
  std::map<std::string, std::vector<Open>> tracks;
  int serves = 0, reads = 0, writes = 0;
  std::istringstream in(tracer.toChromeJson());
  for (std::string line; std::getline(in, line);) {
    const std::string ph = eventField(line, "ph");
    if (ph != "B" && ph != "E") continue;
    std::vector<Open>& open = tracks[eventField(line, "tid")];
    const std::string cat = eventField(line, "cat");
    if (ph == "E") {
      ASSERT_FALSE(open.empty()) << line;
      ASSERT_EQ(open.back().cat, cat) << line;
      if (cat == "serve") {
        ++serves;
        EXPECT_EQ(open.back().txns, 1) << "a serve span wraps exactly one transaction";
      }
      open.pop_back();
      continue;
    }
    const std::string name = eventField(line, "name");
    if (cat == "txn" && (name == "read" || name == "write-txn")) {
      ASSERT_FALSE(open.empty()) << name << " span outside any serve span: " << line;
      EXPECT_EQ(open.back().cat, "serve") << line;
      ++open.back().txns;
      ++(name == "read" ? reads : writes);
    }
    open.push_back({cat});
  }
  EXPECT_GT(serves, 0);
  EXPECT_GT(reads, 0);
  EXPECT_GT(writes, 0);
  EXPECT_EQ(reads + writes, serves);
}

TEST(ObsTracer, HandoffSpansPairUnderBothStrategies) {
  // crash_reconfig parks crash repairs and epoch migrations on the same
  // objects; every repair/migrate span its handoff messages open must be
  // closed by exactly one arrival, under either strategy.
  const WorkloadSpec wl = workload::loadScenarioFile(std::string(DIVA_SCENARIO_DIR) +
                                                     "/crash_reconfig.scenario");
  for (const RuntimeConfig& rc :
       {RuntimeConfig::accessTree(4), RuntimeConfig::fixedHome()}) {
    SCOPED_TRACE(rc.kind == StrategyKind::AccessTree ? "access tree" : "fixed home");
    obs::Tracer tracer;
    workload::RunOptions opts;
    opts.tracer = &tracer;
    opts.traceMask = obs::kCatRepair | obs::kCatMigration;
    (void)workload::runOn(elasticTopo(), rc, wl, opts);
    std::map<std::string, int> begins;             // per category
    std::map<std::vector<std::string>, int> open;  // (cat, name, id) → open spans
    std::istringstream in(tracer.toChromeJson());
    for (std::string line; std::getline(in, line);) {
      const std::string ph = eventField(line, "ph");
      if (ph != "b" && ph != "e") continue;
      const std::string cat = eventField(line, "cat");
      ASSERT_TRUE(cat == "repair" || cat == "migration") << line;
      const std::vector<std::string> key{cat, eventField(line, "name"),
                                         eventField(line, "id")};
      if (ph == "b") {
        ++begins[cat];
        ++open[key];
      } else {
        ASSERT_GT(open[key], 0) << "end without an open begin: " << line;
        --open[key];
      }
    }
    EXPECT_GT(begins["repair"], 0);
    EXPECT_GT(begins["migration"], 0);
    for (const auto& [key, n] : open)
      EXPECT_EQ(n, 0) << key[0] << " span '" << key[1] << "' id " << key[2]
                      << " left open";
  }
}

// --------------------------------------------------------------------------
// Chrome JSON structure
// --------------------------------------------------------------------------

TEST(ObsTracer, ChromeJsonCarriesTrackMetadataAndBalancedSpans) {
  sim::Engine e;
  obs::Tracer t;
  t.enable(e);
  t.begin(obs::kCatTxn, 0, "read", 7);
  e.scheduleAt(3.5, [&t] { t.end(obs::kCatTxn, 0); });
  e.scheduleAt(5.0, [&t] {
    t.instant(obs::kCatFault, 2, "node-down");
    t.beginAsync(obs::kCatMigration, 1, "migrate", 42);
  });
  e.scheduleAt(9.0, [&t] { t.endAsync(obs::kCatMigration, 2, "migrate", 42); });
  e.run();
  const std::string json = t.toChromeJson();
  EXPECT_EQ(json, t.toChromeJson());
  // Per-track thread metadata (track n → tid n+1) and every phase type.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"node 0\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"v\":7}"), std::string::npos);
  EXPECT_NE(json.find("\"id\":42"), std::string::npos);
}

TEST(ObsTracer, DisabledTracerRecordsNothing) {
  obs::Tracer t;  // never enabled
  t.begin(obs::kCatTxn, 0, "read");
  t.end(obs::kCatTxn, 0);
  t.instant(obs::kCatFault, 1, "x");
  t.beginAsync(obs::kCatMigration, 0, "m", 1);
  t.endAsync(obs::kCatMigration, 0, "m", 1);
  EXPECT_EQ(t.numRecords(), 0u);
  // Only the constant process metadata; no event records.
  EXPECT_EQ(t.toChromeJson(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
            "\"args\":{\"name\":\"diva\"}}\n]}\n");
}

// --------------------------------------------------------------------------
// Sampler interval accounting
// --------------------------------------------------------------------------

TEST(ObsSampler, SamplesAreBoundariesPlusFloorOfSpanOverInterval) {
  sim::Engine e;
  obs::Sampler s;
  s.configure(e, 100.0);
  s.registry().value("x", 7.0);
  s.phaseBegin(0);
  e.scheduleAt(1050.5, [] {});  // the phase's last model event
  e.run();
  s.phaseEnd();
  // Boundary at t=0, interior ticks at 100..1000 (floor(1050.5/100) = 10;
  // the tick at 1100 finds the queue drained and stops the chain), and
  // the end boundary: 12 samples, one row each (one metric, no machine).
  EXPECT_EQ(s.samplesTaken(), 12u);
  EXPECT_EQ(s.numRows(), 12u);
}

TEST(ObsSampler, PhaseScopedRowsKeepTheirPhaseIndex) {
  sim::Engine e;
  obs::Sampler s;
  s.configure(e, 50.0);
  s.registry().value("x", 1.0);
  for (int p = 0; p < 2; ++p) {
    s.phaseBegin(p);
    e.scheduleAt(e.now() + 120.0, [] {});
    e.run();
    s.phaseEnd();
  }
  // Per phase: begin boundary + interior ticks at +50,+100 + end = 4.
  EXPECT_EQ(s.samplesTaken(), 8u);
  std::ostringstream csv;
  s.writeCsv(csv);
  const std::string text = csv.str();
  EXPECT_EQ(text.compare(0, 26, "time_us,phase,metric,value"), 0);
  EXPECT_NE(text.find(",0,x,1"), std::string::npos);
  EXPECT_NE(text.find(",1,x,1"), std::string::npos);
}

TEST(ObsSampler, WorkloadRunEmitsPerLinkCongestionRows) {
  WorkloadSpec spec;
  spec.name = "tiny";
  spec.numObjects = 8;
  spec.objectBytes = 64;
  spec.seed = 7;
  spec.phases.push_back(PhaseSpec{
      .name = "only", .rounds = 6, .readFraction = 0.5, .thinkMeanUs = 50.0});
  obs::Sampler sampler;
  workload::RunOptions opts;
  opts.sampler = &sampler;
  opts.sampleIntervalUs = 200.0;
  (void)workload::runOn(net::TopologySpec::mesh2d(2, 2), RuntimeConfig::accessTree(4),
                        spec, opts);
  EXPECT_GE(sampler.samplesTaken(), 2u);  // at least the two boundaries
  std::ostringstream csv;
  sampler.writeCsv(csv);
  const std::string text = csv.str();
  // Directed per-link heatmap rows named by endpoints, plus the standard
  // machine gauges.
  EXPECT_NE(text.find("link/0>1/messages"), std::string::npos);
  EXPECT_NE(text.find("link/3>2/messages"), std::string::npos);
  EXPECT_NE(text.find("ops/reads"), std::string::npos);
  EXPECT_NE(text.find("net/availability"), std::string::npos);
  EXPECT_NE(text.find("engine/queue_ring_events"), std::string::npos);
}

// --------------------------------------------------------------------------
// Registry JSON and the unified report rendering
// --------------------------------------------------------------------------

TEST(ObsRegistry, JsonFoldsPathsAndIndexRunsIntoArrays) {
  obs::MetricsRegistry reg;
  reg.text("run/name", "x\"y");
  reg.value("run/n", 3.0);
  reg.value("phase/0/a", 1.0);
  reg.value("phase/1/a", 2.5);
  reg.value("top", 4.0);
  EXPECT_EQ(reg.toJson(),
            "{\"run\":{\"name\":\"x\\\"y\",\"n\":3},"
            "\"phase\":[{\"a\":1},{\"a\":2.5}],\"top\":4}");
  EXPECT_EQ(obs::MetricsRegistry{}.toJson(), "{}");
}

TEST(ObsRegistry, MarkTruncateScopesPhaseLifetimeEntries) {
  obs::MetricsRegistry reg;
  reg.value("a", 1.0);
  const std::size_t mark = reg.mark();
  int inFlight = 3;
  reg.gauge("serve/in_flight", [&inFlight] { return double(inFlight); });
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.numberAt(1), 3.0);
  reg.truncate(mark);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ObsReport, JsonSharesTheTextReportsSourceOfTruth) {
  WorkloadSpec spec;
  spec.name = "tiny";
  spec.numObjects = 8;
  spec.objectBytes = 64;
  spec.seed = 7;
  spec.phases.push_back(PhaseSpec{.name = "only", .rounds = 4, .readFraction = 0.5});
  const workload::WorkloadReport r = workload::runOn(
      net::TopologySpec::mesh2d(2, 2), RuntimeConfig::accessTree(4), spec);
  const std::string json = workload::reportJson(r);
  EXPECT_EQ(json, workload::reportJson(r)) << "report JSON not deterministic";
  // Spot checks against the report the text table renders from.
  EXPECT_NE(json.find("\"run\":{\"workload\":\"tiny\""), std::string::npos);
  EXPECT_NE(json.find("\"strategy\":\"4-ary access tree\""), std::string::npos);
  EXPECT_NE(json.find("\"injected\":" + std::to_string(r.injected)), std::string::npos);
  EXPECT_NE(json.find("\"phase\":[{\"name\":\"only\""), std::string::npos);
  EXPECT_NE(json.find("\"reads\":" + std::to_string(r.phases[0].reads)),
            std::string::npos);
  // Closed-loop run: no serve subobject anywhere.
  EXPECT_EQ(json.find("\"serve\""), std::string::npos);
}

}  // namespace
}  // namespace diva
