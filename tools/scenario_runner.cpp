// Scenario runner: the strategy A/B harness over declarative synthetic
// workloads. Loads a scenario file (src/workload/scenario.hpp format),
// runs it under the access-tree strategy and the fixed-home baseline on
// the same machine shape and seed, and prints per-phase reports plus the
// A/B comparison table — the paper's access-tree vs fixed-home congestion
// and traffic ratios, measurable on arbitrary synthetic traffic.
//
//   $ scenario_runner scenarios/hotspot.scenario
//   $ DIVA_TOPOLOGY=random-regular scenario_runner scenarios/hotspot.scenario
//   $ scenario_runner scenarios/openloop.scenario --max-p99-us 40000
//   $ scenario_runner scenarios/hotspot.scenario --sweep 2e4:2e6:7
//
// Options:
//   --procs N   machine size (default: the scenario's `procs`, else 64;
//               ignored for graph:<file> shapes, whose size is the file's)
//   --arity N   access-tree arity ℓ ∈ {2, 4, 16}   (default 4)
//   --leaf K    access-tree leaf cluster size      (default 1)
//   --min-availability F
//               gate: fail unless BOTH strategies serve at least fraction
//               F of operations (faulted scenarios; docs/faults.md)
//   --max-p99-us X
//               gate: fail unless BOTH strategies' run-total open-loop
//               p99 latency is at most X µs (docs/serving.md) — the CI
//               gate for committed open-loop scenarios
//   --sweep LO:HI:N
//               saturation sweep (docs/serving.md): instead of running
//               the scenario as written, run N open-loop variants with
//               aggregate Poisson arrivals on a geometric ladder of
//               offered rates from LO to HI req/s, and print the
//               offered-vs-achieved/p99 table per strategy plus
//               machine-readable `SWEEP rung=...` lines (each carrying
//               availability too, so faulted/reconfigured sweeps expose
//               the latency-vs-availability trade-off per rung)
//   --capture-trace <path>
//               record the access-tree run's request stream to <path> in
//               the request-trace format (docs/serving.md `t node op
//               object` lines, times relative to the run start) — the
//               file replays through a `trace` phase
//   --trace-json <path>
//               record the access-tree run as Chrome trace-event JSON
//               (docs/observability.md) — open in Perfetto or
//               chrome://tracing; the fixed-home run is not traced
//   --trace-categories a,b
//               restrict --trace-json to the named categories
//               (txn,serve,migration,repair,reconfig,fault,net,phase;
//               default all)
//   --metrics-out <path>
//               sample the access-tree run's metrics registry on a
//               simulated-time interval and write the long-form time
//               series to <path> — JSON when the path ends in .json,
//               CSV otherwise (docs/observability.md)
//   --sample-interval-us N
//               sampling interval for --metrics-out in simulated µs
//               (default 1000)
//   --report-json
//               after the text reports, print both whole reports as one
//               JSON object {"access_tree":…, "fixed_home":…} — same
//               values as the text tables, one source of truth
//   --help      print this usage to stdout and exit 0
// Shape comes from DIVA_TOPOLOGY (mesh2d | torus2d | hypercube | ring |
// star | random-regular | graph:<path> | hier-<graph shape>), else the
// scenario's own `topology` directive, else mesh2d.
//
// Exit codes: 0 success · 1 a gate (--min-availability / --max-p99-us)
// failed · 2 bad usage · 3 scenario/trace file malformed or unrunnable.
//
// Output is deterministic: same scenario, shape and build → byte-identical
// text (the determinism suite pins one committed scenario by trace hash).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "net/topology_env.hpp"
#include "obs/sampler.hpp"
#include "obs/tracer.hpp"
#include "serve/trace.hpp"
#include "support/check.hpp"
#include "support/text_file.hpp"
#include "workload/scenario.hpp"
#include "workload/workload.hpp"

using namespace diva;

namespace {

const char kUsage[] =
    "usage: %s <scenario-file> [--procs N] [--arity N] [--leaf K]\n"
    "       [--min-availability F] [--max-p99-us X] [--sweep LO:HI:N]\n"
    "       [--capture-trace <path>] [--trace-json <path>]\n"
    "       [--trace-categories a,b] [--metrics-out <path>]\n"
    "       [--sample-interval-us N] [--report-json] [--help]\n"
    "       (machine shape from DIVA_TOPOLOGY; see file header)\n"
    "exit codes: 0 ok, 1 gate failed, 2 bad usage, 3 bad scenario file\n";

int usage(const char* argv0) {
  std::fprintf(stderr, kUsage, argv0);
  return 2;
}

/// rows×cols ≈ square factorization of P, rows ≤ cols (1×P when prime —
/// still a valid mesh).
void gridShape(int procs, int& rows, int& cols) {
  rows = 1;
  for (int r = 1; r <= procs / r; ++r)
    if (procs % r == 0) rows = r;
  cols = procs / rows;
}

/// Parse "LO:HI:N" into a geometric ladder of N offered rates from LO to
/// HI inclusive; empty on malformed input.
std::vector<double> sweepLadder(const std::string& arg) {
  double lo = 0.0, hi = 0.0;
  int n = 0;
  char extra = 0;
  if (std::sscanf(arg.c_str(), "%lf:%lf:%d%c", &lo, &hi, &n, &extra) != 3) return {};
  if (!(lo > 0.0) || !(hi >= lo) || n < 1) return {};
  if (n == 1) return {lo};
  std::vector<double> rungs(static_cast<std::size_t>(n));
  const double step = std::pow(hi / lo, 1.0 / (n - 1));
  double r = lo;
  for (int i = 0; i < n; ++i, r *= step) rungs[static_cast<std::size_t>(i)] = r;
  rungs.back() = hi;  // pin the endpoint against accumulated rounding
  return rungs;
}

/// Run the sweep: N open-loop Poisson variants of `spec` on a geometric
/// rate ladder, both strategies per rung. Prints a human table per
/// strategy (achieved rate and latency percentiles per rung, the knee
/// visible as the widening offered/achieved gap) plus one machine-
/// readable `SWEEP` line per rung for bench tooling to harvest.
int runSweep(const workload::WorkloadSpec& spec, const net::TopologySpec& topo,
             int arity, int leaf, const std::vector<double>& rungs) {
  struct Rung {
    double offered;
    workload::ServeMetrics at;
    workload::ServeMetrics fh;
    double atAvail;
    double fhAvail;
  };
  std::vector<Rung> results;
  results.reserve(rungs.size());
  for (double rate : rungs) {
    const workload::WorkloadSpec open = workload::openLoopAt(spec, rate);
    const workload::WorkloadReport at =
        workload::runOn(topo, RuntimeConfig::accessTree(arity, leaf), open);
    const workload::WorkloadReport fh =
        workload::runOn(topo, RuntimeConfig::fixedHome(), open);
    results.push_back({rate, at.serve, fh.serve, at.availability, fh.availability});
  }
  // Knee detection: on an unsaturated rung, achieved throughput scales
  // with the geometric ladder step q; past the knee it plateaus. A rung
  // is marked saturated when achieved grew by less than a quarter of the
  // ladder step over the previous rung. (Comparing achieved to offered
  // directly would mislabel low load: wall time includes the random
  // arrival tail, so achieved trails nominal offered even when every
  // request is served instantly.)
  const double q = rungs.size() > 1 ? rungs[1] / rungs[0] : 1.0;
  const double growthFloor = 1.0 + (q - 1.0) / 4.0;
  for (const char* strat : {"access-tree", "fixed-home"}) {
    const bool isAt = std::strcmp(strat, "access-tree") == 0;
    std::printf("saturation sweep · %s · offered vs achieved req/s\n", strat);
    std::printf("  %12s %12s %10s %10s %10s %10s\n", "offered/s", "achieved/s",
                "p50 µs", "p90 µs", "p99 µs", "p999 µs");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Rung& r = results[i];
      const workload::ServeMetrics& sv = isAt ? r.at : r.fh;
      const double prev =
          i > 0 ? (isAt ? results[i - 1].at : results[i - 1].fh).achievedPerSec : 0.0;
      const bool knee = i > 0 && sv.achievedPerSec < prev * growthFloor;
      std::printf("  %12.0f %12.0f %10.2f %10.2f %10.2f %10.2f%s\n", r.offered,
                  sv.achievedPerSec, sv.p50Us, sv.p90Us, sv.p99Us, sv.p999Us,
                  knee ? "  << saturated" : "");
    }
    std::printf("\n");
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Rung& r = results[i];
    // Availability rides along on every rung: on a faulted or
    // reconfigured sweep, (p99, availability) pairs per offered rate ARE
    // the latency-vs-availability trade-off curve.
    std::printf("SWEEP rung=%zu offered=%.0f at_achieved=%.0f at_p99_us=%.2f "
                "fh_achieved=%.0f fh_p99_us=%.2f at_avail=%.4f fh_avail=%.4f\n",
                i, r.offered, r.at.achievedPerSec, r.at.p99Us, r.fh.achievedPerSec,
                r.fh.p99Us, r.atAvail, r.fhAvail);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  int procsFlag = 0;
  int arity = 4;
  int leaf = 1;
  double minAvailability = -1.0;
  double maxP99Us = -1.0;
  std::string sweepArg;
  std::string capturePath;
  std::string traceJsonPath;
  obs::Cat traceMask = obs::kCatAll;
  std::string metricsPath;
  double sampleIntervalUs = 1000.0;
  bool reportJsonFlag = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto intFlag = [&](int& out) {
      if (i + 1 >= argc) return false;
      out = std::atoi(argv[++i]);
      return out > 0;
    };
    if (arg == "--help" || arg == "-h") {
      std::printf(kUsage, argv[0]);
      return 0;
    } else if (arg == "--procs") {
      if (!intFlag(procsFlag)) return usage(argv[0]);
    } else if (arg == "--arity") {
      if (!intFlag(arity)) return usage(argv[0]);
    } else if (arg == "--leaf") {
      if (!intFlag(leaf)) return usage(argv[0]);
    } else if (arg == "--min-availability") {
      if (i + 1 >= argc) return usage(argv[0]);
      minAvailability = std::atof(argv[++i]);
      if (minAvailability < 0.0 || minAvailability > 1.0) return usage(argv[0]);
    } else if (arg == "--max-p99-us") {
      if (i + 1 >= argc) return usage(argv[0]);
      maxP99Us = std::atof(argv[++i]);
      if (maxP99Us <= 0.0) return usage(argv[0]);
    } else if (arg == "--sweep") {
      if (i + 1 >= argc) return usage(argv[0]);
      sweepArg = argv[++i];
      if (sweepLadder(sweepArg).empty()) return usage(argv[0]);
    } else if (arg == "--capture-trace") {
      if (i + 1 >= argc) return usage(argv[0]);
      capturePath = argv[++i];
      if (capturePath.empty()) return usage(argv[0]);
    } else if (arg == "--trace-json") {
      if (i + 1 >= argc) return usage(argv[0]);
      traceJsonPath = argv[++i];
      if (traceJsonPath.empty()) return usage(argv[0]);
    } else if (arg == "--trace-categories") {
      if (i + 1 >= argc) return usage(argv[0]);
      try {
        traceMask = obs::parseCategories(argv[++i]);
      } catch (const support::CheckError& e) {
        std::fprintf(stderr, "scenario_runner: %s\n", e.what());
        return usage(argv[0]);
      }
    } else if (arg == "--metrics-out") {
      if (i + 1 >= argc) return usage(argv[0]);
      metricsPath = argv[++i];
      if (metricsPath.empty()) return usage(argv[0]);
    } else if (arg == "--sample-interval-us") {
      if (i + 1 >= argc) return usage(argv[0]);
      sampleIntervalUs = std::atof(argv[++i]);
      if (!(sampleIntervalUs > 0.0)) return usage(argv[0]);
    } else if (arg == "--report-json") {
      reportJsonFlag = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  try {
    const workload::WorkloadSpec spec = workload::loadScenarioFile(path);
    const int procs = procsFlag > 0 ? procsFlag : spec.procs > 0 ? spec.procs : 64;
    int rows = 0, cols = 0;
    gridShape(procs, rows, cols);
    const net::TopologySpec topo =
        net::topologyFromEnv(rows, cols, /*requireGrid=*/false, spec.topology);

    std::printf("scenario '%s' (%s): %d objects × %llu B, %zu phase(s), seed %llu\n",
                spec.name.c_str(), path.c_str(), spec.numObjects,
                static_cast<unsigned long long>(spec.objectBytes), spec.phases.size(),
                static_cast<unsigned long long>(spec.seed));
    std::printf("machine: %s\n\n", topo.describe().c_str());

    if (!sweepArg.empty())
      return runSweep(spec, topo, arity, leaf, sweepLadder(sweepArg));

    // The capture records the access-tree run (the paper's strategy);
    // fixed-home sees the same spec, so either stream replays both.
    serve::Trace captured;
    obs::Tracer tracer;
    obs::Sampler sampler;
    workload::RunOptions atOpts;
    if (!capturePath.empty()) atOpts.captureTrace = &captured;
    if (!traceJsonPath.empty()) {
      atOpts.tracer = &tracer;
      atOpts.traceMask = traceMask;
    }
    if (!metricsPath.empty()) {
      atOpts.sampler = &sampler;
      atOpts.sampleIntervalUs = sampleIntervalUs;
    }
    const workload::WorkloadReport at =
        workload::runOn(topo, RuntimeConfig::accessTree(arity, leaf), spec, atOpts);
    const workload::WorkloadReport fh =
        workload::runOn(topo, RuntimeConfig::fixedHome(), spec);

    if (!traceJsonPath.empty()) {
      support::writeTextFile(traceJsonPath, "trace",
                             [&](std::ostream& out) { tracer.writeChromeJson(out); });
      std::printf("traced %zu events to %s\n\n", tracer.numRecords(),
                  traceJsonPath.c_str());
    }
    if (!metricsPath.empty()) {
      const bool json = metricsPath.ends_with(".json");
      support::writeTextFile(metricsPath, "metrics", [&](std::ostream& out) {
        if (json)
          sampler.writeJson(out);
        else
          sampler.writeCsv(out);
      });
      std::printf("sampled %zu instants (%zu rows) to %s\n\n", sampler.samplesTaken(),
                  sampler.numRows(), metricsPath.c_str());
    }
    if (!capturePath.empty()) {
      support::writeTextFile(capturePath, "capture",
                             [&](std::ostream& out) { out << serve::formatTrace(captured); });
      std::printf("captured %zu requests to %s\n\n", captured.requests.size(),
                  capturePath.c_str());
    }

    std::fputs(workload::formatReport(at).c_str(), stdout);
    std::fputs("\n", stdout);
    std::fputs(workload::formatReport(fh).c_str(), stdout);
    std::fputs("\n", stdout);
    std::fputs(workload::formatComparison(at, fh).c_str(), stdout);

    if (reportJsonFlag) {
      std::printf("{\"access_tree\":%s,\"fixed_home\":%s}\n",
                  workload::reportJson(at).c_str(), workload::reportJson(fh).c_str());
    }

    bool ok = true;
    if (minAvailability >= 0.0) {
      for (const workload::WorkloadReport* r : {&at, &fh}) {
        if (r->availability < minAvailability) {
          std::fprintf(stderr,
                       "scenario_runner: %s availability %.4f below floor %.4f\n",
                       r->strategy.c_str(), r->availability, minAvailability);
          ok = false;
        }
      }
    }
    if (maxP99Us > 0.0) {
      for (const workload::WorkloadReport* r : {&at, &fh}) {
        if (!r->serve.active) {
          std::fprintf(stderr,
                       "scenario_runner: --max-p99-us on a scenario with no "
                       "open-loop phase\n");
          ok = false;
        } else if (r->serve.p99Us > maxP99Us) {
          std::fprintf(stderr,
                       "scenario_runner: %s p99 latency %.2f µs above ceiling "
                       "%.2f µs\n",
                       r->strategy.c_str(), r->serve.p99Us, maxP99Us);
          ok = false;
        }
      }
    }
    return ok ? 0 : 1;
  } catch (const support::CheckError& e) {
    std::fprintf(stderr, "scenario_runner: %s\n", e.what());
    return 3;
  }
}
