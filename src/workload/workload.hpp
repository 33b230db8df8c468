#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "diva/machine.hpp"
#include "diva/runtime.hpp"
#include "net/fault.hpp"
#include "serve/arrival.hpp"
#include "support/rng.hpp"

namespace diva::serve {
struct Trace;
}

namespace diva::obs {
class Tracer;
class Sampler;
class MetricsRegistry;
}

namespace diva::workload {

/// One temporal phase of a synthetic workload: every processor performs
/// `rounds` accesses against the shared object population, each access a
/// read with probability `readFraction` (writes serialize through the
/// object's lock — concurrent unsynchronized writes are illegal), the
/// accessed object drawn by Zipf(zipfS) rank skew with the popularity
/// ranking rotated by `hotShift` objects. Rotating the ranking between
/// phases models hotspot drift; changing readFraction models
/// read-mostly → write-heavy shifts. Think time between accesses is
/// drawn uniformly from [0, 2·thinkMeanUs) — arithmetic-only sampling,
/// so committed scenarios stay bit-deterministic across libm versions.
struct PhaseSpec {
  std::string name = "phase";
  int rounds = 1;             ///< accesses per processor
  double readFraction = 1.0;  ///< P(access is a read); rest are locked writes
  double zipfS = 0.0;         ///< popularity skew exponent (0 = uniform)
  int hotShift = 0;           ///< rotation of the popularity ranking
  double thinkMeanUs = 0.0;   ///< mean think time between accesses
  bool barrier = true;        ///< processors synchronize at phase end
  /// Faults AND structural `reconfig` events injected during this phase,
  /// offsets relative to phase start (docs/faults.md). A crashed
  /// processor stops issuing operations (retry, then fail — availability
  /// accounting) until it recovers. Structural events reshape the
  /// machine permanently: nodes added mid-phase start issuing at the
  /// next phase boundary, retired nodes stop at their next access (a
  /// closed-loop node's remaining rounds are never offered; an open-loop
  /// node's remaining arrivals count as failed and dropped), and every
  /// event is validated before the run starts against the shape it will
  /// actually meet.
  /// Phases with faults leave all RNG draws untouched, so the fault-free
  /// access stream is bit-identical.
  net::FaultPlan faults{};
  /// Open-loop serving (docs/serving.md). When the arrival kind is not
  /// None the phase runs open loop: each processor issues `rounds`
  /// requests at pre-generated arrival instants regardless of service
  /// progress, and latency is measured from the SCHEDULED arrival —
  /// queueing delay counts. Kind::None (the default) keeps the classic
  /// closed loop; closed-loop runs are byte-identical to before.
  serve::ArrivalSpec arrival{};
  /// SLO deadline in µs: served requests whose latency exceeds it count
  /// as `late` in the report (0 = no deadline).
  double deadlineUs = 0.0;
  /// Per-processor backlog bound: a request is shed (counted `dropped`)
  /// when more than this many newer requests are already due behind it
  /// (0 = unbounded queue).
  int queueLimit = 0;
  /// Trace-replay phase (docs/serving.md): arrival times, issuing nodes
  /// and accesses come from this request-trace file instead of the
  /// generator — `rounds`, `zipfS`, `hotShift`, `readFraction`,
  /// `thinkMeanUs` and `arrival` must stay at their defaults.
  std::string tracePath{};

  /// True iff this phase runs open loop (generated arrivals or a trace).
  bool openLoop() const { return arrival.open() || !tracePath.empty(); }

  bool operator==(const PhaseSpec&) const = default;
};

/// A complete declarative synthetic workload: an object population plus a
/// sequence of phases. One spec runs unchanged under every strategy and
/// on every topology — exactly what a strategy A/B needs. All randomness
/// derives from `seed` through per-(phase, processor) split streams
/// (support::SplitMix64::split), so the access sequence of a phase is a
/// pure function of (seed, phase index, processor) — independent of
/// machine shape, strategy, and of how many rounds earlier phases ran.
struct WorkloadSpec {
  std::string name = "workload";
  int numObjects = 1;             ///< shared-variable population
  std::uint64_t objectBytes = 64; ///< simulated payload size of each object
  std::uint64_t cacheBytes = 0;   ///< per-processor module bound; 0 = unlimited
  std::uint64_t seed = 1;
  int procs = 0;                  ///< suggested machine size (scenario files); 0 = caller's choice
  /// Suggested network shape by name (net/topology_env.hpp vocabulary,
  /// e.g. "mesh2d", "hier-random-regular"); empty = caller's choice.
  /// Like `procs` it is advisory: scenario_runner honors it unless
  /// DIVA_TOPOLOGY overrides, and run()/runOn() ignore it — the machine
  /// passed in wins.
  std::string topology;
  std::vector<PhaseSpec> phases;

  /// Size ceilings: run() allocates every object's payload at setup, so
  /// larger populations fail with a CheckError here instead of running
  /// the host out of memory. `procs` is capped at net::kMaxGraphNodes.
  static constexpr int kMaxObjects = 1 << 20;
  static constexpr std::uint64_t kMaxPayloadBytes = std::uint64_t{1} << 30;  ///< all objects

  /// Fail fast on nonsensical parameters; throws CheckError.
  void validate() const;

  bool operator==(const WorkloadSpec&) const = default;
};

/// The access stream of (seed, phase, processor): the RNG that drives
/// every draw (think time, object rank, read-vs-write) of that processor
/// in that phase. A pure function of its arguments — deliberately NOT of
/// earlier phases' contents — so editing one phase of a scenario never
/// perturbs another phase's access sequence (phase-boundary determinism;
/// pinned by tests). Used by the driver; exposed for tests and for
/// external tooling that wants to predict a scenario's accesses.
support::SplitMix64 accessStream(std::uint64_t seed, int phase, net::NodeId node);

/// Samples ranks 0..n-1 with P(r) ∝ 1/(r+1)^s by inverse-CDF lookup;
/// s = 0 is uniform. Integral exponents are computed by exact repeated
/// multiplication (bit-stable across libm versions — committed golden
/// scenarios use those); fractional exponents go through std::pow
/// (deterministic per build, last-ulp differences possible across libms).
class ZipfSampler {
 public:
  /// Largest exponent WorkloadSpec::validate accepts — every integral
  /// exponent up to it uses the exact path (see the constructor).
  static constexpr double kMaxExponent = 64.0;

  ZipfSampler(int n, double s);
  int operator()(support::SplitMix64& rng) const;
  int numRanks() const { return static_cast<int>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

/// Open-loop serving measurements of one phase (or of the whole run —
/// the totals merge the per-phase latency histograms, docs/serving.md).
/// Latencies are measured from the scheduled arrival instant, so
/// queueing delay is part of every percentile. `offeredPerSec` is the
/// nominal aggregate injection rate (time-averaged for bursty arrivals,
/// empirical for traces); `achievedPerSec` is served / phase wall time —
/// the gap between the two opens at the saturation knee.
struct ServeMetrics {
  bool active = false;  ///< this phase (or some phase of the run) ran open loop
  double offeredPerSec = 0.0;
  double achievedPerSec = 0.0;
  double p50Us = 0.0;
  double p90Us = 0.0;
  double p99Us = 0.0;
  double p999Us = 0.0;
  double maxUs = 0.0;
  double meanUs = 0.0;
  std::uint64_t arrived = 0;  ///< scheduled requests that reached their instant
  std::uint64_t served = 0;   ///< completed (arrived = served + dropped)
  std::uint64_t dropped = 0;  ///< shed at the queue bound or lost to a down node
  std::uint64_t late = 0;     ///< served, but past the phase's deadline
  int maxInFlight = 0;        ///< peak concurrent requests across the machine

  bool operator==(const ServeMetrics&) const = default;
};

/// What a phase and the whole run both count: the machine's one
/// operation-counter set (`Stats::Counters`, taken as a delta over the
/// phase or the run) plus the traffic the network carried. `injected`
/// counts messages entering the network (including node-local ones);
/// `linkMessages`/`linkBytes` count per-link crossings, so one multi-hop
/// message contributes once per hop. Congestion is the paper's metric:
/// the maximum over directed links of that link's traffic.
struct Tally : Stats::Counters {
  std::uint64_t injected = 0;
  std::uint64_t linkMessages = 0;
  std::uint64_t linkBytes = 0;
  std::uint64_t congestionMessages = 0;  ///< run: max over links, all phases summed
  std::uint64_t congestionBytes = 0;
};

/// Measurements of one workload run, per phase and in total.
struct WorkloadReport : Tally {
  struct Phase : Tally {
    std::string name;
    double wallUs = 0;
    /// Open-loop serving measurements; `serve.active` is false (and the
    /// struct all zeros) for closed-loop phases.
    ServeMetrics serve;
  };

  std::string workload;
  std::string strategy;
  std::string topology;
  int procs = 0;
  std::vector<Phase> phases;
  double completionUs = 0;
  /// Availability & recovery (docs/faults.md). `faulted` is true iff the
  /// spec injected faults — reports of fault-free runs render exactly as
  /// before. availability = served / (served + failed), 1.0 when no op
  /// ever failed.
  bool faulted = false;
  std::uint64_t servedOps = 0;  ///< reads + writes
  double availability = 1.0;
  std::uint64_t reroutedFlights = 0;
  std::uint64_t parkedFlights = 0;
  /// Structural reconfiguration (docs/faults.md "Reconfiguration").
  /// `reconfigured` is true iff the spec scripts `reconfig` events —
  /// fixed-shape reports render exactly as before.
  bool reconfigured = false;
  std::uint64_t reconfigEpochs = 0;  ///< structural epochs delivered
  /// Run-total open-loop metrics: per-phase latency histograms merged
  /// (element-wise bucket addition), counters summed, offered/achieved
  /// time-weighted over the open-loop phases. All zeros when every phase
  /// ran closed loop.
  ServeMetrics serve;
};

/// Optional run()-time hooks.
struct RunOptions {
  /// When non-null, every access the drivers issue is appended as a
  /// request-trace record (serve/trace.hpp format: times relative to the
  /// run start, objects as indices into the spec's population) — the
  /// scenario_runner --capture-trace sink. Header fields are filled from
  /// the spec; requests come out time-sorted, so the trace replays as a
  /// single trace phase.
  serve::Trace* captureTrace = nullptr;
  /// When non-null (and enabled), the run records protocol spans and
  /// instants into this tracer (obs/tracer.hpp): transaction and serve
  /// spans on per-processor tracks, phase extents on the machine track,
  /// plus the network- and strategy-level migration/repair/reconfig/
  /// fault events. Attached to the machine via Network::setTracer for
  /// the duration of the run. Null (the default) costs nothing and the
  /// run is bit-identical — pinned by the golden-hash tests.
  obs::Tracer* tracer = nullptr;
  /// Category mask runOn() arms a not-yet-enabled tracer with (the
  /// machine — and its engine — only exists inside runOn). Callers using
  /// run() on their own machine enable the tracer themselves; an already
  /// enabled tracer is used as-is and this mask is ignored.
  std::uint32_t traceMask = 0xffu;  // obs::kCatAll
  /// When non-null (and configured), the run drives this periodic
  /// time-series sampler (obs/sampler.hpp) across every phase: boundary
  /// samples at phase edges plus interval ticks scheduled as ordinary
  /// engine events. The caller binds the machine (runOn does it for
  /// you); open-loop phases additionally register queue-occupancy
  /// gauges for their duration. Sampling ON can extend each phase's
  /// measured wall time by less than one interval (the final pending
  /// tick); OFF is bit-identical.
  obs::Sampler* sampler = nullptr;
  /// Sample interval runOn() configures a not-yet-armed sampler with,
  /// in simulated µs; <= 0 leaves an unconfigured sampler inert. Like
  /// traceMask, only consulted by runOn().
  double sampleIntervalUs = 0.0;
};

/// Run `spec` on an existing machine/runtime. Creates the object
/// population (free setup), then drives every member processor through
/// the phases; the engine drains between phases, so per-phase metrics
/// have exact boundaries and pending reconfiguration epochs commit at
/// phase boundaries (Runtime::completeReconfig). The runtime's own
/// configuration (strategy, cache bound, seed) is taken as-is —
/// `spec.cacheBytes` only applies through `runOn`. Requires a quiescent
/// engine; leaves it quiescent.
WorkloadReport run(Machine& m, Runtime& rt, const WorkloadSpec& spec);
WorkloadReport run(Machine& m, Runtime& rt, const WorkloadSpec& spec,
                   const RunOptions& opts);

/// Build a machine of shape `topo` and a runtime from `config` (with the
/// spec's seed and cache bound applied), run `spec`, and return the
/// report. The one-call form the A/B harness and tests use.
WorkloadReport runOn(const net::TopologySpec& topo, const RuntimeConfig& config,
                     const WorkloadSpec& spec);
WorkloadReport runOn(const net::TopologySpec& topo, const RuntimeConfig& config,
                     const WorkloadSpec& spec, const RunOptions& opts);

/// Open-loop variant of `spec` for saturation sweeps: every phase's
/// arrival process is replaced by Poisson at aggregate `ratePerSec`
/// (think time cleared — the schedule is the pacing; trace phases become
/// generated), content generation untouched. Each rung of the sweep
/// ladder is one such spec; the returned spec is validated.
WorkloadSpec openLoopAt(const WorkloadSpec& spec, double ratePerSec);

/// Deterministic text rendering of a report (fixed-precision numbers):
/// same seed → byte-identical output.
std::string formatReport(const WorkloadReport& r);

/// Register every field of `r` into a metrics registry under "run/...",
/// "phase/<i>/..." and "serve/..." paths. Driven by the same descriptor
/// tables that lay out formatReport's columns, so the text report and
/// the JSON report are one source of truth (obs/metrics.hpp).
void registerReport(obs::MetricsRegistry& reg, const WorkloadReport& r);

/// The report as nested JSON — registerReport on a fresh registry,
/// rendered by MetricsRegistry::writeJson. Deterministic.
std::string reportJson(const WorkloadReport& r);

/// Strategy A/B table: per-metric columns for `a` and `b` plus the a/b
/// ratio — the access-tree vs fixed-home comparison of the paper, on
/// synthetic traffic. The two reports must come from the same spec.
std::string formatComparison(const WorkloadReport& a, const WorkloadReport& b);

}  // namespace diva::workload
