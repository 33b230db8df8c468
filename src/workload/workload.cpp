#include "workload/workload.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "net/graph_topology.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/tracer.hpp"
#include "serve/latency_histogram.hpp"
#include "serve/trace.hpp"
#include "sim/time.hpp"
#include "support/check.hpp"
#include "support/table.hpp"

namespace diva::workload {

namespace {

/// Stream-id constants for SplitMix64::split — one label per purpose, so
/// adding a new consumer can never silently correlate with an old one.
constexpr std::uint64_t kPlacementStream = 0x91ace000u;  // "place"
constexpr std::uint64_t kAccessStream = 0xacce55u;       // "access"

std::string kb(std::uint64_t bytes) { return support::fmt(bytes / 1e3, 1); }

/// Names appear as single whitespace-delimited tokens in scenario files,
/// where '#' starts a comment; anything else could not round-trip
/// through the text format.
bool singleToken(const std::string& s) {
  return !s.empty() && s.find_first_of(" \t\r\n#") == std::string::npos;
}

}  // namespace

void WorkloadSpec::validate() const {
  DIVA_CHECK_MSG(singleToken(name),
                 "workload name '" << name << "' must be one whitespace-free token "
                                      "(scenario files store names as single tokens)");
  for (const PhaseSpec& ph : phases) {
    DIVA_CHECK_MSG(singleToken(ph.name),
                   "workload '" << name << "': phase name '" << ph.name
                                << "' must be one whitespace-free token");
  }
  DIVA_CHECK_MSG(numObjects >= 1 && numObjects <= kMaxObjects,
                 "workload '" << name << "': numObjects must be in [1, " << kMaxObjects
                              << "] (got " << numObjects << ")");
  DIVA_CHECK_MSG(objectBytes >= 1 && objectBytes <= kMaxPayloadBytes / numObjects,
                 "workload '" << name << "': objectBytes must be positive, with at most "
                              << kMaxPayloadBytes << " bytes over all objects");
  DIVA_CHECK_MSG(procs >= 0 && procs <= net::kMaxGraphNodes,
                 "workload '" << name << "': procs must be in [0, " << net::kMaxGraphNodes
                              << "] (got " << procs << ")");
  DIVA_CHECK_MSG(topology.empty() || singleToken(topology),
                 "workload '" << name << "': topology name '" << topology
                              << "' must be one whitespace-free token");
  DIVA_CHECK_MSG(!phases.empty(), "workload '" << name << "': needs at least one phase");
  DIVA_CHECK_MSG(phases.size() <= 64,
                 "workload '" << name << "': too many phases (" << phases.size()
                              << " > 64) — per-phase link cells would dominate memory");
  for (const PhaseSpec& ph : phases) {
    DIVA_CHECK_MSG(ph.rounds >= 0, "workload '" << name << "' phase '" << ph.name
                                                << "': rounds must be >= 0");
    DIVA_CHECK_MSG(ph.readFraction >= 0.0 && ph.readFraction <= 1.0,
                   "workload '" << name << "' phase '" << ph.name
                                << "': readFraction must be in [0, 1] (got "
                                << ph.readFraction << ")");
    // Bounded at kMaxZipfExponent so every accepted integral exponent
    // takes the exact-arithmetic weight path (the bit-stability guarantee
    // committed scenarios rely on); beyond it the distribution is
    // degenerate anyway (rank 0 takes everything).
    DIVA_CHECK_MSG(ph.zipfS >= 0.0 && ph.zipfS <= ZipfSampler::kMaxExponent,
                   "workload '" << name << "' phase '" << ph.name
                                << "': zipf exponent must be in [0, "
                                << ZipfSampler::kMaxExponent << "] (got " << ph.zipfS
                                << ")");
    DIVA_CHECK_MSG(ph.hotShift >= 0, "workload '" << name << "' phase '" << ph.name
                                                  << "': hotShift must be >= 0");
    const std::string ctx = "workload '" + name + "' phase '" + ph.name + "'";
    // Time-valued inputs stay under sim::kMaxInputTime, so think draws
    // (up to twice the mean) and phase clocks stay finite.
    DIVA_CHECK_MSG(ph.thinkMeanUs >= 0.0 && ph.thinkMeanUs <= sim::kMaxInputTime,
                   ctx << ": think time must be in [0, 2^53] (got " << ph.thinkMeanUs << ")");
    for (const net::FaultEvent& ev : ph.faults) {
      DIVA_CHECK_MSG(ev.offsetUs >= 0.0 && ev.offsetUs <= sim::kMaxInputTime &&
                         ev.weightMul <= sim::kMaxInputTime &&
                         ev.latencyMul <= sim::kMaxInputTime,
                     ctx << ": fault offsets must be in [0, 2^53] and weights/latencies "
                            "at most 2^53");
    }
    // Open-loop serving parameters (docs/serving.md).
    ph.arrival.validate(ctx.c_str());
    DIVA_CHECK_MSG(ph.deadlineUs >= 0.0, ctx << ": deadline must be >= 0");
    DIVA_CHECK_MSG(ph.queueLimit >= 0, ctx << ": queue limit must be >= 0");
    DIVA_CHECK_MSG(ph.openLoop() || (ph.deadlineUs == 0.0 && ph.queueLimit == 0),
                   ctx << ": 'deadline'/'queue' only apply to open-loop phases "
                          "(set an 'arrival' or 'trace')");
    if (ph.arrival.open()) {
      // Pacing comes from the arrival schedule; think time would silently
      // stretch service times and muddy the queueing-delay measurement.
      DIVA_CHECK_MSG(ph.thinkMeanUs == 0.0,
                     ctx << ": open-loop phases must not set think time "
                            "(the arrival schedule is the pacing)");
    }
    if (!ph.tracePath.empty()) {
      DIVA_CHECK_MSG(singleToken(ph.tracePath),
                     ctx << ": trace path must be one whitespace-free token");
      DIVA_CHECK_MSG(!ph.arrival.open() && ph.rounds == 1 && ph.readFraction == 1.0 &&
                         ph.zipfS == 0.0 && ph.hotShift == 0 && ph.thinkMeanUs == 0.0,
                     ctx << ": trace phases take arrivals and accesses from the trace "
                            "file — rounds/reads/zipf/hotshift/think/arrival must stay "
                            "at their defaults");
    }
  }
}

support::SplitMix64 accessStream(std::uint64_t seed, int phase, net::NodeId node) {
  return support::SplitMix64(seed)
      .split(kAccessStream)
      .split(static_cast<std::uint64_t>(phase))
      .split(static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)));
}

ZipfSampler::ZipfSampler(int n, double s) {
  DIVA_CHECK_MSG(n >= 1, "ZipfSampler: population must be positive (got " << n << ")");
  DIVA_CHECK_MSG(s >= 0.0, "ZipfSampler: exponent must be >= 0 (got " << s << ")");
  cdf_.resize(static_cast<std::size_t>(n));
  // Integral exponents by repeated multiplication: IEEE multiplication
  // and division are correctly rounded, so the weights are identical on
  // every platform (overflow to +inf at extreme s/r degrades gracefully
  // to weight 0, still deterministically). This is what lets committed
  // scenarios carry golden trace hashes; WorkloadSpec::validate bounds
  // exponents at kMaxExponent so every accepted integral s lands here.
  const bool integral = s == std::floor(s) && s <= kMaxExponent;
  double acc = 0.0;
  for (int r = 0; r < n; ++r) {
    double w;
    if (s == 0.0) {
      w = 1.0;
    } else if (integral) {
      double p = 1.0;
      for (int k = 0; k < static_cast<int>(s); ++k) p *= static_cast<double>(r + 1);
      w = 1.0 / p;
    } else {
      w = std::pow(static_cast<double>(r + 1), -s);
    }
    acc += w;
    cdf_[static_cast<std::size_t>(r)] = acc;
  }
  for (double& c : cdf_) c /= acc;
  cdf_.back() = 1.0;  // guard against rounding: uniform() < 1 always lands
}

int ZipfSampler::operator()(support::SplitMix64& rng) const {
  const double u = rng.uniform();
  return static_cast<int>(std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

namespace {

/// Availability retry policy (docs/faults.md): an operation issued while
/// its processor is crashed backs off and retries, then fails. The
/// budget (10 ms) comfortably covers the heal-within-phase churn the
/// committed scenarios script; ops during longer outages count as
/// failed, which is exactly what availability measures.
constexpr double kRetryBackoffUs = 500.0;
constexpr int kMaxOpRetries = 20;

/// Evolving-shape pre-flight (docs/faults.md "Reconfiguration"): replay
/// every phase's fault plan through a copy of the machine's ShapeModel,
/// in firing order (time-ascending, plan order within an instant, as
/// scheduleFaultPlan delivers them), with a deliver() at each instant
/// boundary and a commit() at each phase end — so a plan the run would
/// reject throws here, before anything is scheduled. Returns the
/// membership at each phase start: nodes added during a phase join the
/// driver at the next phase boundary.
std::vector<std::vector<std::uint8_t>> preflightShape(const WorkloadSpec& spec,
                                                      const Machine& m) {
  net::ShapeModel shape = m.net.shape();
  std::vector<std::vector<std::uint8_t>> phaseMember;
  for (const PhaseSpec& ph : spec.phases) {
    phaseMember.push_back(shape.memberFlags());
    std::vector<const net::FaultEvent*> order;
    order.reserve(ph.faults.size());
    for (const net::FaultEvent& ev : ph.faults) order.push_back(&ev);
    std::stable_sort(order.begin(), order.end(),
                     [](const net::FaultEvent* x, const net::FaultEvent* y) {
                       return x->offsetUs < y->offsetUs;
                     });
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (i > 0 && order[i]->offsetUs != order[i - 1]->offsetUs) shape.deliver();
      net::applyFault(shape, *order[i]);
    }
    shape.deliver();
    shape.commit();
  }
  return phaseMember;
}

/// Driver state every issued access reads; it outlives each phase's
/// engine drain.
struct Driver {
  Machine& m;
  Runtime& rt;
  const std::vector<VarId>& objects;
  std::uint64_t objectBytes;
  sim::Time runStart;     ///< capture timestamps are relative to it
  serve::Trace* capture;  ///< null unless the run records its issued stream
};

/// One access: an object index into the population, read or write.
struct Access {
  int idx;
  bool isRead;
};

/// How one issued access ended.
enum class Outcome { Served, Failed, Retired };

/// The one op-issue path of both drivers: issue access `a` from `self`
/// — a read, or a lock→write→unlock transaction — inside `txn`
/// spans on the processor's track (obs/tracer.hpp). An open-loop caller
/// passes the request's scheduled instant `due`, and the access is then
/// wrapped in a `serve` span from pickup to completion whose argument is
/// the queueing delay already accrued at pickup.
///
/// An issuer that is down backs off and retries, then fails (counted in
/// failedOps). An issuer that has left the machine (reconfig
/// remove-node) issues nothing and counts nothing: what its remaining
/// load means is the caller's rule (nodePhase, nodeServePhase).
sim::Task<Outcome> issueOp(const Driver& d, NodeId self, Access a,
                           std::optional<sim::Time> due) {
  Machine& m = d.m;
  if (!m.net.nodeMember(self)) [[unlikely]] co_return Outcome::Retired;
  for (int r = 0; r < kMaxOpRetries && !m.net.nodeUp(self); ++r) {
    ++m.stats.ops.retriedOps;
    co_await m.engine.delay(kRetryBackoffUs);
  }
  if (!m.net.nodeUp(self)) [[unlikely]] {
    ++m.stats.ops.failedOps;
    co_return Outcome::Failed;
  }
  if (d.capture != nullptr) [[unlikely]]
    d.capture->requests.push_back({m.engine.now() - d.runStart, self, a.isRead, a.idx});
  // Null when the run is untraced; a filtered-out category costs one
  // mask test per record call.
  obs::Tracer* const tr = m.net.tracer();
  if (tr && due)
    tr->begin(obs::kCatServe, self, "serve",
              static_cast<std::int64_t>(m.engine.now() - *due));
  const VarId x = d.objects[static_cast<std::size_t>(a.idx)];
  if (a.isRead) {
    if (tr) tr->begin(obs::kCatTxn, self, "read", a.idx);
    (void)co_await d.rt.read(self, x);
    if (tr) tr->end(obs::kCatTxn, self);
  } else {
    // Writers serialize through the object's lock: concurrent
    // unsynchronized writes to one variable are outside the coherence
    // contract, and lock traffic is part of what a contended
    // write-heavy workload measures. The outer span is the whole
    // transaction issue→commit; lock / write / unlock nest inside it.
    if (tr) tr->begin(obs::kCatTxn, self, "write-txn", a.idx);
    if (tr) tr->begin(obs::kCatTxn, self, "lock");
    co_await d.rt.lock(self, x);
    if (tr) tr->end(obs::kCatTxn, self);
    if (tr) tr->begin(obs::kCatTxn, self, "write");
    co_await d.rt.write(self, x, makeRawValue(d.objectBytes));
    if (tr) tr->end(obs::kCatTxn, self);
    if (tr) tr->begin(obs::kCatTxn, self, "unlock");
    co_await d.rt.unlock(self, x);
    if (tr) tr->end(obs::kCatTxn, self);
    if (tr) tr->end(obs::kCatTxn, self);
  }
  if (tr && due) tr->end(obs::kCatServe, self);
  co_return Outcome::Served;
}

/// One generated access from the per-(phase, processor) split stream: an
/// object by Zipf rank rotated by the phase's hot shift, then read or
/// write. Both drivers draw BEFORE any liveness, shed or retirement
/// decision, so a faulted, shedding or shrinking run consumes the stream
/// exactly like a healthy one — none of them can shift which objects
/// later accesses touch.
Access drawAccess(const PhaseSpec& ph, const ZipfSampler& zipf, support::SplitMix64& rng) {
  const int rank = zipf(rng);
  const int idx = (rank + ph.hotShift) % zipf.numRanks();
  return {idx, rng.uniform() < ph.readFraction};
}

/// One processor's closed-loop accesses for one phase: think, draw,
/// issue, for `rounds` rounds, then the phase-end barrier.
///
/// Retirement rule: a processor that left the machine stops issuing. Its
/// program ends, and its remaining rounds were never offered, so they
/// count neither as served nor as failed. It still reports to the
/// phase-end barrier — the aggregation tree spans the phase-START
/// membership until the epoch commits at the boundary.
sim::Task<> nodePhase(const Driver& d, NodeId self, const PhaseSpec& ph,
                      const ZipfSampler& zipf, support::SplitMix64 rng) {
  for (int round = 0; round < ph.rounds; ++round) {
    if (ph.thinkMeanUs > 0.0)
      co_await d.m.net.compute(self, rng.uniform(0.0, 2.0 * ph.thinkMeanUs));
    const Access a = drawAccess(ph, zipf, rng);
    if (co_await issueOp(d, self, a, std::nullopt) == Outcome::Retired) break;
  }
  if (ph.barrier) co_await d.rt.barrier(self);
}

// ---------------------------------------------------------------------------
// Open-loop serving (docs/serving.md). Requests arrive on a pre-generated
// schedule whether or not the system keeps up; each node serves its own
// arrivals FIFO, and latency is measured from the SCHEDULED arrival
// instant, so queueing delay behind a slow service is part of every
// recorded number — the knee this exposes is what closed-loop driving
// structurally cannot see.
// ---------------------------------------------------------------------------

/// One node's share of a phase's offered load. For generated arrivals the
/// content (object, read/write) is drawn from the same per-(phase, node)
/// access stream as the closed loop; for trace replay the parallel
/// content arrays pin it.
struct NodeServePlan {
  std::vector<double> timesUs;        ///< strictly ascending arrival offsets
  std::vector<std::uint8_t> isRead;   ///< trace only (parallel to timesUs)
  std::vector<int> object;            ///< trace only (parallel to timesUs)
};

struct PhaseServePlan {
  bool active = false;
  double offeredPerSec = 0.0;  ///< nominal aggregate injection rate
  std::vector<NodeServePlan> nodes;
};

/// Shared per-phase measurement state. `inFlight` counts requests whose
/// scheduled instant has passed but which are not yet served or shed —
/// the machine-wide backlog, sampled at every arrival for the peak.
struct ServeState {
  serve::LatencyHistogram hist;
  std::uint64_t arrived = 0;
  std::uint64_t served = 0;
  std::uint64_t dropped = 0;
  std::uint64_t late = 0;
  int inFlight = 0;
  int maxInFlight = 0;
};

/// One processor's open-loop serving of one phase: wait for each
/// scheduled arrival (or pick it up immediately if already due), shed it
/// if the backlog bound says so, then issue it through the same issueOp
/// as the closed loop and record its latency from the scheduled instant.
///
/// Retirement rule: a processor that left the machine mid-phase serves
/// nothing more, but its scheduled arrivals were offered all the same,
/// so each one is lost — a failure for availability accounting and a
/// drop for serving accounting, like an outage that never heals.
sim::Task<> nodeServePhase(const Driver& d, NodeId self, const PhaseSpec& ph,
                           const ZipfSampler& zipf, support::SplitMix64 rng,
                           const NodeServePlan& plan, sim::Time phaseStart,
                           ServeState& st) {
  Machine& m = d.m;
  const int count = static_cast<int>(plan.timesUs.size());
  // Shed and lost requests are drop instants on this processor's track.
  obs::Tracer* const tr = m.net.tracer();
  // Trace plans carry their content in the parallel arrays; generated
  // plans draw it from the access stream.
  const bool fromTrace = !plan.object.empty();
  for (int k = 0; k < count; ++k) {
    const auto ki = static_cast<std::size_t>(k);
    const Access a = fromTrace ? Access{plan.object[ki], plan.isRead[ki] != 0}
                               : drawAccess(ph, zipf, rng);
    const sim::Time due = phaseStart + plan.timesUs[ki];
    if (due > m.engine.now()) co_await m.engine.delayUntil(due);
    if (ph.queueLimit > 0) {
      // Shed the oldest when the backlog bound is exceeded: more than
      // `queueLimit` newer requests of this node are already due behind
      // this one (their arrival instants have passed while it waited).
      const double nowRel = m.engine.now() - phaseStart;
      const auto begin = plan.timesUs.begin() + k + 1;
      const auto firstNotDue = std::upper_bound(begin, plan.timesUs.end(), nowRel);
      if (static_cast<int>(firstNotDue - begin) > ph.queueLimit) {
        ++st.dropped;
        --st.inFlight;
        if (tr) tr->instant(obs::kCatServe, self, "drop-shed", a.idx);
        continue;
      }
    }
    const Outcome o = co_await issueOp(d, self, a, due);
    --st.inFlight;
    if (o == Outcome::Served) {
      const double latencyUs = m.engine.now() - due;
      st.hist.record(latencyUs);
      ++st.served;
      if (ph.deadlineUs > 0.0 && latencyUs > ph.deadlineUs) ++st.late;
      continue;
    }
    // Offered and never served. issueOp already counted an outage as
    // failed; a retirement fails here (see the rule above).
    if (o == Outcome::Retired) ++m.stats.ops.failedOps;
    ++st.dropped;
    if (tr)
      tr->instant(obs::kCatServe, self,
                  o == Outcome::Retired ? "drop-retired" : "drop-outage", a.idx);
  }
  if (ph.barrier) co_await d.rt.barrier(self);
}

/// Build the per-node offered-load plans for every open-loop phase of
/// `spec` on the evolving machine: each phase is sized by the node-id
/// space at ITS start (nodes added mid-phase begin serving next phase,
/// retired ids keep empty plans). Pure function of (spec, phaseMember):
/// generated schedules come from the dedicated arrival streams — the
/// per-node share is 1/members of the phase — trace schedules from the
/// file (node ids and object ids range-checked here, before anything is
/// scheduled).
std::vector<PhaseServePlan> buildServePlans(
    const WorkloadSpec& spec, const std::vector<std::vector<std::uint8_t>>& phaseMember) {
  std::vector<PhaseServePlan> plans(spec.phases.size());
  for (std::size_t p = 0; p < spec.phases.size(); ++p) {
    const PhaseSpec& ph = spec.phases[p];
    if (!ph.openLoop()) continue;
    const std::vector<std::uint8_t>& member = phaseMember[p];
    const int procs = static_cast<int>(member.size());
    PhaseServePlan& plan = plans[p];
    plan.active = true;
    plan.nodes.resize(static_cast<std::size_t>(procs));
    if (!ph.tracePath.empty()) {
      const serve::Trace trace = serve::loadTraceFile(ph.tracePath);
      DIVA_CHECK_MSG(trace.numObjects <= spec.numObjects,
                     "workload '" << spec.name << "' phase '" << ph.name << "': trace '"
                                  << ph.tracePath << "' uses " << trace.numObjects
                                  << " objects but the workload only has "
                                  << spec.numObjects);
      double lastUs = 0.0;
      for (const serve::TraceRequest& req : trace.requests) {
        DIVA_CHECK_MSG(req.node < procs,
                       "workload '" << spec.name << "' phase '" << ph.name
                                    << "': trace node " << req.node
                                    << " out of range for a " << procs
                                    << "-processor machine");
        DIVA_CHECK_MSG(member[static_cast<std::size_t>(req.node)] != 0,
                       "workload '" << spec.name << "' phase '" << ph.name
                                    << "': trace node " << req.node
                                    << " has left the machine by this phase");
        NodeServePlan& np = plan.nodes[static_cast<std::size_t>(req.node)];
        np.timesUs.push_back(req.timeUs);
        np.isRead.push_back(req.isRead ? 1 : 0);
        np.object.push_back(req.object);
        lastUs = req.timeUs;
      }
      // Per-node strict ascent (the file only guarantees non-decreasing
      // globally): FIFO serving needs distinct instants per node.
      for (NodeServePlan& np : plan.nodes) {
        for (std::size_t i = 1; i < np.timesUs.size(); ++i) {
          if (np.timesUs[i] <= np.timesUs[i - 1])
            np.timesUs[i] = np.timesUs[i - 1] + 1e-9;
        }
      }
      plan.offeredPerSec =
          lastUs > 0.0
              ? static_cast<double>(trace.requests.size()) / lastUs * 1e6
              : 0.0;
    } else {
      const int members = static_cast<int>(
          std::count(member.begin(), member.end(), std::uint8_t{1}));
      for (int node = 0; node < procs; ++node) {
        if (!member[static_cast<std::size_t>(node)]) continue;  // retired id
        plan.nodes[static_cast<std::size_t>(node)].timesUs = serve::generateArrivals(
            ph.arrival, ph.rounds, members, spec.seed, static_cast<int>(p),
            static_cast<net::NodeId>(node));
      }
      // Burst offered load is the time-averaged rate over on+off windows.
      plan.offeredPerSec =
          ph.arrival.kind == serve::ArrivalSpec::Kind::Burst
              ? ph.arrival.ratePerSec * ph.arrival.burstOnUs /
                    (ph.arrival.burstOnUs + ph.arrival.burstOffUs)
              : ph.arrival.ratePerSec;
    }
  }
  return plans;
}

void fillServeMetrics(ServeMetrics& sv, const ServeState& st, double offeredPerSec,
                      double wallUs) {
  sv.active = true;
  sv.offeredPerSec = offeredPerSec;
  sv.achievedPerSec =
      wallUs > 0.0 ? static_cast<double>(st.served) / wallUs * 1e6 : 0.0;
  sv.p50Us = st.hist.p50();
  sv.p90Us = st.hist.p90();
  sv.p99Us = st.hist.p99();
  sv.p999Us = st.hist.p999();
  sv.maxUs = st.hist.max();
  sv.meanUs = st.hist.mean();
  sv.arrived = st.arrived;
  sv.served = st.served;
  sv.dropped = st.dropped;
  sv.late = st.late;
  sv.maxInFlight = st.maxInFlight;
}

/// Run phase `p` to quiescence and measure it: schedule its faults, start
/// its drivers (open or closed loop), drain the engine, commit any
/// reconfiguration epoch it delivered, and fold its serving measurements
/// into the run totals `total`.
WorkloadReport::Phase runPhase(const Driver& d, const WorkloadSpec& spec, int p,
                               const PhaseServePlan& servePlan, obs::Tracer* tracer,
                               obs::Sampler* sampler, ServeState& total) {
  Machine& m = d.m;
  const PhaseSpec& ph = spec.phases[static_cast<std::size_t>(p)];
  if (p > 0) m.stats.setPhase(p, m.engine.now());
  const Stats::Counters opsBefore = m.stats.ops;
  const std::uint64_t sentBefore = m.net.messagesSent();

  // Phase span on the machine track; phases never overlap, so plain
  // sync begin/end nest trivially.
  if (tracer != nullptr)
    tracer->beginDyn(obs::kCatPhase, obs::Tracer::kMachineTrack, "phase:" + ph.name);

  // Fault offsets are relative to the phase start; an empty plan
  // schedules nothing, so fault-free runs are bit-identical.
  net::scheduleFaultPlan(m.engine, m.net, ph.faults, m.engine.now());

  ServeState st;
  const ZipfSampler zipf(spec.numObjects, ph.zipfS);
  if (servePlan.active) {
    // Arrival markers: one zero-cost event per request at its scheduled
    // instant, queued before the serving coroutines so that at equal
    // timestamps (FIFO among equals) an arrival is counted before it
    // can be picked up — `inFlight` is the machine-wide backlog.
    const sim::Time phaseStart = m.engine.now();
    const int pprocs = static_cast<int>(servePlan.nodes.size());
    for (NodeId node = 0; node < pprocs; ++node) {
      if (!m.net.nodeMember(node)) continue;
      for (const double t : servePlan.nodes[static_cast<std::size_t>(node)].timesUs) {
        m.engine.scheduleAt(phaseStart + t, [&st, tracer, node] {
          ++st.arrived;
          if (++st.inFlight > st.maxInFlight) st.maxInFlight = st.inFlight;
          if (tracer != nullptr) tracer->instant(obs::kCatServe, node, "arrive");
        });
      }
    }
    for (NodeId node = 0; node < pprocs; ++node) {
      if (!m.net.nodeMember(node)) continue;
      sim::spawn(nodeServePhase(d, node, ph, zipf, accessStream(spec.seed, p, node),
                                servePlan.nodes[static_cast<std::size_t>(node)],
                                phaseStart, st));
    }
  } else {
    // Member processors at the phase start drive this phase; nodes a
    // reconfig added mid-phase join at the next boundary.
    for (NodeId node = 0; node < m.net.numNodes(); ++node) {
      if (!m.net.nodeMember(node)) continue;
      sim::spawn(nodePhase(d, node, ph, zipf, accessStream(spec.seed, p, node)));
    }
  }
  // Open-loop phases expose the live backlog to the sampler; the gauges
  // borrow `st`, so they are truncated again before it dies.
  std::size_t samplerMark = 0;
  if (sampler != nullptr) {
    samplerMark = sampler->registry().mark();
    if (servePlan.active) {
      sampler->registry().gauge("serve/in_flight",
                                [&st] { return static_cast<double>(st.inFlight); });
      sampler->registry().gauge("serve/arrived",
                                [&st] { return static_cast<double>(st.arrived); });
      sampler->registry().gauge("serve/served",
                                [&st] { return static_cast<double>(st.served); });
      sampler->registry().gauge("serve/dropped",
                                [&st] { return static_cast<double>(st.dropped); });
    }
    sampler->phaseBegin(p);
  }
  // Drain to quiescence: the engine acts as the zero-cost outer clock,
  // so phase boundaries in the stats are exact instants (the in-model
  // barrier above is still part of the measured protocol traffic).
  m.run();
  if (sampler != nullptr) {
    sampler->phaseEnd();
    sampler->registry().truncate(samplerMark);
  }
  // Commit any structural epoch this phase delivered: sever retiring
  // links and rebuild the lock/barrier trees over the new shape. A
  // no-op on fixed-shape runs.
  d.rt.completeReconfig();
  if (tracer != nullptr) tracer->end(obs::kCatPhase, obs::Tracer::kMachineTrack);

  WorkloadReport::Phase pr;
  static_cast<Stats::Counters&>(pr) = m.stats.ops - opsBefore;
  pr.name = ph.name;
  pr.wallUs = m.stats.wallUs(p);
  pr.injected = m.net.messagesSent() - sentBefore;
  pr.linkMessages = m.stats.links.totalMessages(p);
  pr.linkBytes = m.stats.links.totalBytes(p);
  pr.congestionMessages = m.stats.links.congestionMessages(p);
  pr.congestionBytes = m.stats.links.congestionBytes(p);
  if (servePlan.active) {
    fillServeMetrics(pr.serve, st, servePlan.offeredPerSec, pr.wallUs);
    total.hist.merge(st.hist);
    total.arrived += st.arrived;
    total.served += st.served;
    total.dropped += st.dropped;
    total.late += st.late;
    total.maxInFlight = std::max(total.maxInFlight, st.maxInFlight);
  }
  return pr;
}

}  // namespace

WorkloadSpec openLoopAt(const WorkloadSpec& spec, double ratePerSec) {
  WorkloadSpec open = spec;
  for (PhaseSpec& ph : open.phases) {
    ph.arrival.kind = serve::ArrivalSpec::Kind::Poisson;
    ph.arrival.ratePerSec = ratePerSec;
    ph.arrival.burstOnUs = ph.arrival.burstOffUs = 0.0;
    ph.thinkMeanUs = 0.0;  // pacing comes from the schedule now
    ph.tracePath.clear();
  }
  open.validate();
  return open;
}

WorkloadReport run(Machine& m, Runtime& rt, const WorkloadSpec& spec) {
  return run(m, rt, spec, RunOptions{});
}

WorkloadReport run(Machine& m, Runtime& rt, const WorkloadSpec& spec,
                   const RunOptions& opts) {
  spec.validate();
  DIVA_CHECK_MSG(m.engine.idle(), "workload::run requires a quiescent engine");
  const int procs = m.net.numNodes();
  const int numPhases = static_cast<int>(spec.phases.size());

  // Replay the fault plans against the evolving shape (spec.procs is a
  // suggestion; add-node grows the id space mid-run): every event is
  // validated against the shape it will actually meet, before anything
  // is scheduled. `faulted` tracks transient faults, `reconfigured`
  // structural ones.
  bool faulted = false;
  bool reconfigured = false;
  for (const PhaseSpec& ph : spec.phases)
    for (const net::FaultEvent& ev : ph.faults)
      (net::isStructural(ev.kind) ? reconfigured : faulted) = true;
  const std::vector<std::vector<std::uint8_t>> phaseMember = preflightShape(spec, m);

  // Offered-load plans for open-loop phases (generated schedules + trace
  // files), built before anything runs so bad traces fail fast.
  const std::vector<PhaseServePlan> servePlans = buildServePlans(spec, phaseMember);

  serve::Trace* capture = opts.captureTrace;
  if (capture != nullptr) {
    capture->name = spec.name;
    capture->numObjects = spec.numObjects;
    capture->objectBytes = spec.objectBytes;
    capture->requests.clear();
  }

  // Observability taps (obs/): attach the caller's tracer to the machine
  // for the duration of this run — the network and the strategies read
  // it back through Network::tracer() — and drive the caller's sampler
  // across the phase loop. Both null by default, costing nothing.
  obs::Tracer* const tracer = opts.tracer;
  obs::Tracer* const prevTracer = m.net.tracer();
  if (tracer != nullptr) m.net.setTracer(tracer);
  obs::Sampler* const sampler =
      (opts.sampler != nullptr && opts.sampler->enabled()) ? opts.sampler : nullptr;

  const support::SplitMix64 master(spec.seed);

  // Object population: owners drawn from the placement stream (setup is
  // free, as in the figure benches). Every object carries a lock so any
  // processor may write it. The member walk only moves on machines that
  // shrank before this run — on a fresh machine it is the identity, so
  // the classic placement is bit-identical.
  support::SplitMix64 placement = master.split(kPlacementStream);
  std::vector<VarId> objects;
  objects.reserve(static_cast<std::size_t>(spec.numObjects));
  for (int i = 0; i < spec.numObjects; ++i) {
    const NodeId owner = m.net.firstMemberFrom(
        static_cast<NodeId>(placement.below(static_cast<std::uint64_t>(procs))));
    objects.push_back(rt.createVarFree(owner, makeRawValue(spec.objectBytes),
                                       /*withLock=*/true));
  }

  // The report covers exactly this run: measurement state starts clean.
  m.stats.reset(m.engine.now());
  m.stats.setPhase(0, m.engine.now());

  WorkloadReport report;
  report.workload = spec.name;
  report.strategy = rt.strategyName();
  report.topology = m.topo().name();
  report.procs = procs;

  const sim::Time startTime = m.engine.now();
  const std::uint64_t sentBefore = m.net.messagesSent();
  const std::uint64_t reroutedBefore = m.net.reroutedFlights();
  const std::uint64_t parkedBefore = m.net.parkedFlights();
  const int epochsBefore = m.net.reconfigEpoch();

  const Driver d{m, rt, objects, spec.objectBytes, startTime, capture};
  ServeState serveTotal;  // merged across open-loop phases
  for (int p = 0; p < numPhases; ++p) {
    report.phases.push_back(runPhase(d, spec, p, servePlans[static_cast<std::size_t>(p)],
                                     tracer, sampler, serveTotal));
  }

  report.completionUs = m.engine.now() - startTime;
  report.injected = m.net.messagesSent() - sentBefore;
  // Open-loop totals: offered rate time-weighted over the open-loop phases.
  bool anyOpen = false;
  double openWallUs = 0.0;
  double offeredDotWall = 0.0;
  for (const WorkloadReport::Phase& pr : report.phases) {
    report.linkMessages += pr.linkMessages;
    report.linkBytes += pr.linkBytes;
    if (!pr.serve.active) continue;
    anyOpen = true;
    openWallUs += pr.wallUs;
    offeredDotWall += pr.serve.offeredPerSec * pr.wallUs;
  }
  // Overall congestion: max over links of the link's traffic summed over
  // this run's phases (not the sum of per-phase maxima — different links
  // may peak in different phases).
  report.congestionMessages = m.stats.links.congestionMessages();
  report.congestionBytes = m.stats.links.congestionBytes();

  // The counters were reset at the run start, so they are the run's own.
  static_cast<Stats::Counters&>(report) = m.stats.ops;
  report.faulted = faulted;
  report.servedOps = report.reads + report.writes;
  const std::uint64_t attempted = report.servedOps + report.failedOps;
  report.availability =
      attempted ? static_cast<double>(report.servedOps) / static_cast<double>(attempted)
                : 1.0;
  report.reroutedFlights = m.net.reroutedFlights() - reroutedBefore;
  report.parkedFlights = m.net.parkedFlights() - parkedBefore;
  report.reconfigured = reconfigured;
  report.reconfigEpochs =
      static_cast<std::uint64_t>(m.net.reconfigEpoch() - epochsBefore);
  if (anyOpen) {
    fillServeMetrics(report.serve, serveTotal,
                     openWallUs > 0.0 ? offeredDotWall / openWallUs : 0.0, openWallUs);
  }

  if (capture != nullptr) {
    // Engine execution is time-ordered, but equal-instant issues from
    // different nodes land in handler order; pin the file to time order
    // (stable, so same-instant requests keep their execution order).
    std::stable_sort(capture->requests.begin(), capture->requests.end(),
                     [](const serve::TraceRequest& a, const serve::TraceRequest& b) {
                       return a.timeUs < b.timeUs;
                     });
  }

  // A faulted or reconfigured run must end with every object intact:
  // nothing lost, nothing dually owned, no repair or migration still
  // parked, every object managed by the CURRENT access tree
  // (docs/faults.md). Fault-free fixed-shape runs skip the sweep — it is
  // O(objects) and the healthy invariants are already pinned by the
  // strategy test suites.
  if (faulted || reconfigured) rt.checkAllInvariants();
  if (tracer != nullptr) m.net.setTracer(prevTracer);
  return report;
}

WorkloadReport runOn(const net::TopologySpec& topo, const RuntimeConfig& config,
                     const WorkloadSpec& spec) {
  return runOn(topo, config, spec, RunOptions{});
}

WorkloadReport runOn(const net::TopologySpec& topo, const RuntimeConfig& config,
                     const WorkloadSpec& spec, const RunOptions& opts) {
  Machine m(topo);
  RuntimeConfig rc = config;
  rc.seed = spec.seed;
  rc.cacheCapacityBytes = spec.cacheBytes ? spec.cacheBytes : ~0ull;
  Runtime rt(m, rc);
  // The machine only exists inside this call, so observers handed in
  // unarmed are armed here against its engine.
  if (opts.tracer != nullptr && !opts.tracer->enabled())
    opts.tracer->enable(m.engine, opts.traceMask);
  if (opts.sampler != nullptr && !opts.sampler->enabled() && opts.sampleIntervalUs > 0.0)
    opts.sampler->configure(m.engine, opts.sampleIntervalUs);
  if (opts.sampler != nullptr && opts.sampler->enabled()) opts.sampler->bindMachine(m);
  return run(m, rt, spec, opts);
}

namespace {

// Column table shared by formatReport (text cells and total row) and
// registerReport (JSON keys): one row per column, naming a Tally field
// and its formatter, so adding a column changes every rendering together.
// The wall-time column has no field: a phase row shows its wall time, the
// total row the run's completion time.
enum class Fmt { Ms, Count, KB };

struct PhaseCol {
  const char* header;            ///< text-table column header
  const char* key;               ///< registry key under phase/<i>/
  std::uint64_t Tally::*field;   ///< null for the wall-time column
  Fmt fmt;
  bool inTotal;                  ///< the total row shows the run's value
};

const PhaseCol kPhaseCols[] = {
    {"wall ms", "wall_us", nullptr, Fmt::Ms, true},
    {"injected", "injected", &Tally::injected, Fmt::Count, true},
    {"link msgs", "link_messages", &Tally::linkMessages, Fmt::Count, true},
    {"link KB", "link_bytes", &Tally::linkBytes, Fmt::KB, true},
    {"cong msgs", "congestion_messages", &Tally::congestionMessages, Fmt::Count, true},
    {"cong KB", "congestion_bytes", &Tally::congestionBytes, Fmt::KB, true},
    {"reads", "reads", &Tally::reads, Fmt::Count, false},
    {"hits", "read_hits", &Tally::readHits, Fmt::Count, false},
    {"writes", "writes", &Tally::writes, Fmt::Count, false},
    {"invals", "invalidations", &Tally::invalidations, Fmt::Count, false},
    {"locks", "locks", &Tally::locks, Fmt::Count, false},
};

double colValue(const PhaseCol& c, const Tally& t, double wallUs) {
  return c.field != nullptr ? static_cast<double>(t.*c.field) : wallUs;
}

std::string colCell(const PhaseCol& c, const Tally& t, double wallUs) {
  switch (c.fmt) {
    case Fmt::Ms:
      return support::fmt(wallUs / 1e3, 2);
    case Fmt::KB:
      return kb(t.*c.field);
    case Fmt::Count:
      break;
  }
  return std::to_string(t.*c.field);
}

struct ServeCol {
  const char* header;  ///< text-table column header
  const char* key;     ///< registry key under .../serve/
  double (*num)(const ServeMetrics& sv);
  std::string (*cell)(const ServeMetrics& sv);
};

const ServeCol kServeCols[] = {
    {"offered/s", "offered_per_sec", [](const ServeMetrics& sv) { return sv.offeredPerSec; },
     [](const ServeMetrics& sv) { return support::fmt(sv.offeredPerSec, 0); }},
    {"achieved/s", "achieved_per_sec",
     [](const ServeMetrics& sv) { return sv.achievedPerSec; },
     [](const ServeMetrics& sv) { return support::fmt(sv.achievedPerSec, 0); }},
    {"p50 µs", "p50_us", [](const ServeMetrics& sv) { return sv.p50Us; },
     [](const ServeMetrics& sv) { return support::fmt(sv.p50Us, 2); }},
    {"p90 µs", "p90_us", [](const ServeMetrics& sv) { return sv.p90Us; },
     [](const ServeMetrics& sv) { return support::fmt(sv.p90Us, 2); }},
    {"p99 µs", "p99_us", [](const ServeMetrics& sv) { return sv.p99Us; },
     [](const ServeMetrics& sv) { return support::fmt(sv.p99Us, 2); }},
    {"p999 µs", "p999_us", [](const ServeMetrics& sv) { return sv.p999Us; },
     [](const ServeMetrics& sv) { return support::fmt(sv.p999Us, 2); }},
    {"max µs", "max_us", [](const ServeMetrics& sv) { return sv.maxUs; },
     [](const ServeMetrics& sv) { return support::fmt(sv.maxUs, 2); }},
    {"served", "served", [](const ServeMetrics& sv) { return static_cast<double>(sv.served); },
     [](const ServeMetrics& sv) { return std::to_string(sv.served); }},
    {"dropped", "dropped",
     [](const ServeMetrics& sv) { return static_cast<double>(sv.dropped); },
     [](const ServeMetrics& sv) { return std::to_string(sv.dropped); }},
    {"late", "late", [](const ServeMetrics& sv) { return static_cast<double>(sv.late); },
     [](const ServeMetrics& sv) { return std::to_string(sv.late); }},
    {"peak infl", "max_in_flight",
     [](const ServeMetrics& sv) { return static_cast<double>(sv.maxInFlight); },
     [](const ServeMetrics& sv) { return std::to_string(sv.maxInFlight); }},
};

}  // namespace

std::string formatReport(const WorkloadReport& r) {
  std::ostringstream out;
  out << "workload '" << r.workload << "' · strategy " << r.strategy << " · "
      << r.topology << " (" << r.procs << " procs)\n";
  std::vector<std::string> headers{"phase"};
  for (const PhaseCol& c : kPhaseCols) headers.emplace_back(c.header);
  support::Table t(headers);
  for (const WorkloadReport::Phase& p : r.phases) {
    std::vector<std::string> row{p.name};
    for (const PhaseCol& c : kPhaseCols) row.push_back(colCell(c, p, p.wallUs));
    t.addRow(row);
  }
  std::vector<std::string> total{"total"};
  for (const PhaseCol& c : kPhaseCols)
    total.push_back(c.inTotal ? colCell(c, r, r.completionUs) : std::string());
  t.addRow(total);
  t.print(out);
  // SLO table only when some phase ran open loop — closed-loop reports
  // render byte-identically to earlier versions.
  if (r.serve.active) {
    out << "open-loop serving · latency from scheduled arrival (docs/serving.md)\n";
    std::vector<std::string> sheaders{"phase"};
    for (const ServeCol& c : kServeCols) sheaders.emplace_back(c.header);
    support::Table st(sheaders);
    auto serveRow = [&st](const std::string& name, const ServeMetrics& sv) {
      std::vector<std::string> row{name};
      for (const ServeCol& c : kServeCols) row.push_back(c.cell(sv));
      st.addRow(row);
    };
    for (const WorkloadReport::Phase& p : r.phases) {
      if (p.serve.active) serveRow(p.name, p.serve);
    }
    serveRow("total", r.serve);
    st.print(out);
  }
  // Availability/recovery section only on faulted or reconfigured runs —
  // a fault-free fixed-shape report renders byte-identically to earlier
  // versions.
  if (r.faulted || r.reconfigured) {
    out << "availability " << support::fmt(r.availability, 4) << " · served "
        << r.servedOps << " · failed " << r.failedOps << " · retried " << r.retriedOps
        << "\n";
    out << "recovery " << r.recoveryMessages << " msgs · " << kb(r.recoveryBytes)
        << " KB · " << r.repairedVars << " vars repaired · " << r.reroutedFlights
        << " flights rerouted · " << r.parkedFlights << " parked\n";
  }
  if (r.reconfigured) {
    out << "reconfig " << r.reconfigEpochs << " epochs · " << r.migratedVars
        << " vars migrated · " << r.migrationMessages << " migration msgs · "
        << kb(r.migrationBytes) << " KB moved · " << r.forwardedOps
        << " ops forwarded\n";
  }
  return out.str();
}

std::string formatComparison(const WorkloadReport& a, const WorkloadReport& b) {
  auto ratio = [](double x, double y) {
    return y > 0.0 ? support::fmt(x / y, 2) : std::string("n/a");
  };
  std::ostringstream out;
  out << "strategy A/B on " << a.topology << " · workload '" << a.workload << "'\n";
  support::Table t({"metric", a.strategy, b.strategy,
                    "ratio (" + a.strategy + " / " + b.strategy + ")"});
  // Cells show `scale`d values at `digits`; the ratio uses the raw ones.
  const auto real = [&](const char* label, double x, double y, double scale, int digits) {
    t.addRow({label, support::fmt(x / scale, digits), support::fmt(y / scale, digits),
              ratio(x, y)});
  };
  const auto count = [&](const char* label, std::uint64_t x, std::uint64_t y) {
    t.addRow({label, std::to_string(x), std::to_string(y),
              ratio(static_cast<double>(x), static_cast<double>(y))});
  };
  const auto bytes = [&](const char* label, std::uint64_t x, std::uint64_t y) {
    t.addRow({label, kb(x), kb(y), ratio(static_cast<double>(x), static_cast<double>(y))});
  };
  real("completion ms", a.completionUs, b.completionUs, 1e3, 2);
  count("injected messages", a.injected, b.injected);
  count("link crossings", a.linkMessages, b.linkMessages);
  bytes("link traffic KB", a.linkBytes, b.linkBytes);
  count("max-link congestion msgs", a.congestionMessages, b.congestionMessages);
  bytes("max-link congestion KB", a.congestionBytes, b.congestionBytes);
  if (a.serve.active || b.serve.active) {
    real("achieved req/s", a.serve.achievedPerSec, b.serve.achievedPerSec, 1.0, 0);
    real("p50 latency µs", a.serve.p50Us, b.serve.p50Us, 1.0, 2);
    real("p99 latency µs", a.serve.p99Us, b.serve.p99Us, 1.0, 2);
    real("p999 latency µs", a.serve.p999Us, b.serve.p999Us, 1.0, 2);
    count("dropped requests", a.serve.dropped, b.serve.dropped);
    count("late requests", a.serve.late, b.serve.late);
  }
  if (a.faulted || b.faulted || a.reconfigured || b.reconfigured) {
    real("availability", a.availability, b.availability, 1.0, 4);
    count("failed ops", a.failedOps, b.failedOps);
    count("recovery messages", a.recoveryMessages, b.recoveryMessages);
    bytes("recovery KB", a.recoveryBytes, b.recoveryBytes);
    count("vars repaired", a.repairedVars, b.repairedVars);
  }
  if (a.reconfigured || b.reconfigured) {
    count("vars migrated", a.migratedVars, b.migratedVars);
    count("migration messages", a.migrationMessages, b.migrationMessages);
    bytes("migration KB", a.migrationBytes, b.migrationBytes);
    count("forwarded ops", a.forwardedOps, b.forwardedOps);
  }
  t.print(out);
  return out.str();
}

void registerReport(obs::MetricsRegistry& reg, const WorkloadReport& r) {
  reg.text("run/workload", r.workload);
  reg.text("run/strategy", r.strategy);
  reg.text("run/topology", r.topology);
  reg.value("run/procs", static_cast<double>(r.procs));
  reg.value("run/completion_us", r.completionUs);
  reg.value("run/injected", static_cast<double>(r.injected));
  reg.value("run/link_messages", static_cast<double>(r.linkMessages));
  reg.value("run/link_bytes", static_cast<double>(r.linkBytes));
  reg.value("run/congestion_messages", static_cast<double>(r.congestionMessages));
  reg.value("run/congestion_bytes", static_cast<double>(r.congestionBytes));
  reg.value("run/faulted", r.faulted ? 1.0 : 0.0);
  reg.value("run/served_ops", static_cast<double>(r.servedOps));
  reg.value("run/failed_ops", static_cast<double>(r.failedOps));
  reg.value("run/retried_ops", static_cast<double>(r.retriedOps));
  reg.value("run/availability", r.availability);
  reg.value("run/recovery_messages", static_cast<double>(r.recoveryMessages));
  reg.value("run/recovery_bytes", static_cast<double>(r.recoveryBytes));
  reg.value("run/repaired_vars", static_cast<double>(r.repairedVars));
  reg.value("run/rerouted_flights", static_cast<double>(r.reroutedFlights));
  reg.value("run/parked_flights", static_cast<double>(r.parkedFlights));
  reg.value("run/reconfigured", r.reconfigured ? 1.0 : 0.0);
  reg.value("run/reconfig_epochs", static_cast<double>(r.reconfigEpochs));
  reg.value("run/migrated_vars", static_cast<double>(r.migratedVars));
  reg.value("run/migration_messages", static_cast<double>(r.migrationMessages));
  reg.value("run/migration_bytes", static_cast<double>(r.migrationBytes));
  reg.value("run/forwarded_ops", static_cast<double>(r.forwardedOps));
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    const WorkloadReport::Phase& p = r.phases[i];
    const std::string base = "phase/" + std::to_string(i) + "/";
    reg.text(base + "name", p.name);
    for (const PhaseCol& c : kPhaseCols) reg.value(base + c.key, colValue(c, p, p.wallUs));
    reg.value(base + "failed_ops", static_cast<double>(p.failedOps));
    reg.value(base + "retried_ops", static_cast<double>(p.retriedOps));
    reg.value(base + "recovery_messages", static_cast<double>(p.recoveryMessages));
    reg.value(base + "recovery_bytes", static_cast<double>(p.recoveryBytes));
    if (p.serve.active) {
      for (const ServeCol& c : kServeCols)
        reg.value(base + "serve/" + c.key, c.num(p.serve));
      reg.value(base + "serve/arrived", static_cast<double>(p.serve.arrived));
      reg.value(base + "serve/mean_us", p.serve.meanUs);
    }
  }
  if (r.serve.active) {
    for (const ServeCol& c : kServeCols)
      reg.value(std::string("serve/") + c.key, c.num(r.serve));
    reg.value("serve/arrived", static_cast<double>(r.serve.arrived));
    reg.value("serve/mean_us", r.serve.meanUs);
  }
}

std::string reportJson(const WorkloadReport& r) {
  obs::MetricsRegistry reg;
  registerReport(reg, r);
  return reg.toJson();
}

}  // namespace diva::workload
