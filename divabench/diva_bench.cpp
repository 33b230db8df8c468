// diva_bench — host-time benchmark driver for the DIVA simulator.
//
// Runs one scenario file under the 4-ary access tree and the fixed-home
// baseline, rep after rep, until a host-time budget is spent, and prints
// one JSON object of raw samples on stdout. divabench/run_benchmark.py
// turns those samples into the metrics named in BENCHMARK.json;
// divabench/README.md defines every metric and the layer ladder.
//
//   diva_bench <scenario> [--seed N] [--seconds S] [--smoke]
//              [--trace] [--host-trace <path>]
//
//   --seed N      replaces the scenario's own seed (access streams, object
//                 placement, arrival schedules, tree embedding); the
//                 machine shape is fixed by the file
//   --seconds S   host-time budget of the reps (default 10; at least one
//                 rep always runs)
//   --smoke       rounds ÷ 50 (at least 1), one rep, every check still on
//   --trace       one untraced rep, then per strategy three ladder passes:
//                 an untraced leg, the layer rungs and an all-categories
//                 obs::Tracer leg; host times are the passes' medians
//   --host-trace  with --trace: write the host-time spans (setup, run,
//                 ladder rungs; each parented to its rep) as Chrome JSON
//
// Every leg is checked: Runtime::checkAllInvariants, per-phase
// conservation (closed loop: served + failed == offered; open loop:
// arrived == served + dropped), and a byte-identical reportJson digest
// across reps. Exit codes: 0 all checks pass, 1 a check failed (the JSON
// still prints, with "correct": false), 2 bad usage, 3 unrunnable
// scenario.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "diva/machine.hpp"
#include "diva/runtime.hpp"
#include "net/topology_env.hpp"
#include "obs/tracer.hpp"
#include "serve/arrival.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/workload.hpp"

using namespace diva;

namespace {

double hostNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Host-time spans, kept in memory and written as Chrome trace-event JSON at
// exit. Each span names its parent (a rep span), so self time per layer is
// the span minus its children.
// ---------------------------------------------------------------------------

class HostTrace {
 public:
  int open(const char* name, const char* strategy, int parent) {
    spans_.push_back({name, strategy, parent, hostNow(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].t1 = hostNow(); }

  void write(std::ostream& out) const {
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", (s.t0 - origin_) * 1e6,
                    (s.t1 - s.t0) * 1e6);
      out << (i ? "," : "") << "{\"name\":\"" << s.name
          << "\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":0,\"tid\":0," << buf
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent;
      if (s.strategy != nullptr) out << ",\"strategy\":\"" << s.strategy << '"';
      out << "}}";
    }
    out << "]}\n";
  }

 private:
  struct Span {
    const char* name;
    const char* strategy;
    int parent;
    double t0;
    double t1;
  };
  std::vector<Span> spans_;
  double origin_ = hostNow();
};

/// Host seconds `f` takes.
template <typename F>
double hostSeconds(F&& f) {
  const double t0 = hostNow();
  f();
  return hostNow() - t0;
}

/// hostSeconds, recorded as a span when tracing.
template <typename F>
double timed(HostTrace* ht, const char* name, const char* strategy, int parent, F&& f) {
  const int id = ht != nullptr ? ht->open(name, strategy, parent) : -1;
  const double s = hostSeconds(f);
  if (ht != nullptr) ht->close(id);
  return s;
}

// ---------------------------------------------------------------------------
// Minimal JSON writer for the result object.
// ---------------------------------------------------------------------------

class Json {
 public:
  Json& obj(const char* key = nullptr) {
    sep(key);
    out_ << '{';
    first_ = true;
    return *this;
  }
  Json& arr(const char* key) {
    sep(key);
    out_ << '[';
    first_ = true;
    return *this;
  }
  Json& endObj() {
    out_ << '}';
    first_ = false;
    return *this;
  }
  Json& endArr() {
    out_ << ']';
    first_ = false;
    return *this;
  }
  Json& num(const char* key, double v) {
    sep(key);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out_ << buf;
    return *this;
  }
  Json& str(const char* key, std::string_view v) {
    sep(key);
    out_ << '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        out_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ << buf;
      } else {
        out_ << c;
      }
    }
    out_ << '"';
    return *this;
  }
  Json& boolean(const char* key, bool v) {
    sep(key);
    out_ << (v ? "true" : "false");
    return *this;
  }
  /// Splice an already rendered JSON value.
  Json& raw(const char* key, const std::string& json) {
    sep(key);
    out_ << json;
    return *this;
  }
  std::string text() const { return out_.str(); }

 private:
  void sep(const char* key) {
    if (!first_) out_ << ',';
    first_ = false;
    if (key != nullptr) out_ << '"' << key << "\":";
  }
  std::ostringstream out_;
  bool first_ = true;
};

/// Streambuf that only counts bytes: prices trace export without disk I/O.
class CountingBuf : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) ++bytes_;
    return traits_type::not_eof(c);
  }

 private:
  std::uint64_t bytes_ = 0;
};

std::string fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// rows×cols ≈ square factorization of P (scenario_runner's rule).
void gridShape(int procs, int& rows, int& cols) {
  rows = 1;
  for (int r = 1; r * r <= procs; ++r)
    if (procs % r == 0) rows = r;
  cols = procs / rows;
}

// ---------------------------------------------------------------------------
// The benchmark: one scenario, two strategies.
// ---------------------------------------------------------------------------

struct Variant {
  const char* key;  ///< "at" / "fh" — metric suffix
  RuntimeConfig config;
};

struct Bench {
  workload::WorkloadSpec spec;
  net::TopologySpec topo;
  std::vector<Variant> strategies;
  /// Member processors at each phase start: the initial machine plus the
  /// add-node minus remove-node events of earlier phases (new nodes join,
  /// and retired ones leave, the driver at the next phase boundary).
  std::vector<int> phaseMembers;
  std::vector<std::string> errors;  ///< the first 16 failures
  int failures = 0;

  void fail(const std::string& what) {
    ++failures;
    if (errors.size() < 16) errors.push_back(what);
  }
};

/// Served / lost / offered op counts of one leg, summed over phases.
struct Accounting {
  std::uint64_t offered = 0;
  std::uint64_t served = 0;
  std::uint64_t lost = 0;  ///< closed loop: failed; open loop: dropped
};

Accounting checkConservation(Bench& b, const char* key, const workload::WorkloadReport& r) {
  Accounting acc;
  for (std::size_t p = 0; p < b.spec.phases.size(); ++p) {
    const workload::PhaseSpec& ph = b.spec.phases[p];
    const workload::WorkloadReport::Phase& pr = r.phases[p];
    const std::uint64_t scheduled =
        static_cast<std::uint64_t>(ph.rounds) * static_cast<std::uint64_t>(b.phaseMembers[p]);
    const std::uint64_t served = pr.reads + pr.writes;
    const std::string where = std::string(key) + " phase '" + ph.name + "': ";
    if (ph.openLoop()) {
      const workload::ServeMetrics& sv = pr.serve;
      if (sv.arrived != sv.served + sv.dropped)
        b.fail(where + "arrived " + std::to_string(sv.arrived) + " != served " +
               std::to_string(sv.served) + " + dropped " + std::to_string(sv.dropped));
      if (ph.tracePath.empty() && sv.arrived != scheduled)
        b.fail(where + "arrived " + std::to_string(sv.arrived) + " != scheduled " +
               std::to_string(scheduled));
      if (sv.served != served)
        b.fail(where + "served " + std::to_string(sv.served) + " != reads+writes " +
               std::to_string(served));
      acc.offered += sv.arrived;
      acc.lost += sv.dropped;
    } else {
      if (served + pr.failedOps != scheduled)
        b.fail(where + "served " + std::to_string(served) + " + failed " +
               std::to_string(pr.failedOps) + " != offered " + std::to_string(scheduled));
      acc.offered += scheduled;
      acc.lost += pr.failedOps;
    }
    acc.served += served;
  }
  return acc;
}

/// One strategy's run of the whole spec on a fresh machine.
struct Leg {
  double machineS = 0.0;
  double runtimeS = 0.0;
  double runS = 0.0;
  workload::WorkloadReport report;
  Stats::Counters ops;
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  sim::EventQueue::Stats queue;
  Accounting acc;
  std::string digest;
  bool failed = false;  ///< some check failed during this leg
  // Traced legs only.
  std::size_t traceRecords = 0;
  double exportS = 0.0;
  std::uint64_t traceBytes = 0;
};

/// `wantDigest` is the strategy's first leg's digest (empty for that leg).
Leg runLeg(Bench& b, const Variant& s, HostTrace* ht, int parent, bool traced,
           const std::string& wantDigest) {
  const int failuresBefore = b.failures;
  Leg leg;
  std::unique_ptr<Machine> m;
  std::unique_ptr<Runtime> rt;
  leg.machineS = timed(ht, "setup.machine", s.key, parent,
                       [&] { m = std::make_unique<Machine>(b.topo); });
  leg.runtimeS = timed(ht, "setup.runtime", s.key, parent,
                       [&] { rt = std::make_unique<Runtime>(*m, s.config); });
  obs::Tracer tracer;
  workload::RunOptions opts;
  if (traced) {
    tracer.enable(m->engine, obs::kCatAll);
    opts.tracer = &tracer;
  }
  const std::uint64_t events0 = m->engine.eventsProcessed();
  const std::uint64_t msgs0 = m->net.messagesSent();
  leg.runS = timed(ht, traced ? "run.traced" : "run", s.key, parent,
                   [&] { leg.report = workload::run(*m, *rt, b.spec, opts); });
  leg.events = m->engine.eventsProcessed() - events0;
  leg.msgs = m->net.messagesSent() - msgs0;
  leg.queue = m->engine.queueStats();
  leg.ops = m->stats.ops;

  rt->checkAllInvariants();
  leg.acc = checkConservation(b, s.key, leg.report);
  leg.digest = fnv1a(workload::reportJson(leg.report));
  if (!wantDigest.empty() && leg.digest != wantDigest)
    b.fail(std::string(s.key) + (traced ? " traced" : "") + " leg: report digest " +
           leg.digest + " differs from the first leg's " + wantDigest);
  if (traced) {
    CountingBuf sink;
    std::ostream out(&sink);
    leg.exportS = timed(ht, "trace.export", s.key, parent, [&] { tracer.writeChromeJson(out); });
    leg.traceRecords = tracer.numRecords();
    leg.traceBytes = sink.bytes();
  }
  leg.failed = b.failures > failuresBefore;
  return leg;
}

/// One rep: every strategy's leg. Per-strategy vectors follow
/// Bench::strategies.
struct RepSample {
  double wallS = 0.0;   ///< set-up plus run, all strategies
  double setupS = 0.0;  ///< Machine + Runtime construction, all strategies
  std::vector<double> ops;
  std::vector<double> runS;
};

/// Machine + Runtime construction of every strategy, nothing else.
double setupOnly(const Bench& b) {
  double total = 0.0;
  for (const Variant& s : b.strategies) {
    const double t0 = hostNow();
    Machine m(b.topo);
    Runtime rt(m, s.config);
    total += hostNow() - t0;
  }
  return total;
}

// ---------------------------------------------------------------------------
// The layer ladder (README "Ladder"): each rung drives one layer's public
// functions with the full run's unit counts, so the per-unit self cost of
// a layer is its rung minus the rungs below it.
// ---------------------------------------------------------------------------

struct Rung {
  double s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  std::uint64_t crossings = 0;
  std::uint64_t ops = 0;
};

/// A self-rescheduling event with a 32-byte capture — the size of a typical
/// network continuation.
struct ChurnEvent {
  sim::Engine* engine;
  std::uint64_t* budget;
  std::uint64_t rng;
  std::uint64_t pad;
  void operator()() const {
    if (*budget == 0) return;
    --*budget;
    const std::uint64_t next = rng * 6364136223846793005ull + 1442695040888963407ull;
    engine->scheduleAfter(static_cast<double>(next % 97), ChurnEvent{engine, budget, next, pad});
  }
};

/// Sim rung: Engine::scheduleAt/run churn, one event chain per processor.
Rung simRung(std::uint64_t events, int population) {
  Rung r;
  sim::Engine e;
  std::uint64_t budget = events;
  r.s = hostSeconds([&] {
    for (int i = 0; i < population && budget > 0; ++i) {
      --budget;
      e.scheduleAt(static_cast<double>(i % 17),
                   ChurnEvent{&e, &budget, static_cast<std::uint64_t>(i), 0});
    }
    e.run();
  });
  r.events = e.eventsProcessed();
  return r;
}

/// Net rung: Network::setHandler/post relay churn on the workload's own
/// machine — every delivery posts the next message to a random processor,
/// or with `near` to a random neighbour, so that two runs separate the
/// per-message cost from the per-link-crossing cost.
Rung netRung(Machine& m, std::uint64_t messages, std::uint64_t payload, std::uint64_t seed,
             bool near) {
  const int procs = m.numProcs();
  const net::Topology& topo = m.topo();
  std::uint64_t budget = messages;
  support::SplitMix64 rng(seed);
  const auto pick = [&rng, &topo, procs, near](NodeId from) {
    if (near) {
      for (;;) {
        const auto dir = static_cast<int>(rng.below(static_cast<std::uint64_t>(topo.degree())));
        const NodeId to = topo.neighbor(from, dir);
        if (to >= 0) return to;
      }
    }
    const auto to = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(procs - 1)));
    return to >= from ? to + 1 : to;  // never local: every message crosses links
  };
  for (NodeId p = 0; p < procs; ++p) {
    m.net.setHandler(p, net::kProtocolChannel, [&](net::Message&& msg) {
      if (budget == 0) return;
      --budget;
      m.net.post(net::Message{msg.dst, pick(msg.dst), net::kProtocolChannel, payload, {}});
    });
  }
  Rung r;
  const std::uint64_t events0 = m.engine.eventsProcessed();
  const std::uint64_t msgs0 = m.net.messagesSent();
  const std::uint64_t crossings0 = m.stats.links.totalMessages();
  r.s = hostSeconds([&] {
    for (NodeId p = 0; p < procs && budget > 0; ++p) {
      --budget;
      m.net.post(net::Message{p, pick(p), net::kProtocolChannel, payload, {}});
    }
    m.engine.run();
  });
  r.events = m.engine.eventsProcessed() - events0;
  r.msgs = m.net.messagesSent() - msgs0;
  r.crossings = m.stats.links.totalMessages() - crossings0;
  // The handlers reference this frame's locals: unregister them.
  for (NodeId p = 0; p < procs; ++p) m.net.setHandler(p, net::kProtocolChannel, nullptr);
  return r;
}

/// Diva rung's null driver: the workload's own access stream and Zipf
/// draws straight into Runtime::read/lock/write/unlock — no think time,
/// barriers, faults, arrivals or reconfiguration.
sim::Task<> nullNode(Runtime& rt, NodeId self, const workload::PhaseSpec& ph,
                     const workload::ZipfSampler& zipf, const std::vector<VarId>& objects,
                     std::uint64_t objectBytes, support::SplitMix64 rng) {
  const int n = static_cast<int>(objects.size());
  for (int round = 0; round < ph.rounds; ++round) {
    if (ph.thinkMeanUs > 0.0) (void)rng.uniform();  // keep the stream aligned
    const int idx = (zipf(rng) + ph.hotShift) % n;
    const VarId x = objects[static_cast<std::size_t>(idx)];
    if (rng.uniform() < ph.readFraction) {
      (void)co_await rt.read(self, x);
    } else {
      co_await rt.lock(self, x);
      co_await rt.write(self, x, makeRawValue(objectBytes));
      co_await rt.unlock(self, x);
    }
  }
}

Rung divaRung(const Bench& b, const Variant& s) {
  Machine m(b.topo);
  Runtime rt(m, s.config);
  const workload::WorkloadSpec& spec = b.spec;
  support::SplitMix64 placement = support::SplitMix64(spec.seed).split(0xd1u);
  std::vector<VarId> objects;
  objects.reserve(static_cast<std::size_t>(spec.numObjects));
  for (int i = 0; i < spec.numObjects; ++i) {
    const auto owner =
        static_cast<NodeId>(placement.below(static_cast<std::uint64_t>(m.numProcs())));
    objects.push_back(rt.createVarFree(owner, makeRawValue(spec.objectBytes), true));
  }
  Rung r;
  const std::uint64_t events0 = m.engine.eventsProcessed();
  const std::uint64_t msgs0 = m.net.messagesSent();
  r.s = hostSeconds([&] {
    for (std::size_t p = 0; p < spec.phases.size(); ++p) {
      const workload::PhaseSpec& ph = spec.phases[p];
      const workload::ZipfSampler zipf(spec.numObjects, ph.zipfS);
      for (NodeId node = 0; node < m.numProcs(); ++node)
        sim::spawn(nullNode(rt, node, ph, zipf, objects, spec.objectBytes,
                            workload::accessStream(spec.seed, static_cast<int>(p), node)));
      m.engine.run();
    }
  });
  r.events = m.engine.eventsProcessed() - events0;
  r.msgs = m.net.messagesSent() - msgs0;
  r.crossings = m.stats.links.totalMessages();
  r.ops = m.stats.ops.reads + m.stats.ops.writes;
  rt.checkAllInvariants();
  return r;
}

/// Mean host ns of one Topology::appendRoute between random processors.
double routeNs(const net::Topology& topo, std::uint64_t seed, std::uint64_t& hopsSink) {
  constexpr int kRoutes = 100000;
  support::SplitMix64 rng(seed);
  const auto n = static_cast<std::uint64_t>(topo.numNodes());
  std::vector<std::pair<NodeId, NodeId>> pairs(kRoutes);
  for (auto& [a, c] : pairs) {
    a = static_cast<NodeId>(rng.below(n));
    c = static_cast<NodeId>(rng.below(n));
  }
  net::RouteVec route;
  const double s = hostSeconds([&] {
    for (const auto& [a, c] : pairs) {
      route.clear();
      topo.appendRoute(a, c, route);
      hopsSink += route.size();
    }
  });
  return s / kRoutes * 1e9;
}

/// Host seconds of serve::generateArrivals for every open-loop phase; a
/// closed-loop spec is priced as its openLoopAt sweep variant.
double arrivalsBuildS(const Bench& b, std::uint64_t& countSink) {
  const bool open = std::any_of(b.spec.phases.begin(), b.spec.phases.end(),
                                [](const workload::PhaseSpec& ph) { return ph.arrival.open(); });
  const workload::WorkloadSpec spec = open ? b.spec : workload::openLoopAt(b.spec, 1000.0);
  return hostSeconds([&] {
    for (std::size_t p = 0; p < spec.phases.size(); ++p) {
      const workload::PhaseSpec& ph = spec.phases[p];
      if (!ph.arrival.open()) continue;
      const int members = b.phaseMembers[p];
      for (NodeId node = 0; node < members; ++node)
        countSink += serve::generateArrivals(ph.arrival, ph.rounds, members, spec.seed,
                                             static_cast<int>(p), node)
                         .size();
    }
  });
}

/// One ladder pass of one strategy: an untraced leg, the rungs sized to it
/// and a traced leg, back to back so that all see the same host speed.
struct LadderPass {
  Leg untraced;
  Leg traced;
  Rung sim;
  Rung netFar;
  Rung netNear;
  Rung diva;
};

LadderPass ladderPass(Bench& b, const Variant& s, const std::string& digest, Machine& relay,
                      HostTrace* ht, int parent, std::uint64_t seed) {
  LadderPass p;
  p.untraced = runLeg(b, s, ht, parent, false, digest);
  const Leg& u = p.untraced;
  timed(ht, "rung.sim", s.key, parent, [&] { p.sim = simRung(u.events, relay.numProcs()); });
  const std::uint64_t wire =
      u.report.linkBytes / std::max<std::uint64_t>(1, u.report.linkMessages);
  const std::uint64_t header = relay.net.cost().headerBytes;
  const std::uint64_t payload = wire > header ? wire - header : 0;
  timed(ht, "rung.net", s.key, parent, [&] {
    p.netFar = netRung(relay, u.msgs / 2, payload, seed, false);
    p.netNear = netRung(relay, u.msgs - u.msgs / 2, payload, seed, true);
  });
  timed(ht, "rung.diva", s.key, parent, [&] { p.diva = divaRung(b, s); });
  p.traced = runLeg(b, s, ht, parent, true, digest);
  return p;
}

/// The first pass's counts with every host time replaced by its median
/// over the passes.
LadderPass medianPass(const std::vector<LadderPass>& passes) {
  const auto median = [&passes](double (*field)(const LadderPass&)) {
    std::vector<double> v;
    for (const LadderPass& p : passes) v.push_back(field(p));
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  };
  LadderPass m = passes.front();
  m.untraced.runS = median([](const LadderPass& p) { return p.untraced.runS; });
  m.untraced.machineS = median([](const LadderPass& p) { return p.untraced.machineS; });
  m.untraced.runtimeS = median([](const LadderPass& p) { return p.untraced.runtimeS; });
  m.traced.runS = median([](const LadderPass& p) { return p.traced.runS; });
  m.traced.exportS = median([](const LadderPass& p) { return p.traced.exportS; });
  m.sim.s = median([](const LadderPass& p) { return p.sim.s; });
  m.netFar.s = median([](const LadderPass& p) { return p.netFar.s; });
  m.netNear.s = median([](const LadderPass& p) { return p.netNear.s; });
  m.diva.s = median([](const LadderPass& p) { return p.diva.s; });
  return m;
}

void writeRung(Json& j, const char* key, const Rung& r) {
  j.obj(key)
      .num("s", r.s)
      .num("events", r.events)
      .num("msgs", r.msgs)
      .num("crossings", r.crossings)
      .num("ops", r.ops)
      .endObj();
}

/// Raw per-layer numbers of one strategy; run_benchmark.py does the ladder
/// arithmetic.
void writeLayers(Json& j, const char* key, const LadderPass& p, double routeNsV,
                 double arrivalsS) {
  const Leg& u = p.untraced;
  const Leg& t = p.traced;
  const workload::WorkloadReport& r = u.report;
  j.obj(key)
      .num("run_s", u.runS)
      .num("machine_s", u.machineS)
      .num("runtime_s", u.runtimeS)
      .num("events", u.events)
      .num("msgs", u.msgs)
      .num("crossings", r.linkMessages)
      .num("ops", u.ops.reads + u.ops.writes)
      .num("reads", u.ops.reads)
      .num("read_hits", u.ops.readHits)
      .num("writes", u.ops.writes)
      .num("invalidations", u.ops.invalidations)
      .num("locks", u.ops.locks)
      .num("ring_pushes", u.queue.ringPushes)
      .num("sorted_pushes", u.queue.sortedPushes)
      .num("overflow_pushes", u.queue.overflowPushes)
      .num("rerouted", r.reroutedFlights)
      .num("parked", r.parkedFlights)
      .num("recovery_msgs", r.recoveryMessages)
      .num("repaired_vars", r.repairedVars)
      .num("migration_msgs", r.migrationMessages)
      .num("migrated_vars", r.migratedVars)
      .num("epochs", r.reconfigEpochs)
      .num("retried_ops", r.retriedOps)
      .num("failed_ops", r.failedOps)
      .num("forwarded_ops", r.forwardedOps)
      .num("arrived", r.serve.arrived)
      .num("dropped", r.serve.dropped)
      .num("late", r.serve.late)
      .num("max_in_flight", r.serve.maxInFlight)
      .num("p99_sim_us", r.serve.p99Us)
      .num("route_ns", routeNsV)
      .num("arrivals_build_s", arrivalsS)
      .num("traced_run_s", t.runS)
      .num("trace_records", static_cast<double>(t.traceRecords))
      .num("export_s", t.exportS)
      .num("trace_bytes", t.traceBytes);
  writeRung(j, "sim_rung", p.sim);
  writeRung(j, "net_rung", p.netFar);
  writeRung(j, "net_rung_near", p.netNear);
  writeRung(j, "diva_rung", p.diva);
  j.endObj();
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// Ladder passes per strategy in a traced run; times are their medians.
constexpr int kLadderPasses = 3;

const char kUsage[] =
    "usage: %s <scenario> [--seed N] [--seconds S] [--smoke] [--trace]\n"
    "       [--host-trace <path>]\n";

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string hostTracePath;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (arg == "--seed" && hasValue) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && hasValue) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--host-trace" && hasValue) {
      hostTracePath = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--trace") {
      traced = true;
    } else if (path.empty() && !arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::fprintf(stderr, kUsage, argv[0]);
      return 2;
    }
  }
  if (path.empty() || !(seconds >= 0.0)) {
    std::fprintf(stderr, kUsage, argv[0]);
    return 2;
  }

  Bench b;
  try {
    b.spec = workload::loadScenarioFile(path);
    b.spec.seed = seed;
    if (smoke)
      for (workload::PhaseSpec& ph : b.spec.phases) ph.rounds = std::max(1, ph.rounds / 50);
    DIVA_CHECK_MSG(b.spec.procs > 0, path << ": the scenario must set `procs`");
    int rows = 0, cols = 0;
    gridShape(b.spec.procs, rows, cols);
    b.topo = net::topologyByName(b.spec.topology.empty() ? "mesh2d" : b.spec.topology, rows,
                                 cols);
    const std::uint64_t cache = b.spec.cacheBytes ? b.spec.cacheBytes : ~0ull;
    RuntimeConfig at = RuntimeConfig::accessTree(4, 1, seed);
    RuntimeConfig fh = RuntimeConfig::fixedHome(seed);
    at.cacheCapacityBytes = fh.cacheCapacityBytes = cache;
    b.strategies = {{"at", at}, {"fh", fh}};
    int members = b.spec.procs;
    for (const workload::PhaseSpec& ph : b.spec.phases) {
      b.phaseMembers.push_back(members);
      for (const net::FaultEvent& ev : ph.faults) {
        if (ev.kind == net::FaultEvent::Kind::AddNode) ++members;
        if (ev.kind == net::FaultEvent::Kind::RemoveNode) --members;
      }
    }
  } catch (const support::CheckError& e) {
    std::fprintf(stderr, "diva_bench: %s\n", e.what());
    return 3;
  }

  // Samples are collected first and written once, so a check that throws
  // mid-rep still yields a well-formed result object.
  HostTrace hostTrace;
  HostTrace* ht = traced ? &hostTrace : nullptr;
  std::vector<RepSample> reps;
  std::vector<double> setupSamples;
  std::vector<std::string> digests(b.strategies.size());
  Accounting total;
  int legs = 0;
  int failedLegs = 0;
  std::string layers;
  double peakRss = 0.0;
  // Route hops and arrival counts, printed so that the timed loops'
  // results stay live.
  std::uint64_t keepAlive = 0;
  try {
    const double start = hostNow();
    // A rep starts only if one more of the last rep's length fits the budget.
    double repS = 0.0;
    do {
      const double repStart = hostNow();
      const int repSpan = ht != nullptr ? ht->open("rep", nullptr, -1) : -1;
      RepSample sample;
      for (std::size_t k = 0; k < b.strategies.size(); ++k) {
        const Leg leg = runLeg(b, b.strategies[k], ht, repSpan, false, digests[k]);
        ++legs;
        failedLegs += leg.failed;
        sample.wallS += leg.machineS + leg.runtimeS + leg.runS;
        sample.setupS += leg.machineS + leg.runtimeS;
        sample.ops.push_back(static_cast<double>(leg.ops.reads + leg.ops.writes));
        sample.runS.push_back(leg.runS);
        if (digests[k].empty()) digests[k] = leg.digest;
        total.offered += leg.acc.offered;
        total.served += leg.acc.served;
        total.lost += leg.acc.lost;
      }
      if (ht != nullptr) ht->close(repSpan);
      setupSamples.push_back(sample.setupS);
      reps.push_back(std::move(sample));
      repS = hostNow() - repStart;
      if (reps.size() == 1) {
        // What one run of each strategy needs, before later reps reuse and
        // fragment the heap.
        peakRss = peakRssMb();
        // Set-up-only samples within a tenth of the budget: hundreds where
        // set-up takes a millisecond, so its median is steady; a few where
        // it takes a second, beside the reps' own samples.
        const double setupStart = hostNow();
        while (!smoke && !traced && setupSamples.size() < 201 &&
               hostNow() - setupStart < 0.1 * seconds)
          setupSamples.push_back(setupOnly(b));
      }
    } while (!smoke && !traced && hostNow() - start + repS <= seconds);

    if (traced) {
      // The relay machine (net rungs, route timing) is shared by all passes.
      std::unique_ptr<Machine> relay;
      timed(ht, "setup.machine", nullptr, -1, [&] { relay = std::make_unique<Machine>(b.topo); });
      const double routeNsV = routeNs(relay->topo(), seed, keepAlive);
      const double arrivalsS = arrivalsBuildS(b, keepAlive);
      Json lj;
      lj.obj();
      for (std::size_t k = 0; k < b.strategies.size(); ++k) {
        std::vector<LadderPass> passes;
        for (int i = 0; i < kLadderPasses; ++i) {
          const int passSpan = ht->open("ladder", b.strategies[k].key, -1);
          passes.push_back(ladderPass(b, b.strategies[k], digests[k], *relay, ht, passSpan, seed));
          ht->close(passSpan);
          legs += 2;
          failedLegs += passes.back().untraced.failed + passes.back().traced.failed;
        }
        writeLayers(lj, b.strategies[k].key, medianPass(passes), routeNsV, arrivalsS);
      }
      layers = lj.endObj().text();
      if (!hostTracePath.empty()) {
        std::ofstream out(hostTracePath);
        hostTrace.write(out);
        out.close();
        if (!out.good()) b.fail("cannot write host trace '" + hostTracePath + "'");
      }
    }
    if (total.offered != total.served + total.lost)
      b.fail("offered " + std::to_string(total.offered) + " != served " +
             std::to_string(total.served) + " + lost " + std::to_string(total.lost));
  } catch (const support::CheckError& e) {
    // The leg (or rung) in progress threw: count it as attempted and failed.
    b.fail(std::string("check failed: ") + e.what());
    ++legs;
    ++failedLegs;
  }

  Json j;
  j.obj().str("workload", b.spec.name).num("seed", static_cast<double>(seed));
  j.arr("reps");
  for (const RepSample& r : reps) {
    j.obj().num("wall_s", r.wallS).num("setup_s", r.setupS);
    for (std::size_t k = 0; k < r.ops.size(); ++k) {
      const std::string key = b.strategies[k].key;
      j.num((key + "_ops").c_str(), r.ops[k]).num((key + "_run_s").c_str(), r.runS[k]);
    }
    j.endObj();
  }
  j.endArr().arr("setup_samples");
  for (const double s : setupSamples) j.num(nullptr, s);
  j.endArr().obj("digests");
  for (std::size_t k = 0; k < b.strategies.size(); ++k) j.str(b.strategies[k].key, digests[k]);
  j.endObj();
  if (!layers.empty()) j.raw("layers", layers).num("keep_alive", static_cast<double>(keepAlive));
  j.num("legs", legs)
      .num("failed_legs", failedLegs)
      .num("offered", static_cast<double>(total.offered))
      .num("served", static_cast<double>(total.served))
      .num("lost", static_cast<double>(total.lost))
      .num("peak_rss_mb", peakRss);
  j.arr("errors");
  for (const std::string& e : b.errors) j.str(nullptr, e);
  j.endArr().boolean("correct", b.errors.empty()).endObj();
  std::printf("%s\n", j.text().c_str());
  return b.errors.empty() ? 0 : 1;
}
