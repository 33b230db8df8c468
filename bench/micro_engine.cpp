// Micro benchmarks (google-benchmark) for the simulator substrate itself:
// event throughput, routing, and end-to-end DIVA operation cost in host
// time. These guard against performance regressions that would make the
// figure benches impractically slow.

#include <benchmark/benchmark.h>

#include "diva/machine.hpp"
#include "diva/runtime.hpp"
#include "net/graph_topology.hpp"
#include "net/hier_routing.hpp"
#include "obs/tracer.hpp"
#include "serve/arrival.hpp"
#include "workload/workload.hpp"

namespace {

using namespace diva;

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    for (int i = 0; i < 10000; ++i)
      e.scheduleAt(static_cast<double>(i % 97), [] {});
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EngineEventThroughput);

// Steady-state event churn with protocol-sized captures. A population of
// 512 self-rescheduling events keeps the heap at working depth, and each
// event carries 32 bytes of state — the size of a typical network
// continuation (this-pointer, in-flight message state, a deadline). This
// is the `events_per_sec` series recorded in BENCH_engine.json.
struct ChurnEvent {
  sim::Engine* engine;
  std::uint64_t* budget;
  std::uint64_t rng;
  std::uint64_t pad;
  void operator()() const {
    if (*budget == 0) return;
    --*budget;
    const std::uint64_t next = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    engine->scheduleAfter(static_cast<double>(next % 97),
                          ChurnEvent{engine, budget, next, pad});
  }
};

void BM_EngineEventChurn(benchmark::State& state) {
  static_assert(sizeof(ChurnEvent) == 32);
  std::uint64_t processed = 0;
  for (auto _ : state) {
    sim::Engine e;
    std::uint64_t budget = 100000;
    for (std::uint64_t i = 0; i < 512; ++i) {
      if (budget == 0) break;
      --budget;
      e.scheduleAt(static_cast<double>(i % 17), ChurnEvent{&e, &budget, i, 0});
    }
    e.run();
    processed += e.eventsProcessed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
}
BENCHMARK(BM_EngineEventChurn);

// Steady-state message churn on a 64-node machine: every node runs a
// protocol handler that relays each arriving message to a pseudo-random
// next node, so messages continuously traverse multi-hop routes, contend
// on links and re-enter dispatch. Run per topology so cross-topology
// routing cost is tracked from day one; the mesh leg is the
// `messages_per_sec` series recorded in BENCH_engine.json, the torus leg
// the `torus_messages_per_sec` series.
void messageChurn(benchmark::State& state, const net::TopologySpec& spec) {
  std::uint64_t sent = 0;
  std::uint64_t events = 0;
  sim::EventQueue::Stats qs{};
  for (auto _ : state) {
    Machine m(spec);
    const NodeId procs = static_cast<NodeId>(m.numProcs());
    std::uint64_t budget = 20000;
    for (NodeId p = 0; p < procs; ++p) {
      m.net.setHandler(p, net::kProtocolChannel, [&m, &budget, procs](net::Message&& msg) {
        if (budget == 0) return;
        --budget;
        const NodeId next = static_cast<NodeId>((msg.dst * 13 + 7) % procs);
        m.net.post(net::Message{msg.dst, next, net::kProtocolChannel, 64, {}});
      });
    }
    for (NodeId p = 0; p < procs; ++p) {
      m.net.post(net::Message{p, static_cast<NodeId>((p + procs / 2) % procs),
                              net::kProtocolChannel, 64, {}});
    }
    m.engine.run();
    sent += m.net.messagesSent();
    events += m.engine.eventsProcessed();
    qs = m.engine.queueStats();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sent));
  // Derived pipeline metric and queue-tier occupancy (see BENCH_engine.json).
  state.counters["events_per_message"] =
      static_cast<double>(events) / static_cast<double>(sent);
  const double pushes =
      static_cast<double>(qs.ringPushes + qs.sortedPushes + qs.overflowPushes);
  state.counters["ring_push_share"] = static_cast<double>(qs.ringPushes) / pushes;
  state.counters["overflow_push_share"] =
      static_cast<double>(qs.overflowPushes) / pushes;
  state.counters["bucket_width_us"] = qs.bucketWidthUs;
}

void BM_NetworkMessageChurn(benchmark::State& state) {
  messageChurn(state, net::TopologySpec::mesh2d(8, 8));
}
BENCHMARK(BM_NetworkMessageChurn);

void BM_NetworkMessageChurnTorus(benchmark::State& state) {
  messageChurn(state, net::TopologySpec::torus2d(8, 8));
}
BENCHMARK(BM_NetworkMessageChurnTorus);

// The general-graph leg: same relay churn on a random 3-regular 64-node
// graph, so the table-driven routing path (one load per hop instead of
// closed-form arithmetic) is tracked next to the mesh and torus series.
// This is the `graph_messages_per_sec` series in BENCH_engine.json.
void BM_NetworkMessageChurnGraph(benchmark::State& state) {
  static const net::TopologySpec spec =
      net::TopologySpec::graph(net::randomRegularGraph(64, 3, 1));
  messageChurn(state, spec);
}
BENCHMARK(BM_NetworkMessageChurnGraph);

// Hierarchical-routing leg: identical relay churn on the same 64-node
// random-regular graph, but routed by the landmark-ball scheme
// (docs/routing.md) instead of the dense all-pairs table — per-hop cost
// is an ancestor-chain scan over sorted balls rather than one table
// load, and routes may be up to the documented stretch longer. This is
// the `hier_routing_messages_per_sec` series in BENCH_engine.json.
void BM_HierRoutingMessageChurn(benchmark::State& state) {
  static const net::TopologySpec spec =
      net::TopologySpec::hierGraph(net::randomRegularGraph(64, 3, 1));
  messageChurn(state, spec);
}
BENCHMARK(BM_HierRoutingMessageChurn);

// Route-computation microbenchmark at a size where the dense table is no
// longer an option (4096 nodes would already need 16M entries/node):
// appendRoute on a 1024-node random-regular graph via ball lookups —
// the `hier_routing_routes_per_sec` series.
void BM_HierRoutingAppendRoute(benchmark::State& state) {
  static const net::HierGraphTopology topo(net::randomRegularGraph(1024, 4, 3));
  net::RouteVec route;
  std::uint64_t i = 0;
  for (auto _ : state) {
    route.clear();
    const auto a = static_cast<net::NodeId>(i * 37 % 1024);
    const auto b = static_cast<net::NodeId>(i * 101 % 1024);
    topo.appendRoute(a, b, route);
    benchmark::DoNotOptimize(route.size());
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HierRoutingAppendRoute);

// Zipf-churn workload: end-to-end DIVA traffic (strategy reads, locked
// writes, invalidations, barriers) generated by the synthetic-workload
// subsystem on an 8×8 mesh — a hot-set phase plus a drifted phase. Where
// the relay churn above measures the raw message pipeline, this measures
// the full protocol stack the figure benches and scenario runner
// exercise. Items = messages injected; this is the
// `workload_messages_per_sec` series in BENCH_engine.json.
void BM_WorkloadZipfChurn(benchmark::State& state) {
  workload::WorkloadSpec spec;
  spec.name = "bench-zipf-churn";
  spec.numObjects = 128;
  spec.objectBytes = 256;
  spec.seed = 1;
  spec.phases.push_back(
      workload::PhaseSpec{"hot", 16, 0.9, 1.0, 0, 0.0, true});
  spec.phases.push_back(
      workload::PhaseSpec{"drift", 16, 0.9, 1.0, 64, 0.0, true});
  std::uint64_t sent = 0;
  for (auto _ : state) {
    Machine m(net::TopologySpec::mesh2d(8, 8));
    Runtime rt(m, RuntimeConfig::accessTree(4, 1, spec.seed));
    (void)workload::run(m, rt, spec);
    sent += m.net.messagesSent();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sent));
}
BENCHMARK(BM_WorkloadZipfChurn);

// Traced variant of the zipf churn: the identical workload with an
// ENABLED tracer attached (all categories), so the cost of recording
// transaction/serve spans and network instants on the hot path is
// measured next to the untraced series. The records are cleared (not
// exported) each iteration — this prices recording, not JSON export.
// `workload_traced_messages_per_sec` in BENCH_engine.json; the ratio to
// `workload_messages_per_sec` is the traced-run overhead documented in
// docs/benchmarks.md and docs/observability.md.
void BM_WorkloadTraced(benchmark::State& state) {
  workload::WorkloadSpec spec;
  spec.name = "bench-zipf-traced";
  spec.numObjects = 128;
  spec.objectBytes = 256;
  spec.seed = 1;
  spec.phases.push_back(
      workload::PhaseSpec{"hot", 16, 0.9, 1.0, 0, 0.0, true});
  spec.phases.push_back(
      workload::PhaseSpec{"drift", 16, 0.9, 1.0, 64, 0.0, true});
  std::uint64_t sent = 0;
  for (auto _ : state) {
    Machine m(net::TopologySpec::mesh2d(8, 8));
    Runtime rt(m, RuntimeConfig::accessTree(4, 1, spec.seed));
    obs::Tracer tracer;
    tracer.enable(m.engine, obs::kCatAll);
    workload::RunOptions opts;
    opts.tracer = &tracer;
    (void)workload::run(m, rt, spec, opts);
    sent += m.net.messagesSent();
    benchmark::DoNotOptimize(tracer.numRecords(obs::kCatAll));
    tracer.clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sent));
}
BENCHMARK(BM_WorkloadTraced);

// Faulted variant of the workload churn: the same 8×8-mesh zipf traffic
// with a link flap and a processor crash/recover per phase, so the
// detour BFS, crash repair, re-homing and availability retry paths are
// all on the measured path. This is the `workload_churn_messages_per_sec`
// series in BENCH_engine.json; its floor in tools/check_bench_floor.py
// guards the fault machinery against order-of-magnitude regressions.
void BM_WorkloadChurn(benchmark::State& state) {
  workload::WorkloadSpec spec;
  spec.name = "bench-fault-churn";
  spec.numObjects = 128;
  spec.objectBytes = 256;
  spec.seed = 1;
  auto fault = [](net::FaultEvent::Kind k, double offsetUs, net::NodeId a,
                  net::NodeId b = 0) {
    net::FaultEvent ev;
    ev.kind = k;
    ev.offsetUs = offsetUs;
    ev.a = a;
    ev.b = b;
    return ev;
  };
  workload::PhaseSpec hot{"hot", 16, 0.9, 1.0, 0, 0.0, true, {}};
  hot.faults.push_back(fault(net::FaultEvent::Kind::LinkDown, 10.0, 10, 11));
  hot.faults.push_back(fault(net::FaultEvent::Kind::NodeDown, 20.0, 27));
  hot.faults.push_back(fault(net::FaultEvent::Kind::LinkUp, 60.0, 10, 11));
  hot.faults.push_back(fault(net::FaultEvent::Kind::NodeUp, 120.0, 27));
  spec.phases.push_back(hot);
  workload::PhaseSpec drift{"drift", 16, 0.9, 1.0, 64, 0.0, true, {}};
  drift.faults.push_back(fault(net::FaultEvent::Kind::LinkDown, 15.0, 33, 41));
  drift.faults.push_back(fault(net::FaultEvent::Kind::NodeDown, 25.0, 9));
  drift.faults.push_back(fault(net::FaultEvent::Kind::LinkUp, 70.0, 33, 41));
  drift.faults.push_back(fault(net::FaultEvent::Kind::NodeUp, 130.0, 9));
  spec.phases.push_back(drift);
  std::uint64_t sent = 0;
  for (auto _ : state) {
    Machine m(net::TopologySpec::mesh2d(8, 8));
    Runtime rt(m, RuntimeConfig::accessTree(4, 1, spec.seed));
    (void)workload::run(m, rt, spec);
    sent += m.net.messagesSent();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sent));
}
BENCHMARK(BM_WorkloadChurn);

// Elastic variant of the workload churn (docs/faults.md
// "Reconfiguration"): a 64-node random-regular machine grows by two
// nodes, rewires, and shrinks back while the zipf traffic runs, so
// epoch delivery, tree re-decomposition, strategy-state migration and
// handoff forwarding are all on the measured path. This is the
// `workload_reconfig_messages_per_sec` series in BENCH_engine.json;
// its floor in tools/check_bench_floor.py guards the elastic machinery
// against order-of-magnitude regressions.
void BM_WorkloadReconfig(benchmark::State& state) {
  workload::WorkloadSpec spec;
  spec.name = "bench-reconfig";
  spec.numObjects = 128;
  spec.objectBytes = 256;
  spec.seed = 1;
  auto ev = [](net::FaultEvent::Kind k, double offsetUs, net::NodeId a,
               net::NodeId b = 0) {
    net::FaultEvent e;
    e.kind = k;
    e.offsetUs = offsetUs;
    e.a = a;
    e.b = b;
    return e;
  };
  workload::PhaseSpec grow{"grow", 16, 0.9, 1.0, 0, 0.0, true, {}};
  grow.faults.push_back(ev(net::FaultEvent::Kind::AddNode, 10.0, 5));
  grow.faults.push_back(ev(net::FaultEvent::Kind::AddNode, 30.0, 11));
  spec.phases.push_back(grow);
  workload::PhaseSpec rewire{"rewire", 16, 0.9, 1.0, 64, 0.0, true, {}};
  rewire.faults.push_back(ev(net::FaultEvent::Kind::AddLink, 10.0, 64, 65));
  rewire.faults.push_back(ev(net::FaultEvent::Kind::RemoveLink, 40.0, 5, 64));
  spec.phases.push_back(rewire);
  workload::PhaseSpec shrink{"shrink", 16, 0.7, 1.0, 0, 0.0, true, {}};
  shrink.faults.push_back(ev(net::FaultEvent::Kind::RemoveNode, 10.0, 64));
  shrink.faults.push_back(ev(net::FaultEvent::Kind::RemoveNode, 40.0, 65));
  spec.phases.push_back(shrink);
  const auto graph =
      std::make_shared<const net::GraphSpec>(net::randomRegularGraph(64, 3, 1));
  std::uint64_t sent = 0;
  for (auto _ : state) {
    Machine m(net::TopologySpec::graph(graph));
    Runtime rt(m, RuntimeConfig::accessTree(4, 1, spec.seed));
    (void)workload::run(m, rt, spec);
    sent += m.net.messagesSent();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sent));
}
BENCHMARK(BM_WorkloadReconfig);

// Open-loop serving churn: the same 8×8-mesh machine driven by a Poisson
// arrival schedule below the saturation knee (docs/serving.md), so the
// scheduled-arrival driver, latency histogram and per-request accounting
// are all on the measured path. Items = messages, and the run-total p99
// latency (simulated µs — a model property, not host time) is exported
// as a counter: `workload_openloop_messages_per_sec` and
// `workload_openloop_p99_us` in BENCH_engine.json. Each phase queues all
// its arrivals before the engine runs, so the queue-tier counters show
// whether that burst pushed the hop traffic off the O(1) ring
// (`workload_openloop_ring_push_share`).
void BM_WorkloadOpenLoop(benchmark::State& state) {
  workload::WorkloadSpec spec;
  spec.name = "bench-openloop";
  spec.numObjects = 128;
  spec.objectBytes = 256;
  spec.seed = 1;
  workload::PhaseSpec hot{"hot", 16, 0.9, 1.0, 0, 0.0, true, {}};
  hot.arrival.kind = serve::ArrivalSpec::Kind::Poisson;
  hot.arrival.ratePerSec = 2000.0;
  spec.phases.push_back(hot);
  workload::PhaseSpec drift{"drift", 16, 0.9, 1.0, 64, 0.0, true, {}};
  drift.arrival.kind = serve::ArrivalSpec::Kind::Poisson;
  drift.arrival.ratePerSec = 2000.0;
  spec.phases.push_back(drift);
  std::uint64_t sent = 0;
  double p99Us = 0.0;
  sim::EventQueue::Stats qs{};
  for (auto _ : state) {
    Machine m(net::TopologySpec::mesh2d(8, 8));
    Runtime rt(m, RuntimeConfig::accessTree(4, 1, spec.seed));
    const workload::WorkloadReport r = workload::run(m, rt, spec);
    sent += m.net.messagesSent();
    p99Us = r.serve.p99Us;
    qs = m.engine.queueStats();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sent));
  state.counters["p99_us"] = p99Us;
  const double pushes =
      static_cast<double>(qs.ringPushes + qs.sortedPushes + qs.overflowPushes);
  state.counters["ring_push_share"] = static_cast<double>(qs.ringPushes) / pushes;
  state.counters["bucket_width_us"] = qs.bucketWidthUs;
}
BENCHMARK(BM_WorkloadOpenLoop);

void BM_DimensionOrderRouting(benchmark::State& state) {
  const net::MeshTopology m(32, 32);
  net::RouteVec hops;
  std::uint64_t i = 0;
  for (auto _ : state) {
    hops.clear();
    const net::NodeId a = static_cast<net::NodeId>(i * 37 % 1024);
    const net::NodeId b = static_cast<net::NodeId>(i * 101 % 1024);
    m.appendRoute(a, b, hops);
    benchmark::DoNotOptimize(hops.begin());
    ++i;
  }
}
BENCHMARK(BM_DimensionOrderRouting);

void BM_LocalReadHit(benchmark::State& state) {
  Machine m(8, 8);
  Runtime rt(m, RuntimeConfig::accessTree(4, 1));
  const VarId x = rt.createVarFree(0, makeRawValue(256));
  for (auto _ : state) {
    const Value* v = rt.tryReadLocal(0, x);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalReadHit);

void BM_RemoteReadTransaction(benchmark::State& state) {
  // Host-time cost of one full access-tree read transaction including
  // all protocol events (fresh reader each iteration to avoid caching).
  for (auto _ : state) {
    state.PauseTiming();
    Machine m(8, 8);
    Runtime rt(m, RuntimeConfig::accessTree(4, 1));
    const VarId x = rt.createVarFree(63, makeRawValue(256));
    state.ResumeTiming();
    Value out;
    sim::spawn([](Runtime& r, VarId v, Value& o) -> sim::Task<> {
      o = co_await r.read(0, v);
    }(rt, x, out));
    m.engine.run();
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RemoteReadTransaction);

void BM_BarrierEpisode(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Machine m(8, 8);
    Runtime rt(m, RuntimeConfig::accessTree(4, 1));
    state.ResumeTiming();
    for (NodeId p = 0; p < 64; ++p) {
      sim::spawn([](Runtime& r, NodeId n) -> sim::Task<> {
        co_await r.barrier(n);
      }(rt, p));
    }
    m.engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_BarrierEpisode);

}  // namespace
