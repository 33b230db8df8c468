#include "obs/sampler.hpp"

#include <cstdio>
#include <ostream>

#include "diva/machine.hpp"
#include "support/check.hpp"

namespace diva::obs {

void Sampler::configure(sim::Engine& engine, double intervalUs) {
  DIVA_CHECK_MSG(intervalUs > 0.0, "sample interval must be positive");
  engine_ = &engine;
  intervalUs_ = intervalUs;
}

void Sampler::bindMachine(const Machine& m) {
  DIVA_CHECK_MSG(enabled(), "Sampler::configure first");
  machine_ = &m;
  const Machine* mp = &m;
  auto& r = registry_;
  r.gauge("engine/events_processed",
          [mp] { return static_cast<double>(mp->engine.eventsProcessed()); });
  r.gauge("engine/pending_events",
          [mp] { return static_cast<double>(mp->engine.pendingEvents()); });
  // Queue occupancy tiers (sim/event_queue.hpp): ring events, sorted
  // front runs, far-heap events.
  r.gauge("engine/queue_ring_events", [mp] {
    return static_cast<double>(mp->engine.queueOccupancy().ringEvents);
  });
  r.gauge("engine/queue_front_runs", [mp] {
    return static_cast<double>(mp->engine.queueOccupancy().frontRuns);
  });
  r.gauge("engine/queue_overflow_events", [mp] {
    return static_cast<double>(mp->engine.queueOccupancy().overflowEvents);
  });
  r.gauge("net/messages_sent",
          [mp] { return static_cast<double>(mp->net.messagesSent()); });
  r.gauge("net/live_nodes",
          [mp] { return static_cast<double>(mp->net.numLiveNodes()); });
  r.gauge("net/members",
          [mp] { return static_cast<double>(mp->net.numMembers()); });
  // Instantaneous availability: live members / members.
  r.gauge("net/availability", [mp] {
    const int members = mp->net.numMembers();
    return members == 0 ? 0.0
                        : static_cast<double>(mp->net.numLiveNodes()) / members;
  });
  r.gauge("net/rerouted_flights",
          [mp] { return static_cast<double>(mp->net.reroutedFlights()); });
  r.gauge("net/parked_flights",
          [mp] { return static_cast<double>(mp->net.parkedFlights()); });
  r.gauge("net/flights_in_limbo",
          [mp] { return static_cast<double>(mp->net.flightsInLimbo()); });
  r.gauge("net/reconfig_epoch",
          [mp] { return static_cast<double>(mp->net.reconfigEpoch()); });
  // Link aggregates; the per-link heatmap rows are handled in sample()
  // because the link set itself changes across reconfigurations.
  r.gauge("links/congestion_messages", [mp] {
    return static_cast<double>(mp->stats.links.congestionMessages());
  });
  r.gauge("links/congestion_bytes", [mp] {
    return static_cast<double>(mp->stats.links.congestionBytes());
  });
  r.gauge("links/total_messages", [mp] {
    return static_cast<double>(mp->stats.links.totalMessages());
  });
  r.gauge("links/total_bytes", [mp] {
    return static_cast<double>(mp->stats.links.totalBytes());
  });
  const Stats::Counters* ops = &m.stats.ops;
  r.counter("ops/reads", &ops->reads);
  r.counter("ops/read_hits", &ops->readHits);
  r.counter("ops/writes", &ops->writes);
  r.counter("ops/invalidations", &ops->invalidations);
  r.counter("ops/locks", &ops->locks);
  r.counter("ops/failed_ops", &ops->failedOps);
  r.counter("ops/retried_ops", &ops->retriedOps);
  r.counter("ops/repaired_vars", &ops->repairedVars);
  r.counter("ops/recovery_messages", &ops->recoveryMessages);
  r.counter("ops/recovery_bytes", &ops->recoveryBytes);
  // Migration traffic over time: the counters the reconfiguration
  // subsystem charges (docs/faults.md "Reconfiguration").
  r.counter("ops/migrated_vars", &ops->migratedVars);
  r.counter("ops/migration_messages", &ops->migrationMessages);
  r.counter("ops/migration_bytes", &ops->migrationBytes);
  r.counter("ops/forwarded_ops", &ops->forwardedOps);
}

void Sampler::phaseBegin(int phase) {
  DIVA_CHECK_MSG(enabled(), "Sampler::configure first");
  phase_ = phase;
  active_ = true;
  sample();
  engine_->scheduleAt(engine_->now() + intervalUs_, [this] { tick(); });
}

void Sampler::phaseEnd() {
  if (!active_) return;
  active_ = false;
  sample();
}

void Sampler::tick() {
  if (!active_) return;
  // The model has drained: this tick is the only thing that was left in
  // the queue. Stop the chain so the sampler never extends a phase by
  // more than one interval or keeps the engine spinning.
  if (engine_->pendingEvents() == 0) return;
  sample();
  engine_->scheduleAt(engine_->now() + intervalUs_, [this] { tick(); });
}

void Sampler::sample() {
  ++samples_;
  const double t = engine_->now();
  for (std::size_t i = 0; i < registry_.size(); ++i) {
    if (!registry_.isNumeric(i)) continue;
    rows_.push_back(Row{t, phase_, registry_.nameAt(i), registry_.numberAt(i)});
  }
  if (machine_ == nullptr) return;
  // Per-link congestion snapshot, heatmap-ready: one row per live
  // directed link of the *current* topology, named by its endpoints so
  // rows stay comparable across reconfigurations (slot numbers remap).
  const net::Topology& topo = machine_->net.topology();
  const net::LinkStats& links = machine_->stats.links;
  char name[48];
  for (net::NodeId n = 0; n < topo.numNodes(); ++n) {
    for (int dir = 0; dir < topo.degree(); ++dir) {
      const net::NodeId nb = topo.neighbor(n, dir);
      if (nb < 0) continue;
      const int link = topo.linkIndex(n, dir);
      std::snprintf(name, sizeof name, "link/%d>%d/messages", n, nb);
      rows_.push_back(Row{t, phase_, name,
                          static_cast<double>(links.linkMessages(link))});
    }
  }
}

void Sampler::writeCsv(std::ostream& out) const {
  out << "time_us,phase,metric,value\n";
  char ts[32];
  for (const Row& r : rows_) {
    std::snprintf(ts, sizeof ts, "%.3f", r.t);
    out << ts << ',' << r.phase << ',' << r.metric << ','
        << jsonNumber(r.value) << '\n';
  }
}

void Sampler::writeJson(std::ostream& out) const {
  out << "[";
  char ts[32];
  bool first = true;
  for (const Row& r : rows_) {
    std::snprintf(ts, sizeof ts, "%.3f", r.t);
    out << (first ? "\n" : ",\n") << "{\"time_us\":" << ts
        << ",\"phase\":" << r.phase << ",\"metric\":\"" << r.metric
        << "\",\"value\":" << jsonNumber(r.value) << "}";
    first = false;
  }
  out << "\n]\n";
}

}  // namespace diva::obs
