#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/cost_model.hpp"
#include "net/link_stats.hpp"
#include "net/message.hpp"
#include "net/shape_model.hpp"
#include "net/topology.hpp"
#include "obs/tracer.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "support/check.hpp"
#include "support/object_pool.hpp"
#include "support/ring_buffer.hpp"
#include "support/small_vec.hpp"

namespace diva::net {

/// The message-passing machine: single-CPU nodes joined by the directed
/// links of a pluggable `Topology`, simulated at message granularity.
///
/// Time model (three cost terms, matching the paper's observations):
///  1. *Startups*: each send charges `sendOverheadUs` on the sender's CPU,
///     each accepted message charges `recvOverheadUs` on the receiver's.
///     Every node has one CPU; application compute, send startups and
///     message handling serialize on it (`cpuFreeAt_`).
///  2. *Bandwidth & contention*: a message occupies every directed link of
///     its deterministic shortest path for wireBytes/bandwidth µs (scaled
///     by the topology's per-link weight, 1.0 on homogeneous machines);
///     links are FIFO resources, so contended links queue messages —
///     this is where congestion turns into time.
///  3. *Per-hop latency*: the cut-through router forwards the head after
///     `hopLatencyUs`, letting the payload pipeline across hops (the GCel
///     uses wormhole routing; we model virtual cut-through, i.e. infinite
///     router buffers instead of backpressure).
///
/// Delivery: protocol channels dispatch to registered handlers (event
/// driven); application channels feed per-node mailboxes awaited by node
/// coroutines. Congestion statistics are recorded per link crossing and
/// are completely independent of the time model.
///
/// Hot-path storage: in-flight state (`Flight`, which also carries local
/// messages to their delayed dispatch) comes from a recycling slab pool
/// owned by the Network, routes are computed by the topology straight
/// into per-flight inline buffers, handler / mailbox dispatch indexes
/// dense per-(channel, node) vectors, and `recv` coroutine frames recycle
/// through the thread's frame pool (sim/task.hpp) — so in steady state
/// moving a message end to end allocates nothing.
class Network {
 public:
  using Handler = std::function<void(Message&&)>;

  Network(sim::Engine& engine, const Topology& topology, CostModel cost,
          LinkStats& stats);

  sim::Engine& engine() { return *engine_; }
  const Topology& topology() const { return *topo_; }
  int numNodes() const { return shape_.numNodes(); }
  const CostModel& cost() const { return cost_; }
  LinkStats& stats() { return *stats_; }

  /// Register the protocol handler for (node, channel). Handlers run as
  /// events on the node's CPU after the receive overhead has been charged.
  void setHandler(NodeId node, Channel channel, Handler handler);

  /// Fire-and-forget send from a protocol handler or setup code: charges
  /// the startup on the source CPU and injects the message. Local
  /// messages (src == dst) skip the network and the startup overheads —
  /// they model a plain function call on the host.
  ///
  /// Note: rvalue-reference parameters (rather than by-value) keep
  /// non-trivial temporaries out of coroutine frames, sidestepping a
  /// GCC 12 double-destruction bug with by-value arguments in co_await
  /// full-expressions.
  void post(Message&& msg) { postInternal(std::move(msg)); }

  /// Awaitable send for application coroutines: the caller's coroutine
  /// resumes once the sender CPU has finished the startup (the message
  /// itself continues through the network asynchronously).
  auto send(Message&& msg) {
    const sim::Time resumeAt = postInternal(std::move(msg));
    return engine_->delayUntil(resumeAt);
  }

  /// Receive the next message queued on (node, channel); suspends until
  /// one arrives, then charges the receive overhead on the node's CPU.
  sim::Task<Message> recv(NodeId node, Channel channel);

  /// Charge `dur` µs of local computation on a node's CPU (awaitable).
  auto compute(NodeId node, double dur) {
    return engine_->delayUntil(reserveCpu(node, dur));
  }

  /// Non-blocking CPU charge, for event-driven protocol code.
  sim::Time reserveCpu(NodeId node, double dur) {
    sim::Time& free = cpuFreeAt_[node];
    const sim::Time start = std::max(free, engine_->now());
    free = start + dur;
    return free;
  }

  sim::Time cpuFreeAt(NodeId node) const { return cpuFreeAt_[node]; }

  /// Total messages injected (diagnostics).
  std::uint64_t messagesSent() const { return messagesSent_; }

  // --- liveness & faults (cold path; see docs/faults.md) -------------------
  //
  // Fault model: a crashed node loses its *application* state — the
  // strategies scrub its caches and directories via liveness listeners —
  // but its router and protocol agent keep running (the GCel's wormhole
  // routers are separate from the T805 CPUs), so in-flight protocol
  // exchanges always complete and only *link* state affects routing. A
  // flight that reaches a dead link detours over live links (deterministic
  // BFS, neighbor slots in direction order); with no live path it parks
  // and retries when a link heals — never silently dropped. Everything
  // here is branch-guarded: fault-free runs schedule zero extra events and
  // stay bit-identical.

  bool nodeUp(NodeId n) const { return shape_.nodeUp(n); }
  int numLiveNodes() const { return shape_.numLiveNodes(); }

  // The fault calls below validate through the ShapeModel and throw
  // CheckError, changing nothing, on an event the current shape rejects;
  // `line` (> 0) tags the error with the scenario line that scheduled it.

  /// Crash (`up == false`) or recover a node, notifying liveness
  /// listeners. Idempotent: re-declaring the current state is a no-op.
  /// A crash must leave some member node up.
  void setNodeUp(NodeId n, bool up, int line = 0);

  /// Fail or heal the undirected link between adjacent nodes u and v —
  /// both directed slots change together. Healing retries parked flights.
  void setLinkUp(NodeId u, NodeId v, bool up, int line = 0);

  /// Scale the link's streaming cost and hop latency (both directions) by
  /// multipliers relative to the *topology's nominal* values, so repeated
  /// degrades never compound and 1.0/1.0 restores the healthy link.
  void degradeLink(NodeId u, NodeId v, double weightMul, double latencyMul,
                   int line = 0);

  /// Liveness listeners observe node crash/recover transitions, invoked
  /// as (node, up) from inside setNodeUp. Returns a removal token.
  using LivenessListener = std::function<void(NodeId, bool)>;
  int addLivenessListener(LivenessListener fn);
  void removeLivenessListener(int token);

  std::uint64_t reroutedFlights() const { return reroutedFlights_; }  ///< detours taken
  std::uint64_t parkedFlights() const { return parkedFlights_; }      ///< park events
  std::size_t flightsInLimbo() const { return limbo_.size(); }        ///< parked now

  // --- structural reconfiguration (cold path; docs/faults.md) --------------
  //
  // Permanent shape changes on graph-backed machines, distinct from the
  // transient crash/recover pairs above. Node ids are append-only: a new
  // node gets the next id, a removed node's id is *retired*, never reused.
  // Membership (who is part of the machine) changes immediately and the
  // coalesced reconfiguration epoch fires at the end of the current
  // instant; the *physical* severing of a retired node's links is deferred
  // to commitReconfig(), called at a quiescent point, so every in-flight
  // message still reaches its destination — nothing is ever dropped.
  // In-flight messages crossing an epoch re-route on the new shape via a
  // per-flight epoch guard (one predictable branch on the hot path;
  // reconfiguration-free runs stay bit-identical).

  /// Nodes currently part of the machine (alive or crashed, not retired).
  int numMembers() const { return shape_.numMembers(); }
  bool nodeMember(NodeId n) const { return shape_.nodeMember(n); }
  /// Member with rank `r` in ascending id order (0 ≤ r < numMembers()).
  NodeId memberAt(int r) const { return shape_.memberAt(r); }
  const std::vector<NodeId>& members() const { return shape_.members(); }
  /// The one successor rule: the first member at or after `start`, in
  /// ascending id order wrapping past the last id, that passes `pred`.
  /// Throws CheckError when no member does.
  template <typename Pred>
  NodeId firstMemberFrom(NodeId start, Pred&& pred) const {
    const int n = numNodes();
    NodeId q = static_cast<NodeId>(start % n);
    for (int seen = 1; !nodeMember(q) || !pred(q); ++seen) {
      DIVA_CHECK_MSG(seen < n, "no member from node " << start << " on qualifies");
      q = static_cast<NodeId>((q + 1) % n);
    }
    return q;
  }
  NodeId firstMemberFrom(NodeId start) const {
    return firstMemberFrom(start, [](NodeId) { return true; });
  }
  /// The shape bookkeeping behind membership, liveness and every fault
  /// check; the workload pre-flight replays fault plans through a copy.
  const ShapeModel& shape() const { return shape_; }
  /// Reconfiguration epochs delivered so far (0 = never reconfigured).
  int reconfigEpoch() const { return reconfigEpoch_; }

  /// Grow the machine by one node, joined to member `anchor` by a fresh
  /// edge of the given weight/latency. The new node's id is returned.
  NodeId addNode(NodeId anchor, double weight = 1.0, double latency = 1.0, int line = 0) {
    const NodeId id = shape_.addNode(anchor, weight, latency, line);
    scheduleReconfigNotify();
    return id;
  }
  /// Retire member `n` permanently. Rejects removals that would empty or
  /// disconnect the member set or leave no member up. Membership (and
  /// with it the strategies' management state) changes now; its links
  /// carry in-flight traffic until commitReconfig().
  void removeNode(NodeId n, int line = 0) {
    shape_.removeNode(n, line);
    scheduleReconfigNotify();
  }
  /// Add an edge between distinct, non-adjacent members.
  void addLink(NodeId u, NodeId v, double weight = 1.0, double latency = 1.0,
               int line = 0) {
    shape_.addLink(u, v, weight, latency, line);
    scheduleReconfigNotify();
  }
  /// Remove the edge between members u and v. Rejects cuts that would
  /// disconnect the member set.
  void removeLink(NodeId u, NodeId v, int line = 0) {
    shape_.removeLink(u, v, line);
    scheduleReconfigNotify();
  }

  /// Physically sever retired nodes' links. Call only at quiescent points
  /// (no in-flight traffic addressed to retired nodes); the workload
  /// driver calls it at phase boundaries via Runtime::completeReconfig().
  /// No-op when nothing is pending.
  void commitReconfig();

  /// The shape strategies should decompose after an epoch: excludes
  /// retired nodes even while their links are still installed for
  /// in-flight traffic. Identical to topology() outside a remove-node
  /// handoff window. Trees built from it stay valid until the *next*
  /// epoch (the Network keeps superseded topologies alive).
  const Topology& targetTopology() const {
    return targetTopo_ ? *targetTopo_ : *topo_;
  }

  /// Reconfiguration listeners run once per coalesced epoch (all
  /// structural events of one instant = one epoch), after the new shape
  /// is installed and routable. Returns a removal token.
  using ReconfigListener = std::function<void()>;
  int addReconfigListener(ReconfigListener fn);
  void removeReconfigListener(int token);

  /// Attach a protocol tracer (nullptr detaches) — see obs/tracer.hpp.
  /// Like the delivery probe, a pure observer that never perturbs the
  /// run: unset (the default) nothing is paid anywhere; set, the *cold*
  /// fault/detour/reconfig paths record instants and epoch spans, and
  /// strategies read it back through tracer() for their own protocol
  /// spans. Per-hop traffic is never traced — link time series come from
  /// the obs::Sampler instead.
  void setTracer(obs::Tracer* t) { tracer_ = t; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Diagnostic tap on message delivery, invoked as (time, dst, channel)
  /// immediately before every handler dispatch / mailbox append. Used by
  /// the determinism regression test to hash the delivery trace; costs
  /// one predictable null check per delivery when unset.
  using DeliveryProbe = std::function<void(sim::Time, NodeId, Channel)>;
  void setDeliveryProbe(DeliveryProbe probe) { deliveryProbe_ = std::move(probe); }

 private:
  /// In-flight message state, pooled and recycled. A local (src == dst)
  /// message rides one too, using only `msg`. Field order is the hot
  /// path's: a hop event reads headReady/idx/wire and one route entry, so
  /// they share the flight's first cache line (with the route's inline
  /// header and first hops right behind); the message — only needed again
  /// at delivery — sits last, its wire size cached in `wire` so the hops
  /// never touch it.
  struct Flight {
    sim::Time headReady = 0;   ///< when the head is ready to enter path[idx]
    std::size_t idx = 0;
    std::uint64_t wire = 0;    ///< payloadBytes + headerBytes, cached at inject
    std::uint32_t epoch = 0;   ///< topoEpoch_ the route was computed against
    RouteVec path;
    Message msg;
  };

  struct Mailbox {
    support::RingBuffer<Message> queue;
    support::RingBuffer<std::coroutine_handle<>> waiters;
  };

  sim::Time postInternal(Message&& msg);
  void hop(Flight* f);
  /// Hand a flight's message to its destination and recycle the flight.
  void land(Flight* f);
  void dispatchOrEnqueue(Message&& msg);
  /// Node a flight's head currently sits at (src before the first hop).
  NodeId flightAt(const Flight* f) const {
    return f->idx == 0 ? f->msg.src : f->path[f->idx - 1].to;
  }
  void rerouteOrPark(Flight* f);
  void retryParked();
  sim::Task<Message> recvOn(NodeId node, Channel channel);

  // Structural reconfiguration internals (network.cpp has the epoch walk).
  void scheduleReconfigNotify();
  void deliverReconfig();
  /// Swap in a rebuilt topology: carries per-link FIFO backlog, liveness
  /// and degrade state across by (from, to) endpoint pair, remaps the
  /// congestion counters, grows the per-node tables and re-strides the
  /// dispatch tables on node growth, then bumps topoEpoch_ and retries
  /// parked flights. Only from outside a handler.
  void installTopology(std::unique_ptr<Topology> built);

  /// Dense dispatch slot for (node, channel). Channel-major layout —
  /// `channel * numNodes + node` — so discovering a new channel appends a
  /// block of slots without disturbing existing indices (important:
  /// suspended `recv` coroutines hold slot indices across awaits).
  std::size_t slotOf(NodeId node, Channel channel) const {
    return static_cast<std::size_t>(channel) * nodeCount() + static_cast<std::size_t>(node);
  }
  std::size_t mailboxSlot(NodeId node, Channel channel);
  std::size_t nodeCount() const { return static_cast<std::size_t>(shape_.numNodes()); }

  sim::Engine* engine_;
  const Topology* topo_;
  CostModel cost_;
  LinkStats* stats_;
  ShapeModel shape_;
  std::vector<sim::Time> cpuFreeAt_;
  std::vector<sim::Time> linkFreeAt_;
  /// Per-link µs-per-byte = topology linkWeight / CostModel bandwidth,
  /// cached at construction so heterogeneous links cost one load and one
  /// multiply per hop (no virtual call on the hot path).
  std::vector<double> linkUsPerByte_;
  /// Per-link hop latency = topology linkLatency × CostModel hopLatencyUs,
  /// cached for the same reason (exactly hopLatencyUs on homogeneous
  /// machines, so existing models are numerically unchanged).
  std::vector<double> linkHopLatencyUs_;
  std::vector<Handler> handlers_;   ///< channel-major, empty = unregistered
  std::vector<Mailbox> mailboxes_;  ///< channel-major
  Channel handlerChannels_ = 0;     ///< channels covered by handlers_
  Channel mailboxChannels_ = 0;     ///< channels covered by mailboxes_
  int dispatchDepth_ = 0;           ///< handlers currently executing
  support::ObjectPool<Flight> flightPool_;
  std::uint64_t messagesSent_ = 0;
  DeliveryProbe deliveryProbe_;  ///< empty unless a trace consumer taps in
  obs::Tracer* tracer_ = nullptr;
  std::vector<std::int64_t> openEpochSpans_;  ///< epoch ids between deliver & commit

  // Fault state (node liveness lives in shape_). linkAlive_ is all-ones
  // on a healthy machine; the hot path reads it once per hop, everything
  // else below is touched only by fault events.
  std::vector<std::uint8_t> linkAlive_;
  std::vector<Flight*> limbo_;  ///< parked flights awaiting a live path
  std::vector<LivenessListener> livenessListeners_;  ///< token-indexed; removed = empty
  std::uint64_t reroutedFlights_ = 0;
  std::uint64_t parkedFlights_ = 0;
  // BFS scratch for detours, kept allocated across reroutes.
  std::vector<NodeId> bfsPrevNode_;
  std::vector<int> bfsPrevLink_;
  std::vector<NodeId> bfsQueue_;

  // Structural reconfiguration state (membership and the graphs live in
  // shape_). All of it idle (and the epoch counters zero) on machines
  // that never reconfigure.
  std::uint32_t topoEpoch_ = 0;    ///< bumped per installTopology; guards flights
  int reconfigEpoch_ = 0;          ///< delivered epochs (listener batches)
  bool notifyScheduled_ = false;   ///< coalesced epoch event pending this instant
  std::vector<ReconfigListener> reconfigListeners_;  ///< token-indexed
  std::vector<std::unique_ptr<Topology>> ownedTopos_;  ///< rebuilt shapes, kept
                                                       ///< alive for old trees
  std::unique_ptr<Topology> targetTopo_;  ///< see targetTopology()
};

}  // namespace diva::net
