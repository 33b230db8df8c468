#include "net/network.hpp"

#include <algorithm>
#include <unordered_map>

namespace diva::net {

namespace {
/// Channels are small dense integers by construction (the library reserves
/// the first 16, applications hand out consecutive values above that); the
/// dense per-(channel, node) dispatch tables rely on it.
constexpr Channel kMaxChannels = 1u << 16;

/// Directed endpoint pair as a map key (node ids are 31-bit).
std::uint64_t pairKey(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
         static_cast<std::uint32_t>(to);
}

/// Re-stride a dense channel-major table (slot = channel * stride + node)
/// for a larger node stride; new nodes' slots are value-initialized.
template <typename T>
void restrideTable(std::vector<T>& table, std::size_t oldN, std::size_t newN,
                   Channel channels) {
  std::vector<T> grown(static_cast<std::size_t>(channels) * newN);
  for (Channel c = 0; c < channels; ++c)
    for (std::size_t n = 0; n < oldN; ++n)
      grown[static_cast<std::size_t>(c) * newN + n] =
          std::move(table[static_cast<std::size_t>(c) * oldN + n]);
  table = std::move(grown);
}
}  // namespace

Network::Network(sim::Engine& engine, const Topology& topology, CostModel cost,
                 LinkStats& stats)
    : engine_(&engine),
      topo_(&topology),
      cost_(cost),
      stats_(&stats),
      shape_(topology) {
  const std::size_t n = nodeCount();
  cpuFreeAt_.assign(n, sim::kTimeZero);
  linkFreeAt_.assign(static_cast<std::size_t>(topology.numLinkSlots()), sim::kTimeZero);
  linkUsPerByte_.resize(linkFreeAt_.size());
  linkHopLatencyUs_.resize(linkFreeAt_.size());
  for (int l = 0; l < topology.numLinkSlots(); ++l) {
    linkUsPerByte_[static_cast<std::size_t>(l)] = topology.linkWeight(l) / cost_.bytesPerUs;
    linkHopLatencyUs_[static_cast<std::size_t>(l)] =
        topology.linkLatency(l) * cost_.hopLatencyUs;
  }
  linkAlive_.assign(linkFreeAt_.size(), 1);
  // The library protocol channels exist on every machine; size for them up
  // front so the common dispatch never grows mid-run.
  handlers_.resize(static_cast<std::size_t>(kFirstAppChannel) * n);
  handlerChannels_ = kFirstAppChannel;
  mailboxes_.resize(static_cast<std::size_t>(kFirstAppChannel) * n);
  mailboxChannels_ = kFirstAppChannel;
}

void Network::setHandler(NodeId node, Channel channel, Handler handler) {
  DIVA_CHECK(node >= 0 && static_cast<std::size_t>(node) < nodeCount());
  DIVA_CHECK_MSG(channel < kMaxChannels, "channel out of dense-table range");
  if (channel >= handlerChannels_) {
    // Growing the table moves every registered handler; a handler that is
    // currently executing must not be moved out from under itself (the
    // map-based design this replaced was reference-stable). Registering
    // on already-covered channels from inside a handler stays legal.
    DIVA_CHECK_MSG(dispatchDepth_ == 0,
                   "cannot register a new channel from inside a handler");
    handlerChannels_ = channel + 1;
    handlers_.resize(static_cast<std::size_t>(handlerChannels_) * nodeCount());
  }
  handlers_[slotOf(node, channel)] = std::move(handler);
}

std::size_t Network::mailboxSlot(NodeId node, Channel channel) {
  DIVA_CHECK(node >= 0 && static_cast<std::size_t>(node) < nodeCount());
  DIVA_CHECK_MSG(channel < kMaxChannels, "channel out of dense-table range");
  if (channel >= mailboxChannels_) {
    mailboxChannels_ = channel + 1;
    mailboxes_.resize(static_cast<std::size_t>(mailboxChannels_) * nodeCount());
  }
  return slotOf(node, channel);
}

sim::Time Network::postInternal(Message&& msg) {
  DIVA_CHECK(msg.src >= 0 && static_cast<std::size_t>(msg.src) < nodeCount());
  DIVA_CHECK(msg.dst >= 0 && static_cast<std::size_t>(msg.dst) < nodeCount());
  ++messagesSent_;

  if (msg.src == msg.dst) {
    // Local "message": a function call on the host processor. No startup,
    // no link traffic; costs one state-machine step.
    const sim::Time done = reserveCpu(msg.src, cost_.stateLookupUs);
    if (done == engine_->now() && dispatchDepth_ == 0) {
      // Zero-cost state step on an idle CPU (cost models with
      // stateLookupUs == 0): the dispatch is due at the current instant,
      // so deliver inline — no pooled flight, no queue round-trip. Only
      // from outside a handler: a local post *from* a handler takes the
      // queued path so zero-cost relay chains drain iteratively instead
      // of recursing one stack frame per message.
      dispatchOrEnqueue(std::move(msg));
      return done;
    }
    Flight* f = flightPool_.acquire();
    f->msg = std::move(msg);
    engine_->scheduleAt(done, [this, f] { land(f); });
    return done;
  }

  const sim::Time injected = reserveCpu(msg.src, cost_.sendOverheadUs);
  Flight* f = flightPool_.acquire();
  f->msg = std::move(msg);
  f->path.clear();  // recycled flights keep their (possibly spilled) capacity
  f->idx = 0;
  f->wire = f->msg.payloadBytes + cost_.headerBytes;
  f->epoch = topoEpoch_;
  f->headReady = injected;
  topo_->appendRoute(f->msg.src, f->msg.dst, f->path);
  if (injected == engine_->now()) {
    // The head is ready now (cost models with sendOverheadUs == 0 and an
    // idle CPU): fuse the injection event into the first hop instead of
    // a scheduleAt(now, …) round-trip through the queue.
    hop(f);
  } else {
    engine_->scheduleAt(injected, [this, f] { hop(f); });
  }
  return injected;
}

void Network::hop(Flight* f) {
  if (f->epoch != topoEpoch_) [[unlikely]] {
    // The machine was reconfigured while this flight was in transit: its
    // remaining hops may reference links that no longer exist (or whose
    // slots were renumbered). Recompute the rest of the route on the
    // installed shape before touching any link table.
    rerouteOrPark(f);
    return;
  }
  const Hop& h = f->path[f->idx];
  if (!linkAlive_[static_cast<std::size_t>(h.link)]) [[unlikely]] {
    rerouteOrPark(f);
    return;
  }
  sim::Time& linkFree = linkFreeAt_[h.link];
#if defined(__GNUC__) || defined(__clang__)
  // The next hop event fires microseconds of simulated time later but
  // often nanoseconds of host time later: warm its link state now, while
  // this flight's path entry is already in hand.
  if (f->idx + 1 < f->path.size()) {
    const Hop& nh = f->path[f->idx + 1];
    __builtin_prefetch(&linkFreeAt_[nh.link]);
    __builtin_prefetch(&linkUsPerByte_[nh.link]);
    __builtin_prefetch(&linkHopLatencyUs_[nh.link]);
  }
#endif
  const sim::Time start = std::max(f->headReady, linkFree);
  const std::uint64_t wire = f->wire;
  const double streamTime = static_cast<double>(wire) * linkUsPerByte_[h.link];
  linkFree = start + streamTime;
  stats_->record(h.link, wire);

  if (f->idx + 1 == f->path.size()) {
    // Last link: the message is fully delivered when its tail arrives.
    // Accepting it then costs receive overhead on the destination CPU;
    // the flight carries the message through both events, so delivery
    // adds no pool traffic beyond the flight itself.
    const sim::Time arrival = start + streamTime;
    engine_->scheduleAt(arrival, [this, f] {
      const sim::Time handleAt = reserveCpu(f->msg.dst, cost_.recvOverheadUs);
      engine_->scheduleAt(handleAt, [this, f] { land(f); });
    });
  } else {
    ++f->idx;
    f->headReady = start + linkHopLatencyUs_[h.link];
    engine_->scheduleAt(f->headReady, [this, f] { hop(f); });
  }
}

void Network::land(Flight* f) {
  Message m = std::move(f->msg);
  flightPool_.release(f);
  dispatchOrEnqueue(std::move(m));
}

void Network::setNodeUp(NodeId n, bool up, int line) {
  if (!shape_.setNodeUp(n, up, line)) return;
  if (tracer_) tracer_->instant(obs::kCatFault, n, up ? "node-up" : "node-down");
  for (const LivenessListener& fn : livenessListeners_)
    if (fn) fn(n, up);
}

void Network::setLinkUp(NodeId u, NodeId v, bool up, int line) {
  shape_.setLinkUp(u, v, up, line);
  const int uv = topo_->linkToward(u, v);
  const int vu = topo_->linkToward(v, u);
  const std::uint8_t want = up ? 1 : 0;
  if (linkAlive_[static_cast<std::size_t>(uv)] == want &&
      linkAlive_[static_cast<std::size_t>(vu)] == want)
    return;
  linkAlive_[static_cast<std::size_t>(uv)] = want;
  linkAlive_[static_cast<std::size_t>(vu)] = want;
  if (tracer_) tracer_->instant(obs::kCatFault, u, up ? "link-up" : "link-down", v);
  if (up) retryParked();
}

void Network::degradeLink(NodeId u, NodeId v, double weightMul, double latencyMul,
                          int line) {
  shape_.degradeLink(u, v, weightMul, latencyMul, line);
  for (const int slot : {topo_->linkToward(u, v), topo_->linkToward(v, u)}) {
    linkUsPerByte_[static_cast<std::size_t>(slot)] =
        topo_->linkWeight(slot) / cost_.bytesPerUs * weightMul;
    linkHopLatencyUs_[static_cast<std::size_t>(slot)] =
        topo_->linkLatency(slot) * cost_.hopLatencyUs * latencyMul;
  }
  if (tracer_) tracer_->instant(obs::kCatFault, u, "degrade-link", v);
}

int Network::addLivenessListener(LivenessListener fn) {
  livenessListeners_.push_back(std::move(fn));
  return static_cast<int>(livenessListeners_.size()) - 1;
}

void Network::removeLivenessListener(int token) {
  DIVA_CHECK(token >= 0 && static_cast<std::size_t>(token) < livenessListeners_.size());
  livenessListeners_[static_cast<std::size_t>(token)] = nullptr;
}

void Network::rerouteOrPark(Flight* f) {
  // BFS from the flight's current node over live links only, expanding
  // neighbor slots in direction order — fully deterministic. O(P·degree)
  // per reroute, which only ever runs while links are down.
  const NodeId cur = flightAt(f);
  const NodeId dst = f->msg.dst;
  f->epoch = topoEpoch_;  // the detour below is computed on the installed shape
  const int deg = topo_->degree();
  bfsPrevNode_.assign(nodeCount(), -1);
  bfsPrevLink_.assign(nodeCount(), -1);
  bfsQueue_.clear();
  bfsPrevNode_[static_cast<std::size_t>(cur)] = cur;
  bfsQueue_.push_back(cur);
  bool found = false;
  for (std::size_t head = 0; head < bfsQueue_.size() && !found; ++head) {
    const NodeId n = bfsQueue_[head];
    for (int dir = 0; dir < deg && !found; ++dir) {
      const NodeId nb = topo_->neighbor(n, dir);
      if (nb < 0 || bfsPrevNode_[static_cast<std::size_t>(nb)] != -1) continue;
      const int link = topo_->linkIndex(n, dir);
      if (!linkAlive_[static_cast<std::size_t>(link)]) continue;
      bfsPrevNode_[static_cast<std::size_t>(nb)] = n;
      bfsPrevLink_[static_cast<std::size_t>(nb)] = link;
      bfsQueue_.push_back(nb);
      found = nb == dst;
    }
  }
  if (!found) {
    // No live path: park. Lossless semantics — the flight resumes from
    // this exact node when a heal reconnects it (a plan that partitions
    // the machine forever simply strands the messages that need the cut).
    ++parkedFlights_;
    if (tracer_) tracer_->instant(obs::kCatNet, cur, "park", dst);
    limbo_.push_back(f);
    return;
  }
  // Rewrite the rest of the route in place: keep the hops already
  // crossed (they position `cur`), splice the detour in reverse from dst.
  ++reroutedFlights_;
  if (tracer_) tracer_->instant(obs::kCatNet, cur, "detour", dst);
  f->path.truncate(f->idx);
  const std::size_t spliceAt = f->path.size();
  for (NodeId n = dst; n != cur; n = bfsPrevNode_[static_cast<std::size_t>(n)])
    f->path.push_back(Hop{bfsPrevLink_[static_cast<std::size_t>(n)], n});
  std::reverse(f->path.begin() + spliceAt, f->path.end());
  hop(f);  // the spliced next link is live; link state is static within an event
}

void Network::retryParked() {
  if (limbo_.empty()) return;
  std::vector<Flight*> parked;
  parked.swap(limbo_);
  const sim::Time now = engine_->now();
  for (Flight* f : parked) {
    f->headReady = std::max(f->headReady, now);
    rerouteOrPark(f);  // re-parks into limbo_ when still unreachable
  }
}

void Network::dispatchOrEnqueue(Message&& msg) {
  if (deliveryProbe_) deliveryProbe_(engine_->now(), msg.dst, msg.channel);
  if (msg.channel < handlerChannels_) {
    Handler& h = handlers_[slotOf(msg.dst, msg.channel)];
    if (h) {
      ++dispatchDepth_;  // guards the reference against table growth
      try {
        h(std::move(msg));
      } catch (...) {
        --dispatchDepth_;
        throw;
      }
      --dispatchDepth_;
      return;
    }
  }
  Mailbox& box = mailboxes_[mailboxSlot(msg.dst, msg.channel)];
  box.queue.push_back(std::move(msg));
  if (!box.waiters.empty()) {
    engine_->resumeAt(engine_->now(), box.waiters.take_front());
  }
}

sim::Task<Message> Network::recv(NodeId node, Channel channel) {
  // Plain function, not a coroutine: validates (node, channel) and grows
  // the mailbox table eagerly — a coroutine body would defer the check
  // (and its CheckError) until first resume inside the event loop.
  mailboxSlot(node, channel);
  return recvOn(node, channel);
}

sim::Task<Message> Network::recvOn(NodeId node, Channel channel) {
  // Hold (node, channel) and recompute the dense slot at every touch, not
  // a Mailbox reference or a cached slot index: the table may be resized
  // by other channels appearing — or re-strided by the machine growing —
  // while this coroutine is suspended. The Mailbox (queue and this
  // coroutine's waiter registration) moves as a unit, so recomputing the
  // one multiply-add re-finds it wherever it landed.
  while (mailboxes_[slotOf(node, channel)].queue.empty()) {
    struct WaitAwaiter {
      Network* net;
      NodeId node;
      Channel channel;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        net->mailboxes_[net->slotOf(node, channel)].waiters.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    co_await WaitAwaiter{this, node, channel};
  }
  co_return mailboxes_[slotOf(node, channel)].queue.take_front();
}

// ---------------------------------------------------------------------------
// Structural reconfiguration (docs/faults.md "Reconfiguration")
// ---------------------------------------------------------------------------

void Network::scheduleReconfigNotify() {
  if (notifyScheduled_) return;
  notifyScheduled_ = true;
  // One zero-delay event per instant: the queue is FIFO within a time, so
  // this fires after every structural event already scheduled at the
  // current instant — a grow-by-8 script triggers one rebuild and one
  // listener (decompose + migration) batch, not eight.
  engine_->scheduleAt(engine_->now(), [this] { deliverReconfig(); });
}

void Network::deliverReconfig() {
  notifyScheduled_ = false;
  shape_.deliver();
  // Routing during the handoff window uses the *transition* shape: the
  // logical target plus retiring nodes' retained edges.
  std::unique_ptr<Topology> target =
      shape_.handoff() ? topo_->withGraph(shape_.logical()) : nullptr;
  installTopology(topo_->withGraph(shape_.installed()));
  targetTopo_ = std::move(target);  // null: transition == target
  ++reconfigEpoch_;
  if (tracer_ && tracer_->on(obs::kCatReconfig)) {
    // Epoch span: delivery of the new shape to the quiescent commit. An
    // add-only epoch has no handoff window — it is complete at delivery.
    tracer_->beginAsync(obs::kCatReconfig, obs::Tracer::kMachineTrack, "epoch",
                        reconfigEpoch_);
    if (!shape_.handoff())
      tracer_->endAsync(obs::kCatReconfig, obs::Tracer::kMachineTrack, "epoch",
                        reconfigEpoch_);
    else
      openEpochSpans_.push_back(reconfigEpoch_);
  }
  for (const ReconfigListener& fn : reconfigListeners_)
    if (fn) fn();
}

void Network::commitReconfig() {
  if (!shape_.commit()) return;
  DIVA_CHECK(targetTopo_ != nullptr);
  if (tracer_) {
    for (const std::int64_t id : openEpochSpans_)
      tracer_->endAsync(obs::kCatReconfig, obs::Tracer::kMachineTrack, "epoch", id);
  }
  openEpochSpans_.clear();
  // Install the very topology object strategies decomposed at the epoch —
  // their new trees must stay valid, and a tree must not outlive the
  // topology that built it.
  installTopology(std::move(targetTopo_));
}

void Network::installTopology(std::unique_ptr<Topology> built) {
  DIVA_CHECK_MSG(built != nullptr, "topology rebuild failed");
  DIVA_CHECK_MSG(dispatchDepth_ == 0,
                 "cannot reconfigure the machine from inside a handler");
  const Topology* old = topo_;
  const std::size_t oldN = cpuFreeAt_.size();  // shape_ already counts new nodes
  const int oldSlots = old->numLinkSlots();
  const int newSlots = built->numLinkSlots();

  // Link identity across the swap is the directed endpoint pair: carry
  // FIFO backlog (linkFreeAt_), liveness and degrade multipliers for
  // surviving links; fresh links start nominal, free and alive.
  std::unordered_map<std::uint64_t, int> newSlotOfPair;
  newSlotOfPair.reserve(static_cast<std::size_t>(newSlots));
  for (NodeId n = 0; n < built->numNodes(); ++n)
    for (int dir = 0; dir < built->degree(); ++dir) {
      const NodeId nb = built->neighbor(n, dir);
      if (nb >= 0) newSlotOfPair.emplace(pairKey(n, nb), built->linkIndex(n, dir));
    }
  std::vector<int> oldToNew(static_cast<std::size_t>(oldSlots), -1);
  for (NodeId n = 0; n < static_cast<NodeId>(oldN); ++n)
    for (int dir = 0; dir < old->degree(); ++dir) {
      const NodeId nb = old->neighbor(n, dir);
      if (nb < 0) continue;
      const auto it = newSlotOfPair.find(pairKey(n, nb));
      if (it != newSlotOfPair.end())
        oldToNew[static_cast<std::size_t>(old->linkIndex(n, dir))] = it->second;
    }
  std::vector<sim::Time> freeAt(static_cast<std::size_t>(newSlots), sim::kTimeZero);
  std::vector<double> usPerByte(static_cast<std::size_t>(newSlots));
  std::vector<double> hopLatency(static_cast<std::size_t>(newSlots));
  std::vector<std::uint8_t> alive(static_cast<std::size_t>(newSlots), 1);
  for (int l = 0; l < newSlots; ++l) {
    usPerByte[static_cast<std::size_t>(l)] = built->linkWeight(l) / cost_.bytesPerUs;
    hopLatency[static_cast<std::size_t>(l)] =
        built->linkLatency(l) * cost_.hopLatencyUs;
  }
  for (int l = 0; l < oldSlots; ++l) {
    const int nl = oldToNew[static_cast<std::size_t>(l)];
    if (nl < 0) continue;
    freeAt[static_cast<std::size_t>(nl)] = linkFreeAt_[static_cast<std::size_t>(l)];
    usPerByte[static_cast<std::size_t>(nl)] =
        linkUsPerByte_[static_cast<std::size_t>(l)];  // keeps degrade multipliers
    hopLatency[static_cast<std::size_t>(nl)] =
        linkHopLatencyUs_[static_cast<std::size_t>(l)];
    alive[static_cast<std::size_t>(nl)] = linkAlive_[static_cast<std::size_t>(l)];
  }
  linkFreeAt_ = std::move(freeAt);
  linkUsPerByte_ = std::move(usPerByte);
  linkHopLatencyUs_ = std::move(hopLatency);
  linkAlive_ = std::move(alive);
  stats_->remap(oldToNew, newSlots);

  const std::size_t newN = static_cast<std::size_t>(built->numNodes());
  DIVA_CHECK(newN == nodeCount());
  if (newN != oldN) {
    DIVA_CHECK(newN > oldN);  // ids are append-only; removal only retires
    cpuFreeAt_.resize(newN, sim::kTimeZero);
    // Dense dispatch slots are channel * numNodes + node: a larger node
    // stride moves every Mailbox/Handler. Safe here — no handler is
    // executing, and suspended recv coroutines re-derive their slot from
    // (node, channel) at every touch.
    restrideTable(handlers_, oldN, newN, handlerChannels_);
    restrideTable(mailboxes_, oldN, newN, mailboxChannels_);
  }
  topo_ = built.get();
  ownedTopos_.push_back(std::move(built));
  ++topoEpoch_;
  retryParked();  // new links may reconnect parked flights
}

int Network::addReconfigListener(ReconfigListener fn) {
  reconfigListeners_.push_back(std::move(fn));
  return static_cast<int>(reconfigListeners_.size()) - 1;
}

void Network::removeReconfigListener(int token) {
  DIVA_CHECK(token >= 0 && static_cast<std::size_t>(token) < reconfigListeners_.size());
  reconfigListeners_[static_cast<std::size_t>(token)] = nullptr;
}

}  // namespace diva::net
