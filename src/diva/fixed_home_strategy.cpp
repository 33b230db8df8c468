#include "diva/fixed_home_strategy.hpp"

#include <algorithm>

#include "support/rng.hpp"

namespace diva {

FixedHomeStrategy::FixedHomeStrategy(net::Network& net, Stats& stats,
                                     std::vector<NodeCache>& caches, Params params)
    : net_(net),
      stats_(stats),
      caches_(caches),
      params_(params),
      baseProcs_(static_cast<std::uint64_t>(net.numNodes())) {}

NodeId FixedHomeStrategy::homeOf(VarId x) const {
  if (!rehome_.empty()) {
    const auto it = rehome_.find(x);
    if (it != rehome_.end()) return it->second;
  }
  return static_cast<NodeId>(support::hashBelow(
      support::hashCombine(params_.seed, x, 0xf1bedull), baseProcs_));
}

NodeId FixedHomeStrategy::memberHomeOf(VarId x) const {
  return net_.memberAt(static_cast<int>(support::hashBelow(
      support::hashCombine(params_.seed, x, 0xf1bedull),
      static_cast<std::uint64_t>(net_.numMembers()))));
}

void FixedHomeStrategy::assignHome(VarId x) {
  // Variables created after an epoch home straight onto the member set —
  // the base hash may name a retired node.
  if (net_.reconfigEpoch() == 0) return;
  const NodeId target = memberHomeOf(x);
  if (target != homeOf(x)) rehome_[x] = target;
}

void FixedHomeStrategy::sendBody(NodeId src, NodeId dst, FhBody&& b,
                                 std::uint64_t payloadBytes) {
  net_.post(net::Message{src, dst, net::kProtocolChannel, payloadBytes, std::move(b)});
}

void FixedHomeStrategy::sendToHome(FhBody::K k, NodeId p, VarId x, std::uint64_t txn) {
  FhBody b;
  b.k = k;
  b.var = x;
  b.txn = txn;
  b.requester = p;
  sendBody(p, homeOf(x), std::move(b), 0);
}

void FixedHomeStrategy::addCopyHolder(HomeEntry& he, NodeId p) {
  if (std::find(he.copyHolders.begin(), he.copyHolders.end(), p) == he.copyHolders.end())
    he.copyHolders.push_back(p);
}

void FixedHomeStrategy::dropCopyHolder(HomeEntry& he, NodeId p) {
  he.copyHolders.erase(std::remove(he.copyHolders.begin(), he.copyHolders.end(), p),
                       he.copyHolders.end());
}

// ---------------------------------------------------------------------------
// Application-facing operations
// ---------------------------------------------------------------------------

sim::Task<Value> FixedHomeStrategy::read(NodeId p, VarId x) {
  const std::uint64_t txn = nextTxn_++;
  sim::OneShot<Value> done(net_.engine());
  pending_[txn] = PendingOp{&done, x, p};
  sendToHome(FhBody::K::ReadReq, p, x, txn);
  Value v = co_await done.wait();
  pending_.erase(txn);
  drainDeferred(x);
  co_return v;
}

sim::Task<void> FixedHomeStrategy::write(NodeId p, VarId x, Value v) {
  NodeCache::Entry* e = caches_[p].touch(x);
  if (e && e->owned) {
    // Owner writes are local (the ownership scheme's whole point).
    e->value = std::move(v);
    co_return;
  }

  const std::uint64_t txn = nextTxn_++;
  sim::OneShot<Value> done(net_.engine());
  pending_[txn] = PendingOp{&done, x, p};
  sendToHome(FhBody::K::WriteReq, p, x, txn);
  (void)co_await done.wait();
  pending_.erase(txn);

  // Ownership granted: install the new value locally.
  caches_[p].put(x, std::move(v)).owned = true;
  maybeEvictAt(p);
  drainDeferred(x);
  co_return;
}

void FixedHomeStrategy::maybeEvictAt(NodeId p) {
  if (!caches_[p].evictUntilFits(
          [&](VarId v, NodeCache::Entry& e) { return tryEvict(p, v, e); }))
    ++stats_.ops.evictionFailures;
}

void FixedHomeStrategy::registerVarFree(VarId x, NodeId owner, Value init) {
  DIVA_CHECK_MSG(!homes_.contains(x), "variable registered twice");
  assignHome(x);
  HomeEntry& he = homes_[x];
  he.owner = owner;
  he.copyHolders = {owner};
  caches_[owner].put(x, std::move(init)).owned = true;
}

void FixedHomeStrategy::registerVar(VarId x, NodeId owner, Value init) {
  // Directory becomes consistent immediately; the registration message to
  // the home is charged as cost-only traffic (mirrors the access tree's
  // fire-and-forget root-path marking).
  registerVarFree(x, owner, std::move(init));
  sendToHome(FhBody::K::Reg, owner, x);
}

void FixedHomeStrategy::destroyVarFree(VarId x) {
  auto it = homes_.find(x);
  if (it == homes_.end()) return;
  HomeEntry& he = it->second;
  DIVA_CHECK_MSG(!he.busy && he.queue.empty() && he.pendingInvalAcks == 0,
                 "destroying a variable with a transaction in flight");
  for (NodeId p : he.copyHolders) caches_[p].erase(x);
  if (he.owner == kHomeOwner) caches_[homeOf(x)].erase(x);
  homes_.erase(it);
  rehome_.erase(x);
  deferred_.erase(x);
}

Value FixedHomeStrategy::peek(VarId x) const {
  const auto it = homes_.find(x);
  DIVA_CHECK_MSG(it != homes_.end(), "peek of unregistered variable");
  const NodeId at = it->second.owner == kHomeOwner ? homeOf(x) : it->second.owner;
  const NodeCache::Entry* e = caches_[at].peek(x);
  DIVA_CHECK(e && e->value);
  return e->value;
}

// ---------------------------------------------------------------------------
// Protocol engine
// ---------------------------------------------------------------------------

void FixedHomeStrategy::handleMessage(net::Message&& msg) {
  const FhBody& peeked = msg.as<FhBody>();
  switch (peeked.k) {
    // Home-side entry points that start a transaction (serialized per var):
    case FhBody::K::ReadReq:
    case FhBody::K::WriteReq:
      serveAtHome(std::move(msg));
      return;
    default:
      break;
  }
  FhBody b = msg.take<FhBody>();
  const NodeId self = msg.dst;
  switch (b.k) {
    case FhBody::K::Fetch: {
      // Owner returns the value to the home and cedes ownership (keeps a
      // valid copy, per the ownership scheme's read rule).
      NodeCache::Entry* e = caches_[self].peek(b.var);
      DIVA_CHECK_MSG(e && e->owned, "fetch at a non-owner");
      e->owned = false;
      FhBody r;
      r.k = FhBody::K::FetchData;
      r.var = b.var;
      r.value = e->value;
      const std::uint64_t bytes = e->value->size();
      sendBody(self, homeOf(b.var), std::move(r), bytes);
      // A retired owner cedes and keeps nothing behind.
      if (!net_.nodeMember(self)) caches_[self].erase(*e);
      return;
    }
    case FhBody::K::FetchData: {
      HomeEntry& he = homes_.at(b.var);
      DIVA_CHECK(he.busy);
      // The old owner keeps a copy — unless it retired mid-fetch.
      if (net_.nodeMember(he.owner)) addCopyHolder(he, he.owner);
      he.owner = kHomeOwner;
      caches_[self].put(b.var, b.value);  // home's copy
      maybeEvictAt(self);
      // Resume the read or write that triggered the fetch.
      DIVA_CHECK(!he.queue.empty());
      net::Message original = std::move(he.queue.front());
      he.queue.pop_front();
      he.busy = false;
      if (processTransaction(he, std::move(original))) finishTransaction(b.var);
      return;
    }
    case FhBody::K::Data: {
      // A retired requester is served but caches nothing (it is no longer
      // in the directory's holder list — see processTransaction).
      if (net_.nodeMember(self)) {
        caches_[self].put(b.var, b.value);
        maybeEvictAt(self);
      }
      auto it = pending_.find(b.txn);
      DIVA_CHECK(it != pending_.end());
      it->second.done->resolve(std::move(b.value));
      return;
    }
    case FhBody::K::Inval: {
      // Copies may already be gone if an eviction notice is in flight.
      NodeCache::Entry* e = caches_[self].peek(b.var);
      if (e) {
        DIVA_CHECK_MSG(!e->owned, "invalidating the owner");
        caches_[self].erase(*e);
      }
      ++stats_.ops.invalidations;
      FhBody ack;
      ack.k = FhBody::K::InvalAck;
      ack.var = b.var;
      sendBody(self, homeOf(b.var), std::move(ack), 0);
      return;
    }
    case FhBody::K::InvalAck: {
      HomeEntry& he = homes_.at(b.var);
      DIVA_CHECK(he.busy && he.pendingInvalAcks > 0);
      if (--he.pendingInvalAcks == 0) {
        grantWrite(he, b.var, self);
        finishTransaction(b.var);
      }
      return;
    }
    case FhBody::K::WriteAck: {
      auto it = pending_.find(b.txn);
      DIVA_CHECK(it != pending_.end());
      it->second.done->resolve(Value{});
      return;
    }
    case FhBody::K::Reg:
    case FhBody::K::Drop:
      // Cost-only: registration and eviction (see tryEvict) update the
      // directory at once; these messages only account for the traffic.
      return;
    case FhBody::K::Recover:
    case FhBody::K::Migrate:
      // Cost-only: repair and epoch migration mutate directory and caches
      // synchronously (see repairVar, migrateEpochVar); these messages
      // charge the handoff traffic so congestion during it is visible.
      // Arrival closes the span the send opened.
      endHandoff(b.k == FhBody::K::Recover ? Handoff::Repair : Handoff::Migration,
                 net_.tracer(), msg.dst, b.var);
      return;
    default:
      DIVA_CHECK_MSG(false, "unhandled fixed-home message kind");
  }
}

void FixedHomeStrategy::serveAtHome(net::Message&& msg) {
  const FhBody& b = msg.as<FhBody>();
  const NodeId home = homeOf(b.var);
  if (msg.dst != home) [[unlikely]] {
    // The request was addressed to a home that was re-homed — by crash
    // repair or by an epoch migration — while the message was in flight:
    // forward to the current home (classic directory-migration
    // forwarding), charged as repair traffic.
    ++stats_.ops.recoveryMessages;
    ++stats_.ops.forwardedOps;
    FhBody fwd = msg.take<FhBody>();
    sendBody(msg.dst, home, std::move(fwd), 0);
    return;
  }
  const VarId x = b.var;
  HomeEntry& he = homes_.at(x);
  if (he.busy) {
    he.queue.push_back(std::move(msg));
    return;
  }
  if (processTransaction(he, std::move(msg))) finishTransaction(x);
}

bool FixedHomeStrategy::processTransaction(HomeEntry& he, net::Message&& msg) {
  FhBody b = msg.take<FhBody>();
  const NodeId home = msg.dst;
  he.busy = true;

  if (he.owner != kHomeOwner && he.owner != b.requester) {
    // A node-owner holds the only current copy. Reads need its value;
    // writes must reclaim ownership before the invalidation round (the
    // owner's copy may not be invalidated in place — it is authoritative
    // until ceded). Both cases: fetch from the owner and park this
    // request at the queue front so FetchData can resume it. This path
    // is what makes *blind* writes (no prior read, e.g. synthetic
    // workloads) safe under the ownership scheme.
    FhBody f;
    f.k = FhBody::K::Fetch;
    f.var = b.var;
    const NodeId owner = he.owner;
    net::Message parked;
    parked.src = msg.src;
    parked.dst = msg.dst;
    parked.channel = msg.channel;
    parked.body = std::move(b);
    he.queue.push_front(std::move(parked));
    sendBody(home, owner, std::move(f), 0);
    return false;
  }

  if (b.k == FhBody::K::ReadReq) {
    // Home (or the requester itself — cannot happen on the miss path)
    // holds a current copy: serve directly.
    NodeCache::Entry* e = caches_[home].touch(b.var);
    DIVA_CHECK_MSG(e && e->value, "home lost its copy");
    FhBody d;
    d.k = FhBody::K::Data;
    d.var = b.var;
    d.txn = b.txn;
    d.value = e->value;
    const std::uint64_t bytes = e->value->size();
    // A requester that retired while its request was in flight still gets
    // its value (the epoch scrub already ran), but keeps no copy.
    if (net_.nodeMember(b.requester)) addCopyHolder(he, b.requester);
    sendBody(home, b.requester, std::move(d), bytes);
    return true;
  }

  DIVA_CHECK(b.k == FhBody::K::WriteReq);
  he.writeTxn = b.txn;
  he.writer = b.requester;
  he.pendingInvalAcks = 0;
  for (NodeId q : he.copyHolders) {
    if (q == b.requester) continue;
    FhBody iv;
    iv.k = FhBody::K::Inval;
    iv.var = b.var;
    sendBody(home, q, std::move(iv), 0);
    ++he.pendingInvalAcks;
  }
  if (he.owner == kHomeOwner) {
    // The home's own copy becomes stale; drop it locally.
    caches_[home].erase(b.var);
  }
  if (he.pendingInvalAcks == 0) {
    grantWrite(he, b.var, home);
    return true;
  }
  return false;
}

void FixedHomeStrategy::grantWrite(HomeEntry& he, VarId x, NodeId home) {
  he.owner = he.writer;
  he.copyHolders = {he.writer};
  // A writer that retired mid-write still gets ownership (it holds the
  // only current value); park a migration so its retirement drain cedes
  // the value back onto the member set.
  if (!net_.nodeMember(he.writer)) deferred_.parkMigration(x);
  FhBody ack;
  ack.k = FhBody::K::WriteAck;
  ack.var = x;
  ack.txn = he.writeTxn;
  sendBody(home, he.writer, std::move(ack), 0);
}

void FixedHomeStrategy::finishTransaction(VarId x) {
  HomeEntry& he = homes_.at(x);
  // Iterative drain: at a hotspot home the queue can hold tens of
  // thousands of transactions (one per requesting processor), and most
  // of them — reads served from the home's copy — complete
  // synchronously. A finish→process recursion here burns one stack
  // frame per queued transaction and overflows on large machines.
  for (;;) {
    he.busy = false;
    if (he.queue.empty()) {
      drainDeferred(x);
      return;
    }
    net::Message next = std::move(he.queue.front());
    he.queue.pop_front();
    if (!processTransaction(he, std::move(next))) return;
  }
}

// ---------------------------------------------------------------------------
// LRU replacement
// ---------------------------------------------------------------------------

bool FixedHomeStrategy::tryEvict(NodeId p, VarId x) {
  NodeCache::Entry* e = caches_[p].peek(x);
  return e && tryEvict(p, x, *e);
}

bool FixedHomeStrategy::tryEvict(NodeId p, VarId x, NodeCache::Entry& e) {
  if (e.owned) return false;
  const auto it = homes_.find(x);
  if (it == homes_.end()) return false;
  if (it->second.busy) return false;  // don't race an active transaction
  if (p == homeOf(x) && it->second.owner == kHomeOwner) {
    // The home's copy is the authoritative one while the home owns the
    // data; dropping it would orphan the value. Keep it resident.
    return false;
  }
  caches_[p].erase(e);
  // The home's directory is updated by the simulator state directly and
  // the (asynchronous) notification message cost is still charged — this
  // sidesteps transient directory/ack races without losing the traffic.
  dropCopyHolder(it->second, p);
  ++stats_.ops.evictions;
  sendToHome(FhBody::K::Drop, p, x);
  return true;
}

// ---------------------------------------------------------------------------
// Crash repair (docs/faults.md)
// ---------------------------------------------------------------------------

bool FixedHomeStrategy::varQuiet(VarId x) const {
  const HomeEntry& he = homes_.at(x);
  if (he.busy || !he.queue.empty()) return false;
  // An op that already got its Data/WriteAck still installs a copy at the
  // requester after this point; repair must not run under it. pending_ is
  // bounded by the processor count — a linear scan on the cold path.
  for (const auto& [txn, op] : pending_)
    if (op.var == x) return false;
  return true;
}

void FixedHomeStrategy::onNodeDown(NodeId p) {
  // Collect every variable the dead node touches — as home, owner, copy
  // holder or stray cache entry — and repair in sorted order so the
  // repair traffic is independent of hash-map iteration order.
  std::vector<VarId> affected;
  for (const auto& [x, he] : homes_) {
    const bool touches =
        homeOf(x) == p || he.owner == p ||
        std::find(he.copyHolders.begin(), he.copyHolders.end(), p) !=
            he.copyHolders.end() ||
        caches_[p].peek(x) != nullptr;
    if (touches) affected.push_back(x);
  }
  // An op p issued before crashing will still install a copy at p when it
  // retires; schedule its variable too (the repair defers until then).
  for (const auto& [txn, op] : pending_)
    if (op.issuer == p &&
        std::find(affected.begin(), affected.end(), op.var) == affected.end())
      affected.push_back(op.var);
  std::sort(affected.begin(), affected.end());
  for (VarId x : affected) deferred_.repair(x, p, varQuiet(x), [&] { repairVar(x, p); });
}

void FixedHomeStrategy::drainDeferred(VarId x) {
  // Repair even if the node recovered meanwhile: the crash destroyed its
  // application state, so its pre-crash copies are scrubbed regardless.
  // The migration recomputes its target against the current member set.
  deferred_.drain(
      x, [&] { return varQuiet(x); }, [&](NodeId p) { repairVar(x, p); },
      [&] { migrateEpochVar(x); });
}

void FixedHomeStrategy::putHomeCopy(NodeId home, VarId x, const Value& v) {
  caches_[home].put(x, v).owned = false;
}

void FixedHomeStrategy::revertToHome(HomeEntry& he, VarId x, const Value& v, Handoff h) {
  const NodeId from = he.owner;
  he.owner = kHomeOwner;
  dropCopyHolder(he, from);
  caches_[from].erase(x);
  const NodeId home = homeOf(x);
  if (!caches_[home].peek(x)) putHomeCopy(home, x, v);
  sendHandoff(h, from, home, x, v->size());
  maybeEvictAt(home);
}

void FixedHomeStrategy::sendHandoff(Handoff h, NodeId src, NodeId dst, VarId x,
                                    std::uint64_t bytes) {
  beginHandoff(h, stats_.ops, net_.tracer(), src, x, bytes);
  FhBody b;
  b.k = h == Handoff::Repair ? FhBody::K::Recover : FhBody::K::Migrate;
  b.var = x;
  sendBody(src, dst, std::move(b), bytes);
}

void FixedHomeStrategy::repairVar(VarId x, NodeId p) {
  HomeEntry& he = homes_.at(x);
  // The last committed value, captured before any scrubbing. The dead
  // node's memory module is still reachable by its protocol agent (the
  // always-on-agent fault model), which is what physically justifies
  // salvaging a value whose only copy sat at p.
  const Value v = peek(x);
  DIVA_CHECK_MSG(v, "repair of variable " << x << " found no value");

  if (homeOf(x) == p) {
    // The home itself died: migrate the directory to the deterministic
    // successor, the next live member. The home's own copy (when
    // home-owned) moves with it.
    const NodeId s =
        net_.firstMemberFrom(p + 1, [&](NodeId q) { return net_.nodeUp(q); });
    rehome_[x] = s;
    std::uint64_t bytes = 0;
    if (he.owner == kHomeOwner) {
      caches_[p].erase(x);
      putHomeCopy(s, x, v);
      bytes = v->size();
    }
    sendHandoff(Handoff::Repair, p, s, x, bytes);
    maybeEvictAt(s);
  }

  if (he.owner == p) {
    // The owner died holding the only authoritative copy.
    revertToHome(he, x, v, Handoff::Repair);
  } else if (std::find(he.copyHolders.begin(), he.copyHolders.end(), p) !=
             he.copyHolders.end()) {
    // A plain copy died with the node: drop it from the directory. The
    // notification mirrors the eviction Drop message.
    dropCopyHolder(he, p);
    caches_[p].erase(x);
    sendHandoff(Handoff::Repair, p, homeOf(x), x, 0);  // the post-migration home
  }
  caches_[p].erase(x);  // stray safety: a dead node keeps no entry for x
  ++stats_.ops.repairedVars;
}

// ---------------------------------------------------------------------------
// Epoch migration (docs/faults.md "Reconfiguration")
// ---------------------------------------------------------------------------

void FixedHomeStrategy::migrateVar(VarId x, NodeId target) {
  HomeEntry& he = homes_.at(x);
  const NodeId cur = homeOf(x);
  std::uint64_t bytes = 0;
  if (he.owner == kHomeOwner) {
    // The authoritative home copy moves with the directory. If the old
    // home also sits in the holder list (it read locally while
    // home-owned), its entry stays behind as that plain copy — every
    // copy is current while the home owns the data.
    const Value v = peek(x);
    if (std::find(he.copyHolders.begin(), he.copyHolders.end(), cur) ==
        he.copyHolders.end())
      caches_[cur].erase(x);
    if (!caches_[target].peek(x)) {
      putHomeCopy(target, x, v);
      bytes = v->size();
    }
  }
  rehome_[x] = target;
  ++stats_.ops.migratedVars;
  sendHandoff(Handoff::Migration, cur, target, x, bytes);
  maybeEvictAt(target);
}

bool FixedHomeStrategy::varNeedsEpochWork(VarId x) const {
  const HomeEntry& he = homes_.at(x);
  if (homeOf(x) != memberHomeOf(x)) return true;
  if (he.owner != kHomeOwner && !net_.nodeMember(he.owner)) return true;
  for (NodeId p : he.copyHolders)
    if (!net_.nodeMember(p)) return true;
  return false;
}

void FixedHomeStrategy::migrateEpochVar(VarId x) {
  HomeEntry& he = homes_.at(x);
  bool moved = false;
  // A retired owner cedes: the authoritative value reverts to home
  // ownership. The retiring node's links (and protocol agent) stay up
  // until commitReconfig, which is what physically justifies the
  // synchronous salvage — the Migrate message charges its traffic.
  if (he.owner != kHomeOwner && !net_.nodeMember(he.owner)) {
    revertToHome(he, x, peek(x), Handoff::Migration);
    moved = true;
  }
  // Retired plain copies leave the directory (mirrors the eviction Drop).
  // A retiring home can sit in its own holder list (it read locally while
  // home-owned): its cache entry is the authoritative home copy, so leave
  // it in place for the re-home below to move.
  for (std::size_t i = he.copyHolders.size(); i-- > 0;) {
    const NodeId p = he.copyHolders[i];
    if (net_.nodeMember(p)) continue;
    dropCopyHolder(he, p);
    if (he.owner != kHomeOwner || p != homeOf(x)) caches_[p].erase(x);
    sendHandoff(Handoff::Migration, p, homeOf(x), x, 0);
    moved = true;
  }
  // The home target re-hashes over the member set.
  const NodeId target = memberHomeOf(x);
  if (homeOf(x) != target) {
    migrateVar(x, target);  // counts the variable itself
    moved = false;
  }
  if (moved) ++stats_.ops.migratedVars;
}

void FixedHomeStrategy::onReconfig() {
  // Every variable re-hashes its home over the new member set and scrubs
  // retired owners/copies; movers migrate in sorted id order so the
  // handoff traffic is independent of hash-map iteration order. Busy
  // variables defer until quiet (their requests forward through the old
  // home meanwhile).
  std::vector<VarId> vars;
  vars.reserve(homes_.size());
  for (const auto& [x, he] : homes_) vars.push_back(x);
  std::sort(vars.begin(), vars.end());
  for (VarId x : vars) {
    if (varNeedsEpochWork(x))
      deferred_.migrate(x, varQuiet(x), [&] { migrateEpochVar(x); });
    else
      deferred_.cancelMigration(x);
  }
}

// ---------------------------------------------------------------------------
// Invariant checking
// ---------------------------------------------------------------------------

void FixedHomeStrategy::checkInvariants(VarId x) const {
  const auto it = homes_.find(x);
  DIVA_CHECK_MSG(it != homes_.end(), "unregistered variable " << x);
  const HomeEntry& he = it->second;
  DIVA_CHECK_MSG(!he.busy && he.queue.empty() && he.pendingInvalAcks == 0,
                 "transaction still in flight for variable " << x);
  DIVA_CHECK_MSG(!deferred_.parked(x), "repair or migration still parked for variable "
                                           << x << " at quiescence");

  const NodeId home = homeOf(x);
  DIVA_CHECK_MSG(net_.nodeUp(home), "home of variable " << x << " is down");
  DIVA_CHECK_MSG(net_.nodeMember(home), "home of variable " << x << " is retired");
  DIVA_CHECK_MSG(he.owner == kHomeOwner || net_.nodeUp(he.owner),
                 "owner of variable " << x << " is down");
  DIVA_CHECK_MSG(he.owner == kHomeOwner || net_.nodeMember(he.owner),
                 "owner of variable " << x << " is retired");
  const Value ref = peek(x);
  for (NodeId p : he.copyHolders) {
    DIVA_CHECK_MSG(net_.nodeUp(p), "dead copy holder " << p << " for variable " << x);
    DIVA_CHECK_MSG(net_.nodeMember(p),
                   "retired copy holder " << p << " for variable " << x);
    const NodeCache::Entry* e = caches_[p].peek(x);
    DIVA_CHECK_MSG(e && e->value, "copy holder " << p << " missing entry");
    DIVA_CHECK_MSG(e->value == ref || *e->value == *ref, "incoherent copy at " << p);
    DIVA_CHECK_MSG(e->owned == (he.owner == p), "owned flag wrong at " << p);
  }
  if (he.owner == kHomeOwner) {
    const NodeCache::Entry* e = caches_[home].peek(x);
    DIVA_CHECK_MSG(e && e->value, "home owner without home copy");
  } else {
    DIVA_CHECK_MSG(std::find(he.copyHolders.begin(), he.copyHolders.end(), he.owner) !=
                       he.copyHolders.end(),
                   "owner not registered as a copy holder");
  }
}

}  // namespace diva
