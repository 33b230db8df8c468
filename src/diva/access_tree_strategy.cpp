#include "diva/access_tree_strategy.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace diva {

std::string AccessTreeStrategy::variantName(int arity, int leafSize) {
  std::ostringstream os;
  os << arity;
  if (leafSize > 1) os << '-' << leafSize;
  os << "-ary access tree";
  return os.str();
}

AccessTreeStrategy::AccessTreeStrategy(net::Network& net, Stats& stats,
                                       std::vector<NodeCache>& caches, Params params)
    : net_(net), stats_(stats), caches_(caches), params_(params) {
  ctxs_.push_back(
      net.topology().decompose(net::DecompParams{params.arity, params.leafSize}));
}

std::string AccessTreeStrategy::name() const {
  return variantName(params_.arity, params_.leafSize);
}

AccessTreeStrategy::TreeState& AccessTreeStrategy::stateOf(VarState& vs, VarId x,
                                                           std::int32_t node) {
  const auto [st, inserted] = nodeStates_.tryEmplace(varNodeKey(x, node));
  if (inserted) {
    st->listPos = static_cast<std::uint32_t>(vs.nodes.size());
    vs.nodes.push_back(node);
  }
  return *st;
}

void AccessTreeStrategy::eraseIfDefault(VarState& vs, VarId x, std::int32_t node) {
  const TreeState* st = findState(x, node);
  if (!st || !st->isDefault()) return;
  // Swap-remove from the variable's list, re-indexing the node moved in
  // (looked up after the erase, which may have moved its slot).
  const std::uint32_t pos = st->listPos;
  const std::int32_t moved = vs.nodes.back();
  vs.nodes[pos] = moved;
  vs.nodes.truncate(vs.nodes.size() - 1);
  nodeStates_.erase(varNodeKey(x, node));
  if (moved != node) nodeStates_.at(varNodeKey(x, moved)).listPos = pos;
}

void AccessTreeStrategy::eraseStates(VarState& vs, VarId x) {
  for (std::int32_t node : vs.nodes) nodeStates_.erase(varNodeKey(x, node));
  vs.nodes.clear();
}

void AccessTreeStrategy::setCopyEdge(const net::ClusterTree& t, TreeState& st,
                                     std::int32_t node, std::int32_t nb, bool held) {
  if (t.node(node).parent == nb) {
    st.parentCopy = held;
  } else if (held) {
    st.childCopyMask |= childBit(t, nb);
  } else {
    st.childCopyMask &= ~childBit(t, nb);
  }
}

std::uint32_t AccessTreeStrategy::childBit(const net::ClusterTree& t, std::int32_t child) {
  const int idx = t.node(child).indexInParent;
  DIVA_CHECK(idx >= 0 && idx < 32);
  return 1u << idx;
}

void AccessTreeStrategy::clearCopy(VarId x, std::int32_t node, NodeId host) {
  NodeCache::Entry* e = caches_[host].peek(x);
  DIVA_CHECK_MSG(e, "clearCopy without a cached copy");
  auto& nodes = e->copyNodes;
  std::int32_t* it = std::find(nodes.begin(), nodes.end(), node);
  DIVA_CHECK_MSG(it != nodes.end(), "clearCopy of a tree node the cache entry does not list");
  *it = nodes.back();  // the list is unordered: swap-remove
  nodes.truncate(nodes.size() - 1);
  if (nodes.empty()) caches_[host].erase(*e);
}

// ---------------------------------------------------------------------------
// Application-facing operations
// ---------------------------------------------------------------------------

sim::Task<Value> AccessTreeStrategy::read(NodeId p, VarId x) {
  const std::uint64_t txn = nextTxn_++;
  sim::OneShot<Value> done(net_.engine());
  pending_[txn] = &done;
  postClimb(p, x, txn, false, Value{});
  Value v = co_await done.wait();
  retire(txn, x);
  co_return v;
}

sim::Task<void> AccessTreeStrategy::write(NodeId p, VarId x, Value v) {
  const std::uint64_t txn = nextTxn_++;
  sim::OneShot<Value> done(net_.engine());
  pending_[txn] = &done;
  postClimb(p, x, txn, true, std::move(v));
  (void)co_await done.wait();
  retire(txn, x);
}

void AccessTreeStrategy::postClimb(NodeId p, VarId x, std::uint64_t txn, bool isWrite,
                                   Value v) {
  VarState& vs = varOf(x);
  ++vs.activeOps;
  renew(vs);
  AtBody b;
  b.k = AtBody::K::Climb;
  b.var = x;
  b.txn = txn;
  b.requester = p;
  b.ctx = vs.ctx;
  const net::ClusterTree& t = treeOf(vs);
  b.atNode = t.leafOf(p);
  NodeId entry = p;
  if (b.atNode < 0) {
    // p joined the machine after this variable's tree was built — the
    // variable is mid-handoff on a superseded context, its migration
    // deferred until it falls quiet. Enter the old tree through a
    // deterministic proxy leaf; the p→proxy hop is the forwarding cost.
    entry = liveLeafFrom(t, p + 1);
    b.requester = entry;
    b.atNode = t.leafOf(entry);
    ++stats_.ops.forwardedOps;
  }
  DIVA_CHECK_MSG(b.atNode >= 0, "requester " << p << " is not in variable " << x
                                             << "'s access tree");
  b.isWrite = isWrite;
  b.value = std::move(v);
  net_.post(net::Message{p, entry, net::kProtocolChannel, 0, std::move(b)});
}

void AccessTreeStrategy::retire(std::uint64_t txn, VarId x) {
  pending_.erase(txn);
  VarState& vs = varOf(x);
  renew(vs);
  if (--vs.activeOps == 0) drainDeferred(x);
}

void AccessTreeStrategy::seedComponent(VarState& vs, VarId x, NodeId owner,
                                       Value init) {
  const net::ClusterTree& t = *ctxs_[static_cast<std::size_t>(vs.ctx)];
  const std::int32_t leaf = t.leafOf(owner);
  DIVA_CHECK_MSG(leaf >= 0, "owner " << owner << " is not in variable " << x
                                     << "'s access tree");
  TreeState& st = stateOf(vs, x, leaf);
  st.kind = TreeState::Kind::Copy;
  st.downChild = -1;
  const NodeCache::Entry* held = caches_[owner].peek(x);
  DIVA_CHECK_MSG(!held || held->copyNodes.empty(),
                 "seeding variable " << x << " at owner " << owner
                                     << ", which still holds a copy");
  caches_[owner].put(x, std::move(init)).copyNodes.push_back(leaf);
  renew(vs);  // registration and reseed: a new component, fresh generation
  // Mark the path from the root to the component (data tracking invariant).
  std::int32_t child = leaf;
  for (std::int32_t a = t.parent(leaf); a >= 0; a = t.parent(a)) {
    TreeState& as = stateOf(vs, x, a);
    as.kind = TreeState::Kind::Down;
    as.downChild = child;
    child = a;
  }
}

void AccessTreeStrategy::registerVarFree(VarId x, NodeId owner, Value init) {
  const auto [slot, inserted] = states_.tryEmplace(x);
  DIVA_CHECK_MSG(inserted, "variable registered twice");
  *slot = std::make_unique<VarState>();
  VarState& vs = **slot;
  vs.ctx = cur_;
  seedComponent(vs, x, owner, std::move(init));
}

void AccessTreeStrategy::registerVar(VarId x, NodeId owner, Value init) {
  // The directory state becomes consistent immediately (so racing readers
  // can already track the data), while the root-path marking messages are
  // charged as real traffic hop-by-hop. The creator only pays its local
  // bookkeeping plus the first startup — creation does not block on a
  // root round trip.
  registerVarFree(x, owner, std::move(init));
  markRootPath(x, owner);
}

bool AccessTreeStrategy::markRootPath(VarId x, NodeId owner) {
  const net::ClusterTree& t = treeOf(x);
  const std::int32_t leaf = t.leafOf(owner);
  if (t.parent(leaf) < 0) return false;  // single-node machine
  AtBody m;
  m.k = AtBody::K::Mark;
  m.var = x;
  m.requester = owner;
  m.ctx = varOf(x).ctx;
  m.atNode = t.parent(leaf);
  m.fromNode = leaf;
  net_.post(
      net::Message{owner, hostOf(m.atNode, x), net::kProtocolChannel, 0, std::move(m)});
  return true;
}

void AccessTreeStrategy::destroyVarFree(VarId x) {
  VarState* vs = findVar(x);
  if (!vs) return;
  DIVA_CHECK_MSG(!vs->coord && vs->relays == 0, "destroying a variable with a write in flight");
  for (std::int32_t node : vs->nodes)
    if (findState(x, node)->kind == TreeState::Kind::Copy) clearCopy(x, node, hostOf(node, x));
  eraseStates(*vs, x);
  states_.erase(x);
  deferred_.erase(x);
}

std::int32_t AccessTreeStrategy::topCopy(VarId x) const {
  const VarState* vs = findVar(x);
  DIVA_CHECK_MSG(vs, "peek of unregistered variable");
  const net::ClusterTree& t = treeOf(*vs);
  std::int32_t top = -1;
  for (std::int32_t node : vs->nodes)
    if (findState(x, node)->kind == TreeState::Kind::Copy &&
        (top < 0 || t.depthOf(node) < t.depthOf(top)))
      top = node;
  DIVA_CHECK_MSG(top >= 0, "variable has no copies");
  return top;
}

Value AccessTreeStrategy::peek(VarId x) const {
  // The topmost copy holder carries the committed value.
  const NodeCache::Entry* e = caches_[hostOf(topCopy(x), x)].peek(x);
  DIVA_CHECK(e && e->value);
  return e->value;
}

// ---------------------------------------------------------------------------
// Protocol engine
// ---------------------------------------------------------------------------

void AccessTreeStrategy::handleMessage(net::Message&& msg) {
  AtBody b = msg.take<AtBody>();
  // Any protocol act on x may change whether x is evictable, so refusals
  // recorded before this handler or during it are not trusted after it.
  // (Handlers never erase variable state, so the pointer stays valid.)
  VarState* vs = findVar(b.var);
  if (vs) renew(*vs);
  // Climb, Data, Inval and InvalAck belong to an operation in flight,
  // which keeps its variable registered.
  auto busy = [&]() -> VarState& {
    DIVA_CHECK_MSG(vs, "protocol message for unregistered variable " << b.var);
    return *vs;
  };
  switch (b.k) {
    case AtBody::K::Climb: onClimb(busy(), msg.dst, std::move(b)); break;
    case AtBody::K::Data: onData(busy(), msg.dst, std::move(b)); break;
    case AtBody::K::Inval: onInval(busy(), msg.dst, std::move(b)); break;
    case AtBody::K::InvalAck: onInvalAck(busy(), msg.dst, std::move(b)); break;
    case AtBody::K::Mark: onMark(msg.dst, std::move(b)); break;
    case AtBody::K::CopyDrop: onCopyDrop(vs, std::move(b)); break;
    case AtBody::K::Recover:
    case AtBody::K::Migrate:
      // Cost-only: repair and migration mutate tree state and caches
      // synchronously at drain time (see reseed); these messages charge
      // the handoff traffic so congestion during it is visible. Arrival
      // closes the span the send opened.
      endHandoff(b.k == AtBody::K::Recover ? Handoff::Repair : Handoff::Migration,
                 net_.tracer(), msg.dst, b.var);
      break;
  }
  if (vs) renew(*vs);
}

void AccessTreeStrategy::forward(AtBody&& b, NodeId src, std::int32_t toTreeNode,
                                 std::uint64_t payloadBytes) {
  // Host resolution uses the context stamped into the message, not the
  // variable's current one: a cost-only Mark may still be travelling on a
  // predecessor tree after its variable migrated (or was destroyed).
  const net::ClusterTree& t = *ctxs_[static_cast<std::size_t>(b.ctx)];
  const NodeId dst = t.hostOf(toTreeNode, b.var, params_.embedding, params_.seed);
  b.atNode = toTreeNode;
  net_.post(net::Message{src, dst, net::kProtocolChannel, payloadBytes, std::move(b)});
}

void AccessTreeStrategy::onClimb(VarState& vs, NodeId at, AtBody&& b) {
  const std::int32_t node = b.atNode;
  const TreeState* st = findState(b.var, node);
  const TreeState::Kind kind = st ? st->kind : TreeState::Kind::Up;

  if (kind == TreeState::Kind::Copy) {
    serveAt(vs, node, at, std::move(b));
    return;
  }
  if (kind == TreeState::Kind::Down) {
    const std::int32_t next = st->downChild;
    b.descending = true;
    b.path.push_back(node);
    const std::uint64_t payload = b.isWrite ? b.value->size() : 0;
    forward(std::move(b), at, next, payload);
    return;
  }
  // Kind::Up — no information here.
  if (b.descending) {
    // A pointer went stale under a concurrent transaction: resume climbing
    // from this node. Bounded by kMaxRetries (races are transient).
    b.descending = false;
    ++b.retries;
    DIVA_CHECK_MSG(b.retries < kMaxRetries, "access tree climb livelock");
  }
  const std::int32_t parent = treeOf(vs).parent(node);
  DIVA_CHECK_MSG(parent >= 0, "climb reached the root without finding data "
                                  << "(unregistered variable " << b.var << "?)");
  b.path.push_back(node);
  const std::uint64_t payload = b.isWrite ? b.value->size() : 0;
  forward(std::move(b), at, parent, payload);
}

void AccessTreeStrategy::serveAt(VarState& vs, std::int32_t node, NodeId at, AtBody&& b) {
  b.path.push_back(node);
  if (!b.isWrite) {
    NodeCache::Entry* e = caches_[at].touch(b.var);
    DIVA_CHECK_MSG(e && e->value, "copy holder without cached value");
    sendData(vs, at, b.var, b.txn, b.requester, false, e->value, std::move(b.path));
    return;
  }
  startInvalidation(vs, node, at, std::move(b));
}

void AccessTreeStrategy::sendData(VarState& vs, NodeId at, VarId x, std::uint64_t txn,
                                  NodeId requester, bool isWrite, Value v,
                                  std::vector<std::int32_t> path) {
  if (path.size() == 1) {
    // The server is the requester's entry leaf — a writer's own copy, or
    // a proxy leaf (read/write) that already holds one: nothing travels.
    sim::OneShot<Value>* const* issuer = pending_.find(txn);
    DIVA_CHECK(issuer);
    (*issuer)->resolve(std::move(v));
    return;
  }
  const std::int32_t server = path.back();
  const std::int32_t next = path[path.size() - 2];
  // The server learns that its path neighbour is about to hold a copy —
  // unless a write is in flight, in which case the deposits downstream
  // will be skipped anyway (versioning) and no mark must be left.
  if (!vs.coord) setCopyEdge(treeOf(vs), stateOf(vs, x, server), server, next, true);

  AtBody d;
  d.k = AtBody::K::Data;
  d.var = x;
  d.txn = txn;
  d.requester = requester;
  d.ctx = vs.ctx;
  d.isWrite = isWrite;
  d.version = vs.committedVersion;
  d.value = std::move(v);
  d.idx = static_cast<std::int32_t>(path.size()) - 2;
  d.path = std::move(path);
  const std::uint64_t payload = d.value->size();
  forward(std::move(d), at, next, payload);
}

void AccessTreeStrategy::depositCopy(VarState& vs, VarId x, std::int32_t node, NodeId host,
                                     const Value& v, std::int32_t towardServer,
                                     std::int32_t towardRequester) {
  TreeState& st = stateOf(vs, x, node);
  if (st.kind != TreeState::Kind::Copy) {
    st.kind = TreeState::Kind::Copy;
    st.downChild = -1;
    // Another tree node of x hosted here may hold a copy already: then
    // the entry keeps its recency and only takes the new value.
    const auto [e, inserted] = caches_[host].insert(x, v);
    if (!inserted) e.value = v;
    e.copyNodes.push_back(node);
  } else {
    NodeCache::Entry* e = caches_[host].peek(x);
    DIVA_CHECK(e);
    e->value = v;
  }
  const net::ClusterTree& t = treeOf(vs);
  setCopyEdge(t, st, node, towardServer, true);
  if (towardRequester >= 0) setCopyEdge(t, st, node, towardRequester, true);
  maybeEvictAt(host);
}

void AccessTreeStrategy::onData(VarState& vs, NodeId at, AtBody&& b) {
  const std::int32_t node = b.path[b.idx];
  DIVA_CHECK(node == b.atNode);
  // A read response that raced a write delivers its (old) value but must
  // not leave copies behind: the read linearizes before the write.
  const bool depositsEnabled = b.version == vs.committedVersion && !vs.coord;
  if (depositsEnabled) {
    const std::int32_t towardServer = b.path[b.idx + 1];
    const std::int32_t towardRequester = b.idx > 0 ? b.path[b.idx - 1] : -1;
    depositCopy(vs, b.var, node, at, b.value, towardServer, towardRequester);
  }

  if (b.idx == 0) {
    sim::OneShot<Value>* const* issuer = pending_.find(b.txn);
    DIVA_CHECK_MSG(issuer, "data response for unknown transaction");
    (*issuer)->resolve(std::move(b.value));
    return;
  }
  --b.idx;
  const std::int32_t next = b.path[b.idx];
  const std::uint64_t payload = b.value->size();
  forward(std::move(b), at, next, payload);
}

void AccessTreeStrategy::startInvalidation(VarState& vs, std::int32_t uNode, NodeId at,
                                           AtBody&& b) {
  DIVA_CHECK_MSG(!vs.coord, "concurrent writes to one variable are not allowed "
                                << "(variable " << b.var << ")");
  TreeState& st = stateOf(vs, b.var, uNode);

  InvalCoord c;
  c.var = b.var;
  c.txn = b.txn;
  c.requester = b.requester;
  c.value = std::move(b.value);
  c.path = std::move(b.path);
  c.pendingAcks = floodInval(b.var, uNode, at, st, -1, b.ctx);
  st.parentCopy = false;
  st.childCopyMask = 0;

  if (c.pendingAcks == 0) {
    finishWrite(vs, at, std::move(c));
  } else {
    vs.coord.emplace(std::move(c));
  }
}

void AccessTreeStrategy::onInval(VarState& vs, NodeId at, AtBody&& b) {
  const std::int32_t node = b.atNode;
  const std::int32_t from = b.fromNode;
  TreeState* stp = findState(b.var, node);
  if (!stp || stp->kind != TreeState::Kind::Copy) {
    // The copy is already gone (eviction or skipped deposit raced the
    // flood): acknowledge without forwarding, flagging the stale mask so
    // the sender can heal it.
    sendInvalAck(b.var, node, at, from, b.ctx, false);
    return;
  }
  TreeState& st = *stp;
  ++stats_.ops.invalidations;

  const int pendingAcks = floodInval(b.var, node, at, st, from, b.ctx);

  // Drop the copy and point toward the writer (restores the root-path
  // marking invariant; see DESIGN.md §5).
  clearCopy(b.var, node, at);
  if (from == treeOf(vs).parent(node)) {
    st.kind = TreeState::Kind::Up;
    st.downChild = -1;
  } else {
    st.kind = TreeState::Kind::Down;
    st.downChild = from;
  }
  st.parentCopy = false;
  st.childCopyMask = 0;

  if (pendingAcks == 0) {
    sendInvalAck(b.var, node, at, from, b.ctx, true);
    eraseIfDefault(vs, b.var, node);
  } else {
    st.relayAcks = static_cast<std::uint16_t>(pendingAcks);
    st.relayAckTo = from;
    ++vs.relays;
  }
}

void AccessTreeStrategy::onInvalAck(VarState& vs, NodeId at, AtBody&& b) {
  const std::int32_t node = b.atNode;
  TreeState* st = findState(b.var, node);
  if (!b.ackHadCopy && st) {
    // The flood edge pointed at a node without a copy (a read deposit
    // was skipped after the mark was set): heal the stale mask bit.
    setCopyEdge(treeOf(vs), *st, node, b.fromNode, false);
  }
  if (st && st->relayAcks > 0) {
    if (--st->relayAcks == 0) {
      --vs.relays;
      const std::int32_t to = std::exchange(st->relayAckTo, -1);
      sendInvalAck(b.var, node, at, to, b.ctx, true);
      eraseIfDefault(vs, b.var, node);
    }
    return;
  }
  DIVA_CHECK_MSG(vs.coord && vs.coord->path.back() == node,
                 "stray invalidation acknowledgement");
  if (--vs.coord->pendingAcks == 0) {
    InvalCoord c = std::move(*vs.coord);
    vs.coord.reset();
    finishWrite(vs, at, std::move(c));
  }
}

int AccessTreeStrategy::floodInval(VarId x, std::int32_t node, NodeId at, const TreeState& st,
                                   std::int32_t except, std::int32_t ctx) {
  const net::ClusterTree::Node& nd = ctxs_[static_cast<std::size_t>(ctx)]->node(node);
  int flooded = 0;
  auto flood = [&](std::int32_t nb) {
    if (nb == except) return;
    AtBody iv;
    iv.k = AtBody::K::Inval;
    iv.var = x;
    iv.fromNode = node;
    iv.ctx = ctx;
    forward(std::move(iv), at, nb, 0);
    ++flooded;
  };
  if (st.parentCopy) flood(nd.parent);
  std::uint32_t mask = st.childCopyMask;
  while (mask) {
    const int bit = std::countr_zero(mask);
    mask &= mask - 1;
    DIVA_CHECK(bit < static_cast<int>(nd.children.size()));
    flood(nd.children[bit]);
  }
  return flooded;
}

void AccessTreeStrategy::sendInvalAck(VarId x, std::int32_t node, NodeId at, std::int32_t to,
                                      std::int32_t ctx, bool hadCopy) {
  AtBody ack;
  ack.k = AtBody::K::InvalAck;
  ack.var = x;
  ack.fromNode = node;
  ack.ctx = ctx;
  ack.ackHadCopy = hadCopy;
  forward(std::move(ack), at, to, 0);
}

void AccessTreeStrategy::finishWrite(VarState& vs, NodeId at, InvalCoord&& c) {
  DIVA_CHECK(c.var != kInvalidVar);
  ++vs.committedVersion;
  NodeCache::Entry* e = caches_[at].touch(c.var);
  DIVA_CHECK_MSG(e && !e->copyNodes.empty(), "writer target lost its copy");
  e->value = c.value;
  sendData(vs, at, c.var, c.txn, c.requester, true, std::move(c.value), std::move(c.path));
}

void AccessTreeStrategy::onMark(NodeId at, AtBody&& b) {
  // Cost-only: the directory was updated at registration; this message
  // stream just accounts for the marking traffic up the root path. The
  // tree is taken from the message's context — the variable may already
  // have migrated off (or been destroyed) while the mark was in flight.
  const std::int32_t node = b.atNode;
  const std::int32_t parent = ctxs_[static_cast<std::size_t>(b.ctx)]->parent(node);
  if (parent < 0) return;
  b.fromNode = node;
  forward(std::move(b), at, parent, 0);
}

void AccessTreeStrategy::onCopyDrop(VarState* vs, AtBody&& b) {
  // Cost-only: the survivor's mask was healed at eviction time (see
  // tryEvict). Kept idempotent for robustness. A drop from a superseded
  // context is stale — the migration wiped that component wholesale.
  if (!vs || vs->ctx != b.ctx) return;
  if (TreeState* st = findState(b.var, b.atNode))
    setCopyEdge(treeOf(*vs), *st, b.atNode, b.fromNode, false);
}

// ---------------------------------------------------------------------------
// LRU replacement
// ---------------------------------------------------------------------------

bool AccessTreeStrategy::tryEvict(NodeId p, VarId x) {
  NodeCache::Entry* e = caches_[p].peek(x);
  return e && tryEvict(p, x, *e);
}

bool AccessTreeStrategy::tryEvict(NodeId p, VarId x, NodeCache::Entry& e) {
  // Nothing that decides x's evictability has happened since this entry
  // was last refused (see VarState::generation): the answer is unchanged.
  // The counter the entry points at is x's own, still alive.
  if (e.refusedGen && *e.refusedGen == e.refusedAt) return false;
  VarState* const vsp = findVar(x);
  if (!vsp) return false;
  VarState& vs = *vsp;
  auto refuse = [&] {
    e.refusedGen = &vs.generation;
    e.refusedAt = vs.generation;
    return false;
  };
  if (vs.coord || vs.relays > 0) return refuse();  // write in flight
  if (vs.activeOps > 0) return refuse();  // transaction path references copies

  // S = the tree nodes of x's component hosted at p (the entry's copy-node
  // list). Dropping the cache entry removes all of them at once, which is
  // safe exactly when
  //  (a) S is connected within the tree (unique node whose parent ∉ S), and
  //  (b) exactly one copy-edge leaves S — the rest of the component stays
  //      connected, attached at that edge.
  const auto& hosted = e.copyNodes;
  auto inS = [&](std::int32_t n) {
    return std::find(hosted.begin(), hosted.end(), n) != hosted.end();
  };

  const net::ClusterTree& t = treeOf(vs);
  int topsInS = 0;
  int boundaryEdges = 0;
  std::int32_t boundaryInside = -1, boundaryOutside = -1;
  for (std::int32_t s : hosted) {
    const TreeState& st = nodeStates_.at(varNodeKey(x, s));
    const net::ClusterTree::Node& nd = t.node(s);
    if (nd.parent < 0 || !inS(nd.parent)) ++topsInS;
    if (st.parentCopy && !inS(nd.parent)) {
      ++boundaryEdges;
      boundaryInside = s;
      boundaryOutside = nd.parent;
    }
    std::uint32_t mask = st.childCopyMask;
    while (mask) {
      const int bit = std::countr_zero(mask);
      mask &= mask - 1;
      const std::int32_t ch = nd.children[bit];
      if (!inS(ch)) {
        ++boundaryEdges;
        boundaryInside = s;
        boundaryOutside = ch;
      }
    }
  }
  if (topsInS != 1 || boundaryEdges != 1) return refuse();  // last copies / interior

  // Masks are may-have-copy over-approximations (racing deposits can be
  // skipped after a mark was set), so verify the surviving neighbour
  // actually holds a copy — otherwise we would evict the last real copy.
  {
    const TreeState* bst = findState(x, boundaryOutside);
    if (!bst || bst->kind != TreeState::Kind::Copy) return refuse();
  }

  // Is a tree node `a` an ancestor of `b`?
  auto isAncestor = [&](std::int32_t a, std::int32_t b) {
    for (std::int32_t w = t.parent(b); w >= 0; w = t.parent(w))
      if (w == a) return true;
    return false;
  };

  // Re-point every dropped node toward the surviving component.
  for (std::int32_t s : hosted) {
    TreeState& st = nodeStates_.at(varNodeKey(x, s));
    if (boundaryOutside == s || isAncestor(s, boundaryOutside)) {
      // Survivors hang below: mark Down toward them.
      std::int32_t towards = boundaryOutside;
      for (std::int32_t w = boundaryOutside; w != s; w = t.parent(w)) towards = w;
      st.kind = TreeState::Kind::Down;
      st.downChild = towards;
    } else {
      st.kind = TreeState::Kind::Up;
      st.downChild = -1;
    }
    st.parentCopy = false;
    st.childCopyMask = 0;
  }

  const support::SmallVec<std::int32_t, 4> dropped = std::move(e.copyNodes);
  caches_[p].erase(e);
  ++stats_.ops.evictions;
  renew(vs);  // the component changed shape: other hosts may now evict

  // Heal the survivor's mask immediately in simulator state (avoiding a
  // window in which another eviction could trust the stale bit); the
  // notification message still travels for its cost.
  setCopyEdge(t, nodeStates_.at(varNodeKey(x, boundaryOutside)), boundaryOutside,
              boundaryInside, false);
  AtBody drop;
  drop.k = AtBody::K::CopyDrop;
  drop.var = x;
  drop.fromNode = boundaryInside;
  drop.ctx = vs.ctx;
  forward(std::move(drop), p, boundaryOutside, 0);  // boundaryInside ∈ S is hosted at p
  for (std::int32_t s : dropped) eraseIfDefault(vs, x, s);
  return true;
}

void AccessTreeStrategy::maybeEvictAt(NodeId p) {
  if (!caches_[p].evictUntilFits(
          [&](VarId v, NodeCache::Entry& e) { return tryEvict(p, v, e); }))
    ++stats_.ops.evictionFailures;
}

// ---------------------------------------------------------------------------
// Crash repair (docs/faults.md)
// ---------------------------------------------------------------------------

NodeId AccessTreeStrategy::liveLeafFrom(const net::ClusterTree& t, NodeId start) const {
  return net_.firstMemberFrom(
      start, [&](NodeId q) { return net_.nodeUp(q) && t.leafOf(q) >= 0; });
}

bool AccessTreeStrategy::varQuiet(const VarState& vs) const {
  // activeOps covers every read/write from issue to coroutine retirement,
  // which subsumes in-flight Climb/Data; coord/relays cover invalidation
  // floods. Cost-only traffic (Mark/CopyDrop/Recover) never needs quiet.
  return !vs.coord && vs.relays == 0 && vs.activeOps == 0;
}

void AccessTreeStrategy::onNodeDown(NodeId p) {
  // Collect every variable whose copy component touches the dead host —
  // via a hosted Copy tree node or a stray cache entry — and repair in
  // sorted order so traffic is independent of hash-map iteration order.
  std::vector<VarId> affected;
  states_.forEach([&](VarId x, const std::unique_ptr<VarState>& vs) {
    bool touches = caches_[p].peek(x) != nullptr;
    for (auto it = vs->nodes.begin(); !touches && it != vs->nodes.end(); ++it)
      touches = findState(x, *it)->kind == TreeState::Kind::Copy && hostOf(*it, x) == p;
    if (touches) affected.push_back(x);
  });
  std::sort(affected.begin(), affected.end());
  for (VarId x : affected)
    deferred_.repair(x, p, varQuiet(varOf(x)), [&] { repairVar(x, p); });
}

void AccessTreeStrategy::drainDeferred(VarId x) {
  // Repair even if the node recovered meanwhile: the crash destroyed its
  // application state, so its pre-crash copies are scrubbed regardless.
  // The migration comes last because repair is defined on the old tree.
  deferred_.drain(
      x, [&] { return varQuiet(varOf(x)); }, [&](NodeId p) { repairVar(x, p); },
      [&] { migrateVar(x); });
}

template <typename Post>
void AccessTreeStrategy::reseed(VarId x, int ctx, NodeId owner, const Value& v, Handoff h,
                                Post&& post) {
  VarState& vs = varOf(x);
  std::vector<std::int32_t> copies;
  for (std::int32_t n : vs.nodes)
    if (findState(x, n)->kind == TreeState::Kind::Copy) copies.push_back(n);
  std::sort(copies.begin(), copies.end());
  std::vector<NodeId> hosts;
  for (std::int32_t n : copies) {
    hosts.push_back(hostOf(n, x));
    clearCopy(x, n, hosts.back());
  }
  eraseStates(vs, x);
  vs.ctx = ctx;
  seedComponent(vs, x, owner, v);
  ++vs.committedVersion;  // any still-queued deposit version is stale now
  maybeEvictAt(owner);
  post(hosts);
  if (markRootPath(x, owner)) ++handoffMessages(stats_.ops, h);
}

void AccessTreeStrategy::sendHandoff(Handoff h, VarId x, NodeId src, NodeId dst,
                                     std::uint64_t bytes) {
  beginHandoff(h, stats_.ops, net_.tracer(), src, x, bytes);
  AtBody b;
  b.k = h == Handoff::Repair ? AtBody::K::Recover : AtBody::K::Migrate;
  b.var = x;
  b.ctx = varOf(x).ctx;
  net_.post(net::Message{src, dst, net::kProtocolChannel, bytes, std::move(b)});
}

void AccessTreeStrategy::repairVar(VarId x, NodeId p) {
  // Salvage the committed value before scrubbing. The dead host's memory
  // module is still reachable by its protocol agent (always-on-agent
  // fault model), which justifies recovering a value whose topmost copy
  // sat at p.
  const Value v = peek(x);
  const int ctx = varOf(x).ctx;
  const NodeId s = liveLeafFrom(treeOf(x), p + 1);
  ++stats_.ops.repairedVars;

  // Charge the repair traffic: the salvaged value streams from the dead
  // host to the seed and each surviving copy host gets a scrub notice.
  reseed(x, ctx, s, v, Handoff::Repair, [&](const std::vector<NodeId>& hosts) {
    sendHandoff(Handoff::Repair, x, p, s, v->size());
    std::vector<NodeId> notified;
    for (NodeId h : hosts) {
      if (h == s || h == p) continue;
      if (std::find(notified.begin(), notified.end(), h) != notified.end()) continue;
      notified.push_back(h);
      sendHandoff(Handoff::Repair, x, s, h, 0);
    }
  });
  caches_[p].erase(x);  // stray safety: a dead node keeps no entry for x
}

// ---------------------------------------------------------------------------
// Epoch migration (docs/faults.md "Reconfiguration")
// ---------------------------------------------------------------------------

void AccessTreeStrategy::onReconfig() {
  // Decompose the *target* shape: during the handoff window the physical
  // network still retains retiring nodes' links (so old-tree traffic and
  // the migration itself can route), but the new tree must only cover
  // the nodes that stay.
  ctxs_.push_back(net_.targetTopology().decompose(
      net::DecompParams{params_.arity, params_.leafSize}));
  cur_ = static_cast<int>(ctxs_.size()) - 1;

  // Migrate in sorted variable order so traffic and cache mutation order
  // are independent of hash-map layout.
  std::vector<VarId> vars;
  vars.reserve(states_.size());
  states_.forEach([&](VarId x, const std::unique_ptr<VarState>&) { vars.push_back(x); });
  std::sort(vars.begin(), vars.end());
  for (VarId x : vars)
    deferred_.migrate(x, varQuiet(varOf(x)), [&] { migrateVar(x); });
}

void AccessTreeStrategy::migrateVar(VarId x) {
  if (varOf(x).ctx == cur_) return;  // already on the current tree
  // Salvage the committed value from the topmost copy before wiping.
  const NodeId oldHost = hostOf(topCopy(x), x);
  const Value v = peek(x);
  const NodeId owner = liveLeafFrom(tree(), oldHost);
  ++stats_.ops.migratedVars;
  // Charge the handoff: the value streams from the old host to the new
  // owner when it moved.
  reseed(x, cur_, owner, v, Handoff::Migration, [&](const std::vector<NodeId>&) {
    if (owner != oldHost) sendHandoff(Handoff::Migration, x, oldHost, owner, v->size());
  });
}

// ---------------------------------------------------------------------------
// Invariant checking (tests / debugging)
// ---------------------------------------------------------------------------

void AccessTreeStrategy::checkInvariants(VarId x) const {
  const VarState* vsp = findVar(x);
  DIVA_CHECK_MSG(vsp, "unregistered variable " << x);
  const VarState& vs = *vsp;
  DIVA_CHECK_MSG(!vs.coord, "write still in flight");
  DIVA_CHECK_MSG(vs.relays == 0, "invalidation relays still in flight");
  DIVA_CHECK_MSG(vs.activeOps == 0, "operations still in flight");
  DIVA_CHECK_MSG(!deferred_.parked(x), "repair or migration still parked for variable "
                                           << x << " at quiescence");
  DIVA_CHECK_MSG(vs.ctx == cur_, "variable " << x
                                             << " still managed by a superseded "
                                                "access tree at quiescence");
  const net::ClusterTree& t = *ctxs_[static_cast<std::size_t>(vs.ctx)];

  // The variable's node list and the state table agree.
  for (std::size_t i = 0; i < vs.nodes.size(); ++i) {
    const TreeState* st = findState(x, vs.nodes[i]);
    DIVA_CHECK_MSG(st && st->listPos == i,
                   "state list out of step with the table at tree node " << vs.nodes[i]);
  }

  // Collect the copy component.
  std::vector<std::int32_t> copies;
  for (std::int32_t n : vs.nodes)
    if (findState(x, n)->kind == TreeState::Kind::Copy) copies.push_back(n);
  DIVA_CHECK_MSG(!copies.empty(), "variable " << x << " lost all copies");

  // Unique topmost node; every other copy's parent is also a copy
  // (equivalent to connectivity of a subgraph of a tree).
  auto isCopy = [&](std::int32_t n) {
    const TreeState* st = findState(x, n);
    return st && st->kind == TreeState::Kind::Copy;
  };
  std::int32_t top = copies.front();
  for (std::int32_t n : copies)
    if (t.depthOf(n) < t.depthOf(top)) top = n;
  for (std::int32_t n : copies) {
    if (n == top) continue;
    DIVA_CHECK_MSG(t.parent(n) >= 0 && isCopy(t.parent(n)),
                   "copy component disconnected at tree node " << n);
  }

  // Root-path marking: every strict ancestor of `top` points Down along
  // the path toward `top`; no other node may be in Down state.
  std::vector<std::int32_t> rootPath;
  {
    std::int32_t child = top;
    for (std::int32_t a = t.parent(top); a >= 0; a = t.parent(a)) {
      const TreeState* st = findState(x, a);
      DIVA_CHECK_MSG(st && st->kind == TreeState::Kind::Down && st->downChild == child,
                     "root-path marking broken at tree node " << a);
      rootPath.push_back(a);
      child = a;
    }
  }
  for (std::int32_t n : vs.nodes) {
    if (findState(x, n)->kind != TreeState::Kind::Down) continue;
    const bool onRootPath =
        std::find(rootPath.begin(), rootPath.end(), n) != rootPath.end();
    DIVA_CHECK_MSG(onRootPath, "stale Down pointer at tree node " << n);
  }

  // Neighbour masks match the component; each copy host's cache entry
  // lists exactly the copy nodes it hosts; all copies agree on one value
  // (coherence at quiescence).
  const NodeCache::Entry* ref = caches_[hostOf(top, x)].peek(x);
  DIVA_CHECK(ref && ref->value);
  std::unordered_map<NodeId, std::vector<std::int32_t>> hostNodes;
  for (std::int32_t n : copies) {
    const TreeState& st = *findState(x, n);
    const auto& nd = t.node(n);
    // Masks are "may have a copy": they must cover every actual copy
    // neighbour (or invalidation floods would miss copies); stray extra
    // bits from skipped racing deposits are permitted (healed by the
    // next flood) — but only toward nodes that once saw this variable.
    if (nd.parent >= 0 && isCopy(nd.parent))
      DIVA_CHECK_MSG(st.parentCopy, "parentCopy mask missing at " << n);
    std::uint32_t expect = 0;
    for (std::int32_t ch : nd.children)
      if (isCopy(ch)) expect |= childBit(t, ch);
    DIVA_CHECK_MSG((st.childCopyMask & expect) == expect,
                   "childCopyMask incomplete at " << n);
    hostNodes[hostOf(n, x)].push_back(n);
  }
  for (auto& [host, nodes] : hostNodes) {
    const NodeCache::Entry* e = caches_[host].peek(x);
    DIVA_CHECK_MSG(e, "copy holder " << host << " missing cache entry");
    std::vector<std::int32_t> listed(e->copyNodes.begin(), e->copyNodes.end());
    std::sort(listed.begin(), listed.end());
    std::sort(nodes.begin(), nodes.end());
    DIVA_CHECK_MSG(listed == nodes, "copy-node list mismatch at host " << host);
    DIVA_CHECK_MSG(e->value == ref->value || *e->value == *ref->value,
                   "incoherent copies of variable " << x);
  }
}

}  // namespace diva
