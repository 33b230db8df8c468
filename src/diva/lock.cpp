#include "diva/lock.hpp"

#include <algorithm>
#include <utility>

#include "support/rng.hpp"

namespace diva {

void RequestQueue::push(std::int32_t from) {
  if (head_ > 0 && slots_.size() == slots_.capacity()) {
    // Full with served slots at the front: slide the queued ones down.
    std::copy(slots_.begin() + head_, slots_.end(), slots_.begin());
    slots_.truncate(slots_.size() - head_);
    head_ = 0;
  }
  slots_.push_back(from);
}

void RequestQueue::pop() {
  if (++head_ == slots_.size()) {
    slots_.clear();
    head_ = 0;
  }
}

// ===========================================================================
// TreeLockService (Raymond's algorithm)
// ===========================================================================

TreeLockService::TreeLockService(net::Network& net, Stats& stats,
                                 const net::ClusterTree& tree,
                                 net::EmbeddingKind embedding, std::uint64_t seed)
    : net_(net), stats_(stats), tree_(&tree), embedding_(embedding), seed_(seed) {}

NodeId TreeLockService::hostOf(std::int32_t node, VarId lock) const {
  return tree_->hostOf(node, lock, embedding_, seed_);
}

void TreeLockService::registerLockFree(VarId lock, NodeId creator) {
  locks_[lock].anchor = creator;
}

void TreeLockService::rebuild(const net::ClusterTree& tree) {
  for (const auto& [key, st] : states_)
    DIVA_CHECK_MSG(st.reqQ.empty() && !st.inUse && !st.asked && !st.waiter,
                   "lock " << (key >> 32) << " busy across a reconfiguration epoch");
  tree_ = &tree;
  states_.clear();  // holder pointers are rebuilt lazily against the new tree
  for (auto& [lock, rec] : locks_) {
    rec.nodes.clear();
    if (tree.leafOf(rec.anchor) >= 0) continue;
    // The anchor left the machine: the token restarts at the next member.
    rec.anchor = net_.firstMemberFrom(rec.anchor + 1,
                                      [&](NodeId q) { return tree.leafOf(q) >= 0; });
  }
}

std::int32_t TreeLockService::defaultHolderDir(NodeId anchor, std::int32_t node) const {
  const std::int32_t leaf = tree_->leafOf(anchor);
  DIVA_CHECK_MSG(leaf >= 0, "lock anchor " << anchor << " is not in the tree");
  if (leaf == node) return kSelf;
  // Token starts at the anchor's leaf: point into the subtree containing
  // it, or to the parent when it lies outside ours.
  const int child = tree_->childToward(node, anchor);
  return child >= 0 ? child : tree_->node(node).parent;
}

TreeLockService::NodeState& TreeLockService::stateOf(VarId lock, std::int32_t node) {
  const std::uint64_t key = varNodeKey(lock, node);
  if (const auto it = states_.find(key); it != states_.end()) return it->second;
  const auto rec = locks_.find(lock);
  DIVA_CHECK_MSG(rec != locks_.end(), "lock " << lock << " never registered");
  const std::int32_t holderDir = defaultHolderDir(rec->second.anchor, node);
  NodeState& st = states_[key];
  st.holderDir = holderDir;
  rec->second.nodes.push_back(node);
  return st;
}

sim::Task<void> TreeLockService::acquire(NodeId p, VarId lock) {
  ++stats_.ops.locks;
  sim::OneShot<bool> granted(net_.engine());
  const std::int32_t leaf = tree_->leafOf(p);
  DIVA_CHECK_MSG(leaf >= 0, "requester " << p << " is not in the lock tree");
  NodeState& st = stateOf(lock, leaf);
  DIVA_CHECK_MSG(!st.waiter, "processor already acquiring this lock");
  st.waiter = &granted;
  send(Body::K::Request, lock, kSelf, leaf);

  (void)co_await granted.wait();
  co_return;
}

sim::Task<void> TreeLockService::release(NodeId p, VarId lock) {
  Body b;
  b.k = Body::K::Release;
  b.lock = lock;
  b.atNode = tree_->leafOf(p);
  // Named local rather than a temporary in the co_await expression:
  // GCC 12 double-destroys such temporaries (PR 104031).
  net::Message m{p, p, net::kLockChannel, 0, b};
  co_await net_.send(std::move(m));
  co_return;
}

void TreeLockService::handleMessage(net::Message&& msg) {
  Body b = msg.take<Body>();
  switch (b.k) {
    case Body::K::Request:
      onRequest(b.lock, b.atNode, b.fromNode);
      return;
    case Body::K::Token:
      onToken(b.lock, b.atNode);
      return;
    case Body::K::Release: {
      NodeState& st = stateOf(b.lock, b.atNode);
      DIVA_CHECK_MSG(st.holderDir == kSelf && st.inUse, "release without holding");
      st.inUse = false;
      grantNext(b.lock, b.atNode, st);
      return;
    }
  }
}

void TreeLockService::send(Body::K k, VarId lock, std::int32_t fromNode,
                           std::int32_t toNode) {
  // A leaf's host is its own processor, so a local request (kSelf) is
  // posted by the requester to itself.
  const NodeId dst = hostOf(toNode, lock);
  const NodeId src = fromNode == kSelf ? dst : hostOf(fromNode, lock);
  net_.post(
      net::Message{src, dst, net::kLockChannel, 0, Body{k, lock, toNode, fromNode}});
}

void TreeLockService::onRequest(VarId lock, std::int32_t node, std::int32_t from) {
  NodeState& st = stateOf(lock, node);
  st.reqQ.push(from);
  if (st.holderDir == kSelf) {
    if (!st.inUse) grantNext(lock, node, st);
    return;
  }
  if (!st.asked) {
    st.asked = true;
    send(Body::K::Request, lock, node, st.holderDir);
  }
}

void TreeLockService::onToken(VarId lock, std::int32_t node) {
  NodeState& st = stateOf(lock, node);
  st.asked = false;
  st.holderDir = kSelf;
  grantNext(lock, node, st);
}

void TreeLockService::grantNext(VarId lock, std::int32_t node, NodeState& st) {
  DIVA_CHECK(st.holderDir == kSelf && !st.inUse);
  if (st.reqQ.empty()) return;
  const std::int32_t next = st.reqQ.front();
  st.reqQ.pop();

  if (next == kSelf) {
    // Local grant: `node` is the requester's leaf, where acquire waits.
    DIVA_CHECK_MSG(st.waiter, "token granted but nobody waits");
    st.inUse = true;
    std::exchange(st.waiter, nullptr)->resolve(true);
    return;
  }

  st.holderDir = next;
  send(Body::K::Token, lock, node, next);
  if (!st.reqQ.empty()) {
    st.asked = true;
    send(Body::K::Request, lock, node, next);
  }
}

void TreeLockService::checkIdle(VarId lock) const {
  const auto it = locks_.find(lock);
  if (it == locks_.end()) return;  // not a lock
  for (const std::int32_t node : it->second.nodes) {  // untouched nodes are idle
    const NodeState& st = states_.at(varNodeKey(lock, node));
    DIVA_CHECK_MSG(st.reqQ.empty(), "pending lock request at tree node " << node);
    DIVA_CHECK_MSG(!st.inUse, "lock still held at tree node " << node);
    DIVA_CHECK_MSG(!st.asked, "dangling lock request at tree node " << node);
    DIVA_CHECK_MSG(!st.waiter, "lock acquire still waiting at tree node " << node);
  }
}

// ===========================================================================
// CentralLockService
// ===========================================================================

CentralLockService::CentralLockService(net::Network& net, Stats& stats,
                                       std::uint64_t seed)
    : net_(net),
      stats_(stats),
      seed_(seed),
      baseProcs_(static_cast<std::uint64_t>(net.numNodes())) {}

NodeId CentralLockService::homeOf(VarId lock) const {
  // The hash modulus is pinned at construction so the mapping never shifts
  // under growth; when the hashed node has left the machine, the manager
  // role falls to the deterministic next member. (Lock state itself is
  // central to the service, so the home only selects message endpoints.)
  return net_.firstMemberFrom(static_cast<NodeId>(
      support::hashBelow(support::hashCombine(seed_, lock, 0x10c4ull), baseProcs_)));
}

void CentralLockService::registerLockFree(VarId lock, NodeId /*creator*/) {
  locks_.try_emplace(lock);
}

sim::Task<void> CentralLockService::acquire(NodeId p, VarId lock) {
  ++stats_.ops.locks;
  sim::OneShot<bool> granted(net_.engine());
  const auto slot = static_cast<std::size_t>(p);
  if (slot >= waiting_.size())
    waiting_.resize(std::max(slot + 1, static_cast<std::size_t>(net_.numNodes())), nullptr);
  for (const Waiter* w = waiting_[slot]; w; w = w->next)
    DIVA_CHECK_MSG(w->lock != lock, "processor already acquiring this lock");
  Waiter self{lock, &granted, waiting_[slot]};
  waiting_[slot] = &self;

  Body b;
  b.k = Body::K::Request;
  b.lock = lock;
  b.requester = p;
  net_.post(net::Message{p, homeOf(lock), net::kLockChannel, 0, b});

  (void)co_await granted.wait();  // the Grant unlinked `self`
  co_return;
}

sim::Task<void> CentralLockService::release(NodeId p, VarId lock) {
  Body b;
  b.k = Body::K::Release;
  b.lock = lock;
  b.requester = p;
  net::Message m{p, homeOf(lock), net::kLockChannel, 0, b};  // see TreeLockService
  co_await net_.send(std::move(m));
  co_return;
}

void CentralLockService::handleMessage(net::Message&& msg) {
  Body b = msg.take<Body>();
  switch (b.k) {
    case Body::K::Request: {
      LockState& st = locks_.at(b.lock);
      if (st.held) {
        st.queue.push(b.requester);
        return;
      }
      st.held = true;
      grant(b.lock, msg.dst, b.requester);
      return;
    }
    case Body::K::Grant: {
      const auto slot = static_cast<std::size_t>(msg.dst);
      Waiter** link = slot < waiting_.size() ? &waiting_[slot] : nullptr;
      while (link && *link && (*link)->lock != b.lock) link = &(*link)->next;
      DIVA_CHECK_MSG(link && *link, "grant without a waiter");
      Waiter* const w = *link;
      *link = w->next;
      w->granted->resolve(true);
      return;
    }
    case Body::K::Release: {
      LockState& st = locks_.at(b.lock);
      DIVA_CHECK_MSG(st.held, "release of a free lock");
      if (st.queue.empty()) {
        st.held = false;
        return;
      }
      const NodeId next = st.queue.front();
      st.queue.pop();
      grant(b.lock, msg.dst, next);
      return;
    }
  }
}

void CentralLockService::grant(VarId lock, NodeId home, NodeId to) {
  Body g;
  g.k = Body::K::Grant;
  g.lock = lock;
  net_.post(net::Message{home, to, net::kLockChannel, 0, g});
}

void CentralLockService::checkIdle(VarId lock) const {
  const auto it = locks_.find(lock);
  if (it == locks_.end()) return;
  DIVA_CHECK_MSG(!it->second.held, "lock " << lock << " still held");
  DIVA_CHECK_MSG(it->second.queue.empty(), "lock " << lock << " has waiters");
}

}  // namespace diva
