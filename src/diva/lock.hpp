#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "diva/stats.hpp"
#include "diva/types.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "support/small_vec.hpp"

namespace diva {

using net::NodeId;

/// FIFO of lock requesters (tree nodes or processors) over inline storage.
/// A queue that drains keeps the capacity it reached, so requests that
/// queue and leave again allocate nothing in steady state; a queue longer
/// than the inline room spills to the heap once.
class RequestQueue {
 public:
  bool empty() const { return head_ == slots_.size(); }
  std::int32_t front() const { return slots_[head_]; }
  void push(std::int32_t from);
  void pop();

 private:
  support::SmallVec<std::int32_t, 6> slots_;
  std::uint32_t head_ = 0;  ///< slots_[head_..] are queued, oldest first
};

/// Mutual exclusion on global variables. Two implementations mirror the
/// two data strategies: token passing on the variable's access tree
/// (Raymond's algorithm — requests and the token travel tree edges, so
/// lock traffic has the same topological locality as the data), and a
/// centralized manager at the variable's home.
class LockService {
 public:
  virtual ~LockService() = default;
  virtual sim::Task<void> acquire(NodeId p, VarId lock) = 0;
  virtual sim::Task<void> release(NodeId p, VarId lock) = 0;
  virtual void registerLockFree(VarId lock, NodeId creator) = 0;
  virtual void handleMessage(net::Message&& msg) = 0;
  /// Quiescence check: no holder, no queued requests. Throws CheckError
  /// otherwise; `Runtime::checkAllInvariants` runs it on every variable.
  virtual void checkIdle(VarId lock) const = 0;
};

/// Raymond's token-based algorithm on the access tree of the lock's
/// variable. Every tree node keeps a pointer toward the token and a FIFO
/// of pending requests; requests climb toward the token, the token flips
/// pointers as it travels back. O(tree depth) messages per acquisition,
/// with locality: contenders in one cluster resolve within it.
class TreeLockService final : public LockService {
 public:
  /// `tree` is the strategy's cluster tree (lock traffic travels the same
  /// access trees as the data); `embedding`/`seed` select the same
  /// per-variable hosts.
  TreeLockService(net::Network& net, Stats& stats, const net::ClusterTree& tree,
                  net::EmbeddingKind embedding, std::uint64_t seed);

  sim::Task<void> acquire(NodeId p, VarId lock) override;
  sim::Task<void> release(NodeId p, VarId lock) override;
  void registerLockFree(VarId lock, NodeId creator) override;
  void handleMessage(net::Message&& msg) override;
  void checkIdle(VarId lock) const override;

  /// Rebind the service to a new cluster tree after a reconfiguration
  /// epoch. Requires every lock idle (called at the quiescent commit
  /// point): token state is rebuilt lazily with each token back at its
  /// lock's anchor leaf; anchors whose processor left the machine move
  /// to the deterministic next member.
  void rebuild(const net::ClusterTree& tree);

 private:
  static constexpr std::int32_t kSelf = -2;  ///< holderDir: token is here / request is local

  struct NodeState {
    std::int32_t holderDir = kSelf;   ///< tree node toward token; kSelf if here
    bool asked = false;               ///< a request toward the token is outstanding
    bool inUse = false;               ///< leaf only: the local app holds the token
    /// Pending requests (a neighbour tree node, or kSelf). A node queues
    /// at most one request per tree neighbour plus its own: a neighbour
    /// asks again only after the token it asked for has passed it. So the
    /// queue never holds more than degree + 1 entries, which the inline
    /// room covers for every node of a 4-ary tree.
    RequestQueue reqQ;
    /// Leaf only: the local acquire waiting for the token.
    sim::OneShot<bool>* waiter = nullptr;
  };
  struct Body {
    enum class K : std::uint8_t { Request, Token, Release } k = K::Request;
    VarId lock = kInvalidVar;
    std::int32_t atNode = -1;
    std::int32_t fromNode = kSelf;
  };
  static_assert(net::MessageBody::kInline<Body>, "lock bodies must travel inline");

  /// Per-lock bookkeeping, created at registration.
  struct LockRecord {
    /// Processor whose leaf holds the token when the lock's state is
    /// (re)built lazily — the creator, until reconfiguration moves it.
    NodeId anchor = -1;
    /// Tree nodes with an entry in `states_`, so checkIdle visits only them.
    std::vector<std::int32_t> nodes;
  };

  /// The state of `lock` at tree node `node`, created on first use with
  /// its holder pointer aimed at the anchor's leaf.
  NodeState& stateOf(VarId lock, std::int32_t node);
  std::int32_t defaultHolderDir(NodeId anchor, std::int32_t node) const;
  void onRequest(VarId lock, std::int32_t node, std::int32_t from);
  void onToken(VarId lock, std::int32_t node);
  /// Pass the token held (and not in use) at `node` to its next requester.
  void grantNext(VarId lock, std::int32_t node, NodeState& st);
  /// Posts a `k` message for `lock` over the tree edge fromNode → toNode
  /// (fromNode == kSelf: the local app's request at leaf toNode).
  void send(Body::K k, VarId lock, std::int32_t fromNode, std::int32_t toNode);
  NodeId hostOf(std::int32_t node, VarId lock) const;

  net::Network& net_;
  Stats& stats_;
  const net::ClusterTree* tree_;  ///< swapped by rebuild() across epochs
  net::EmbeddingKind embedding_;
  std::uint64_t seed_;
  /// Raymond state of every (lock, tree node) touched since the last
  /// rebuild, keyed by `varNodeKey`.
  std::unordered_map<std::uint64_t, NodeState> states_;
  std::unordered_map<VarId, LockRecord> locks_;
};

/// Centralized lock manager at the variable's (random) home processor —
/// the natural companion of the fixed home strategy.
class CentralLockService final : public LockService {
 public:
  CentralLockService(net::Network& net, Stats& stats, std::uint64_t seed);

  sim::Task<void> acquire(NodeId p, VarId lock) override;
  sim::Task<void> release(NodeId p, VarId lock) override;
  void registerLockFree(VarId lock, NodeId creator) override;
  void handleMessage(net::Message&& msg) override;
  void checkIdle(VarId lock) const override;

 private:
  struct Body {
    enum class K : std::uint8_t { Request, Grant, Release } k = K::Request;
    VarId lock = kInvalidVar;
    NodeId requester = -1;
  };
  static_assert(net::MessageBody::kInline<Body>, "lock bodies must travel inline");
  struct LockState {
    bool held = false;
    RequestQueue queue;  ///< processors waiting for the lock
  };
  /// An acquire waiting for its grant. It lives in the acquiring
  /// coroutine's frame and is chained from its processor's slot of
  /// `waiting_` (usually alone: a processor runs one program).
  struct Waiter {
    VarId lock = kInvalidVar;
    sim::OneShot<bool>* granted = nullptr;
    Waiter* next = nullptr;
  };

  NodeId homeOf(VarId lock) const;
  /// Posts the Grant of `lock` from its `home` to processor `to`.
  void grant(VarId lock, NodeId home, NodeId to);

  net::Network& net_;
  Stats& stats_;
  std::uint64_t seed_;
  /// Home-hash modulus, pinned at construction: the machine may grow, but
  /// the base hash mapping must stay a pure function of the lock id.
  std::uint64_t baseProcs_;
  std::unordered_map<VarId, LockState> locks_;
  /// Per-processor chain of waiting acquires, sized on first use.
  std::vector<Waiter*> waiting_;
};

}  // namespace diva
