#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "diva/cache.hpp"
#include "diva/deferred_work.hpp"
#include "diva/stats.hpp"
#include "diva/strategy.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/sync.hpp"
#include "support/flat_map.hpp"
#include "support/small_vec.hpp"

namespace diva {

/// The access tree strategy (paper §2, based on Maggs et al., FOCS'97).
///
/// Every variable owns an *access tree* — a copy of the topology's
/// hierarchical cluster tree, embedded into the network (each tree node
/// is hosted by a processor of its cluster). The processors holding a
/// copy of the variable always form a connected component of the access
/// tree:
///
///  * READ: the requesting leaf climbs the tree to the nearest node
///    holding a copy; the value returns along the tree path to the
///    requester's entry leaf, depositing a copy on every node of it.
///  * WRITE: the new value travels to the nearest copy; an invalidation
///    multicast (acknowledged) destroys every other copy; the updated
///    value returns the same way, again depositing copies.
///
/// Data tracking uses one state per (variable, tree node):
///   Copy          — this tree node holds a copy;
///   Down(child)   — no copy here, the copy component lies in `child`'s
///                   subtree (maintained on the whole path from the root
///                   to the component's topmost node);
///   Up (default)  — no information, ask the parent.
/// The component's topmost node is an ancestor of all copy holders, so
/// "climb while Up, then descend along Down to the first Copy" always
/// finds the nearest copy in the tree metric.
///
/// All tree-edge messages travel along the topology's deterministic
/// shortest paths between the host processors; tree nodes co-hosted on
/// one processor communicate by (cheap) local calls, so flatter trees
/// trade congestion for fewer startups — the arity/leaf-size parameters
/// below are the paper's ℓ-k-ary variants.
class AccessTreeStrategy final : public Strategy {
 public:
  struct Params {
    int arity = 4;                        ///< ℓ ∈ {2, 4, 16}
    int leafSize = 1;                     ///< k (1 = pure ℓ-ary)
    net::EmbeddingKind embedding = net::EmbeddingKind::Regular;
    std::uint64_t seed = 1;
  };

  AccessTreeStrategy(net::Network& net, Stats& stats, std::vector<NodeCache>& caches,
                     Params params);

  /// Display name in the paper's nomenclature: "2-ary", "4-ary",
  /// "16-ary" for pure decompositions and "2-4-ary", "4-16-ary", ... for
  /// k-terminated ones (each followed by " access tree").
  static std::string variantName(int arity, int leafSize);

  std::string name() const override;
  sim::Task<Value> read(NodeId p, VarId x) override;
  sim::Task<void> write(NodeId p, VarId x, Value v) override;
  void registerVarFree(VarId x, NodeId owner, Value init) override;
  void registerVar(VarId x, NodeId owner, Value init) override;
  void destroyVarFree(VarId x) override;
  Value peek(VarId x) const override;
  void checkInvariants(VarId x) const override;
  void handleMessage(net::Message&& msg) override;

  /// The cluster tree every access tree copies (built from the machine
  /// topology's decompose()). After a reconfiguration epoch this is the
  /// *current* tree — variables still parked on a predecessor tree keep
  /// their own context until they migrate (see onReconfig).
  const net::ClusterTree& tree() const {
    return *ctxs_[static_cast<std::size_t>(cur_)];
  }
  const Params& params() const { return params_; }

  /// Try to evict `x` from processor `p`'s cache if the tree invariants
  /// allow it (the copy is a fringe node of its component and not the
  /// last copy). Returns true if evicted.
  bool tryEvict(NodeId p, VarId x) override;

  void onNodeDown(NodeId p) override;
  void onReconfig() override;

 private:
  /// Per-(variable, tree-node) protocol state, held inline in a slot of
  /// nodeStates_. Like every FlatMap value it may move on any insert into
  /// or erase from that table, so no reference to it is held across one.
  struct TreeState {
    enum class Kind : std::uint8_t { Up, Down, Copy };
    Kind kind = Kind::Up;
    bool parentCopy = false;         ///< parent holds a copy
    /// Invalidation relay: flood edges this node still waits on before it
    /// acknowledges toward `relayAckTo` (0 = not relaying).
    std::uint16_t relayAcks = 0;
    std::int32_t downChild = -1;     ///< tree node toward the component (Kind::Down)
    std::uint32_t childCopyMask = 0; ///< children (by indexInParent) holding copies
    std::int32_t relayAckTo = -1;    ///< tree node to ack once our flood subtree is done
    std::uint32_t listPos = 0;       ///< index of this node in VarState::nodes

    bool isDefault() const {
      return kind == Kind::Up && childCopyMask == 0 && !parentCopy && relayAcks == 0;
    }
  };

  /// Coordinator state of an in-flight write's invalidation multicast.
  struct InvalCoord {
    int pendingAcks = 0;
    VarId var = kInvalidVar;
    std::uint64_t txn = 0;
    NodeId requester = -1;
    std::int32_t server = -1;  ///< the coordinating tree node (holds the nearest copy)
    Value value;
  };

  /// Per-variable state, heap-allocated behind states_ so its address —
  /// and the generation counter cache entries point at — stays fixed
  /// while the table moves its slots.
  struct VarState {
    /// The tree nodes that have a slot in nodeStates_, in no particular
    /// (but deterministic) order; each slot's listPos indexes this list.
    support::SmallVec<std::int32_t, 6> nodes;
    std::optional<InvalCoord> coord;  ///< at most one write in flight per variable
    int relays = 0;                   ///< tree nodes with relayAcks > 0
    /// Tree context (index into ctxs_) this variable's access tree lives
    /// on. Equals the strategy's current context except during a
    /// reconfiguration handoff window, when a busy variable keeps
    /// operating on its predecessor tree until it migrates.
    int ctx = 0;
    /// Reads/writes currently in flight anywhere in the system. While
    /// non-zero the variable's copies are not eligible for replacement
    /// (a transaction's path deposits reference them).
    int activeOps = 0;
    /// Version of the last committed write. Read responses carry the
    /// version of the value they serve; a deposit whose version is no
    /// longer current is skipped (the reader still gets the value, it
    /// just leaves no copy behind) — this is what makes reads racing a
    /// concurrent write safe: the read linearizes before the write and
    /// cannot leave a stale copy that survives the write's invalidation.
    std::uint32_t committedVersion = 0;
    /// Refusal-memo generation, drawn from lastGeneration_. Renewed by
    /// every event that can change whether `x` is evictable anywhere:
    /// registration, postClimb, retire, reseed, a successful eviction,
    /// and the handling of each protocol message for `x` (at entry and
    /// at exit). A cache entry refused at the current generation is
    /// refused again without a check: the entry points at this counter
    /// (NodeCache::Entry::refusedGen). That pointer never dangles: every
    /// access-tree cache entry lists at least one copy node (clearCopy
    /// erases it with its last one), and destroyVarFree and reseed clear
    /// every copy, so all of `x`'s entries are gone before its VarState.
    std::uint64_t generation = 0;
  };

  /// Protocol message (one fat struct keeps dispatch trivial).
  struct AtBody {
    enum class K : std::uint8_t {
      Climb,     ///< read/write request walking the tree
      Data,      ///< value travelling to the requester's leaf, depositing copies
      Inval,     ///< invalidation flood edge
      InvalAck,  ///< flood acknowledgement edge
      Mark,      ///< creation: mark Down pointers on the root path
      CopyDrop,  ///< eviction: neighbour lost its copy
      Recover,   ///< repair traffic: salvage/invalidate after a crash
      Migrate,   ///< migration traffic: tree-to-tree handoff across an epoch
    };
    K k = K::Climb;
    bool isWrite = false;
    bool descending = false;
    bool ackHadCopy = true;      ///< InvalAck: sender actually held a copy
    VarId var = kInvalidVar;
    std::uint64_t txn = 0;
    NodeId requester = -1;       ///< Climb/Data: the processor whose leaf entered the tree
    std::int32_t atNode = -1;    ///< tree node this message is addressed to
    std::int32_t fromNode = -1;  ///< tree-edge origin (Data: the neighbour toward the server)
    int retries = 0;
    std::uint32_t version = 0;   ///< Data: committed version of `value`
    /// Tree context the tree-node ids in this message refer to. Carried
    /// so cost-only messages (Mark, CopyDrop) that survive a migration
    /// can be routed on — or recognised as stale — without consulting
    /// the (possibly already migrated or destroyed) variable state.
    std::int32_t ctx = 0;
    Value value;
  };
  static_assert(net::MessageBody::kInline<AtBody>, "protocol bodies must travel inline");

  // --- protocol engine ---
  // Handlers take the variable's state and `at`, the processor the
  // message was delivered to. Every message is posted to the host of its
  // `atNode` on the tree context it carries: forward() and markRootPath
  // compute that host, and postClimb posts to the processor whose
  // (single-processor) leaf it enters. Climb, Data, Inval and InvalAck
  // only travel while their variable is busy, which defers any migration,
  // so that context is the variable's own. Hence `at` == hostOf(atNode),
  // and no handler recomputes it.
  /// The one request entry of read and write: registers transaction
  /// `txn`'s issue (activeOps) and posts its Climb from `p`'s leaf — or,
  /// when `p` joined after `x`'s tree was built, from a proxy leaf.
  void postClimb(NodeId p, VarId x, std::uint64_t txn, bool isWrite, Value v);
  /// Retires transaction `txn` on `x` once its coroutine resumes.
  void retire(std::uint64_t txn, VarId x);
  void onClimb(VarState& vs, NodeId at, AtBody&& b);
  void onData(VarState& vs, NodeId at, AtBody&& b);
  void onInval(VarState& vs, NodeId at, AtBody&& b);
  void onInvalAck(VarState& vs, NodeId at, AtBody&& b);
  void onMark(NodeId at, AtBody&& b);
  void onCopyDrop(VarState* vs, AtBody&& b);

  void serveAt(VarState& vs, std::int32_t node, NodeId at, AtBody&& b);
  void startInvalidation(VarState& vs, std::int32_t uNode, NodeId at, AtBody&& b);
  /// Commits the write coordinated at tree node c.server, hosted at `at`.
  void finishWrite(VarState& vs, NodeId at, InvalCoord&& c);
  /// Sends the Data response from the serving tree node `server`, hosted
  /// at `at`, along the tree path to `requester`'s leaf.
  void sendData(VarState& vs, NodeId at, VarId x, std::uint64_t txn, NodeId requester,
                bool isWrite, Value v, std::int32_t server);
  void depositCopy(VarState& vs, VarId x, std::int32_t node, NodeId at, const Value& v,
                   std::int32_t towardServer, std::int32_t towardRequester);
  /// Floods Inval from `node` (hosted at `at`, tree context `ctx`) along
  /// every copy edge of `st` except toward `except`; returns the number
  /// of edges flooded.
  int floodInval(VarId x, std::int32_t node, NodeId at, const TreeState& st,
                 std::int32_t except, std::int32_t ctx);
  void sendInvalAck(VarId x, std::int32_t node, NodeId at, std::int32_t to, std::int32_t ctx,
                    bool hadCopy);
  /// Posts `b` from processor `src` (the host of the tree node it leaves)
  /// to the host of `toTreeNode` on the tree context `b` carries.
  void forward(AtBody&& b, NodeId src, std::int32_t toTreeNode, std::uint64_t payloadBytes);
  /// The check behind tryEvict, given `x`'s entry in `p`'s cache: the
  /// callback of the eviction scan (NodeCache::evictUntilFits). Costs one
  /// compare while `x`'s generation still equals the one at which this
  /// entry was last refused, O(copy nodes of `x` at `p`) otherwise.
  bool tryEvict(NodeId p, VarId x, NodeCache::Entry& e);
  void maybeEvictAt(NodeId p);

  // --- state helpers ---
  void renew(VarState& vs) { vs.generation = ++lastGeneration_; }
  /// `x`'s state at `node`, or null (Up) — valid until the next insert
  /// into or erase from nodeStates_.
  TreeState* findState(VarId x, std::int32_t node) {
    return nodeStates_.find(varNodeKey(x, node));
  }
  const TreeState* findState(VarId x, std::int32_t node) const {
    return nodeStates_.find(varNodeKey(x, node));
  }
  VarState* findVar(VarId x) {
    std::unique_ptr<VarState>* vs = states_.find(x);
    return vs ? vs->get() : nullptr;
  }
  const VarState* findVar(VarId x) const {
    const std::unique_ptr<VarState>* vs = states_.find(x);
    return vs ? vs->get() : nullptr;
  }
  VarState& varOf(VarId x) { return *states_.at(x); }
  const VarState& varOf(VarId x) const { return *states_.at(x); }
  /// The state of `x` at `node`, created (Up) on first use.
  TreeState& stateOf(VarState& vs, VarId x, std::int32_t node);
  /// Drops `x`'s slot at `node` if it holds nothing but defaults.
  void eraseIfDefault(VarState& vs, VarId x, std::int32_t node);
  /// Drops every slot of `x` (its list becomes empty).
  void eraseStates(VarState& vs, VarId x);
  /// The cluster tree of a variable's current context: tree-node ids in
  /// its directory state are only meaningful against this tree.
  const net::ClusterTree& treeOf(const VarState& vs) const {
    return *ctxs_[static_cast<std::size_t>(vs.ctx)];
  }
  const net::ClusterTree& treeOf(VarId x) const { return treeOf(varOf(x)); }
  NodeId hostOf(std::int32_t node, VarId x) const {
    return treeOf(x).hostOf(node, x, params_.embedding, params_.seed);
  }
  /// The copy-edge rule: records in `node`'s state `st` whether tree
  /// neighbour `nb` (its parent, or one of its children) holds a copy.
  static void setCopyEdge(const net::ClusterTree& t, TreeState& st, std::int32_t node,
                          std::int32_t nb, bool held);
  static std::uint32_t childBit(const net::ClusterTree& t, std::int32_t child);
  /// Drops tree node `node`'s copy from its host `at`'s cache entry,
  /// erasing the entry with its last copy node.
  void clearCopy(VarId x, std::int32_t node, NodeId at);
  /// Install the one-copy component at `owner`'s leaf and mark the root
  /// path — shared by free registration and reseed.
  void seedComponent(VarState& vs, VarId x, NodeId owner, Value init);
  /// Charge the root-path marking of a component seeded at `owner` as a
  /// real Mark message walking the path hop by hop; false (nothing sent)
  /// on a single-node tree.
  bool markRootPath(VarId x, NodeId owner);
  /// The topmost tree node of `x`'s copy component (it holds the
  /// committed value).
  std::int32_t topCopy(VarId x) const;

  // --- crash repair and epoch migration (docs/faults.md) ---
  // Both wait in deferred_ until the variable is quiet (drainDeferred)
  // and both end in reseed.
  /// First node from `start` on (wrapping) that is up, a member and
  /// covered by tree `t` (a node added after `t` was built has no leaf).
  NodeId liveLeafFrom(const net::ClusterTree& t, NodeId start) const;
  bool varQuiet(const VarState& vs) const;
  void drainDeferred(VarId x);
  /// The one salvage-and-reseed step: wipe `x`'s copy component in sorted
  /// tree-node order (cache LRU order must not depend on hash-map layout),
  /// move `x` to context `ctx`, seed one copy of `v` at `owner` (staling
  /// queued deposits), run `post(wiped hosts)` to post the caller's `h`
  /// traffic, then post the root-path Mark, also charged to `h`.
  template <typename Post>
  void reseed(VarId x, int ctx, NodeId owner, const Value& v, Handoff h, Post&& post);
  /// Posts one cost-only `h` message for `x` on its current context.
  void sendHandoff(Handoff h, VarId x, NodeId src, NodeId dst, std::uint64_t bytes);
  /// Losing part of a copy component can disconnect it, which no local
  /// rule repairs safely: repair reseeds the salvaged committed value at
  /// the crashed host's successor on the variable's own tree.
  void repairVar(VarId x, NodeId deadNode);
  /// An epoch decomposes the *target* shape into a new context; each
  /// variable reseeds onto it at its old topmost host (or that host's
  /// successor if it left), operating on its old tree until then.
  void migrateVar(VarId x);

  net::Network& net_;
  Stats& stats_;
  std::vector<NodeCache>& caches_;
  Params params_;
  /// One tree context per machine shape this strategy has managed: the
  /// cluster tree a variable's tree-node ids refer to. Superseded
  /// contexts stay alive until every variable has migrated off them —
  /// and beyond, since external services may hold references to their
  /// trees. ctxs_[cur_] is the context new variables register on.
  std::vector<std::unique_ptr<net::ClusterTree>> ctxs_;
  int cur_ = 0;
  /// Every registered variable's state. The table owns each VarState
  /// through a pointer, so a VarState's address (and its generation
  /// counter, which cache entries point at) is stable until the variable
  /// is destroyed, however the table's slots move.
  support::FlatMap<std::unique_ptr<VarState>> states_;
  /// The protocol state of every (variable, tree node) that has any,
  /// inline and keyed by varNodeKey; VarState::nodes lists each
  /// variable's slots. Any insert or erase may move every TreeState.
  support::FlatMap<TreeState> nodeStates_;
  support::FlatMap<sim::OneShot<Value>*> pending_;  ///< txn → issuer
  DeferredWork deferred_;
  std::uint64_t nextTxn_ = 1;
  std::uint64_t lastGeneration_ = 0;  ///< strategy-wide; generation 0 is never issued

  static constexpr int kMaxRetries = 64;
};

}  // namespace diva
