#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "diva/cache.hpp"
#include "diva/deferred_work.hpp"
#include "diva/stats.hpp"
#include "diva/strategy.hpp"
#include "net/network.hpp"
#include "sim/sync.hpp"

namespace diva {

/// The fixed home strategy (paper §2): the CC-NUMA-style baseline.
///
/// Every variable is assigned a uniformly random *home* processor which
/// keeps track of the variable's copies and runs the classic ownership
/// scheme (originally for bus-based machines; on a network the home takes
/// the role of the main memory module and invalidates by point-to-point
/// messages instead of bus snooping):
///
///  * the owner of a variable is either a processor or the home;
///  * a write by a non-owner invalidates all copies (home-driven,
///    acknowledged) and transfers ownership to the writer;
///  * a read by a processor without a copy moves a copy from the owner to
///    the home (ownership returns to the home) and a copy to the reader.
///
/// With read-before-write access patterns (true for all three paper
/// applications) this equals a P-ary access tree strategy, which is what
/// makes it the natural comparison point.
class FixedHomeStrategy final : public Strategy {
 public:
  struct Params {
    std::uint64_t seed = 1;
  };

  FixedHomeStrategy(net::Network& net, Stats& stats, std::vector<NodeCache>& caches,
                    Params params);

  std::string name() const override { return "fixed home"; }
  sim::Task<Value> read(NodeId p, VarId x) override;
  sim::Task<void> write(NodeId p, VarId x, Value v) override;
  void registerVarFree(VarId x, NodeId owner, Value init) override;
  void registerVar(VarId x, NodeId owner, Value init) override;
  void destroyVarFree(VarId x) override;
  Value peek(VarId x) const override;
  void checkInvariants(VarId x) const override;
  void handleMessage(net::Message&& msg) override;
  bool tryEvict(NodeId p, VarId x) override;
  void onNodeDown(NodeId p) override;
  void onReconfig() override;

  /// The home processor of a variable: a uniform hash of the id (modulo
  /// the machine's *construction-time* size, so the mapping is a stable
  /// function for the whole run), unless the re-homing map names a
  /// successor — set when the hash home crashed (deterministic
  /// next-live-member rule) or when a reconfiguration epoch migrated the
  /// home onto the current member set.
  NodeId homeOf(VarId x) const;

 private:
  static constexpr NodeId kHomeOwner = -1;  ///< sentinel: home owns the data

  struct HomeEntry {
    NodeId owner = kHomeOwner;
    std::vector<NodeId> copyHolders;  ///< processors with a valid copy (home excluded)
    bool busy = false;                ///< a transaction is being served
    std::deque<net::Message> queue;   ///< deferred transactions
    // In-flight write coordination:
    int pendingInvalAcks = 0;
    std::uint64_t writeTxn = 0;
    NodeId writer = -1;
  };

  struct FhBody {
    enum class K : std::uint8_t {
      ReadReq,    ///< requester → home
      Fetch,      ///< home → owner
      FetchData,  ///< owner → home (carries the value)
      Data,       ///< home → requester (carries the value)
      WriteReq,   ///< requester → home
      Inval,      ///< home → copy holder
      InvalAck,   ///< copy holder → home
      WriteAck,   ///< home → requester (ownership granted)
      Reg,        ///< creator → home (measured variable creation)
      Drop,       ///< holder → home: copy evicted (LRU replacement)
      Recover,    ///< repair traffic: directory/value salvage after a crash
      Migrate,    ///< migration traffic: home handoff across a reconfig epoch
    };
    K k = K::ReadReq;
    VarId var = kInvalidVar;
    std::uint64_t txn = 0;
    NodeId requester = -1;
    Value value;
  };
  static_assert(net::MessageBody::kInline<FhBody>, "protocol bodies must travel inline");

  struct PendingOp {
    sim::OneShot<Value>* done = nullptr;
    VarId var = kInvalidVar;   ///< lets repair defer until the op retires
    NodeId issuer = -1;        ///< lets repair scrub a mid-op crasher's copy
  };

  /// Posts `p`'s `k` message (a request of transaction `txn`, or a
  /// cost-only Reg/Drop notice) to `x`'s home.
  void sendToHome(FhBody::K k, NodeId p, VarId x, std::uint64_t txn = 0);
  void serveAtHome(net::Message&& msg);
  /// Starts the transaction in `msg` on an idle home entry. Returns true
  /// when it completed synchronously (the caller must then run
  /// finishTransaction to drain the queue); false when it parked waiting
  /// for a Fetch or invalidation acks.
  bool processTransaction(HomeEntry& he, net::Message&& msg);
  void finishTransaction(VarId x);
  /// Completes the write in flight: ownership passes to its writer.
  void grantWrite(HomeEntry& he, VarId x, NodeId home);
  /// The check behind tryEvict, given `x`'s entry in `p`'s cache: the
  /// callback of the eviction scan (NodeCache::evictUntilFits).
  bool tryEvict(NodeId p, VarId x, NodeCache::Entry& e);
  void maybeEvictAt(NodeId p);
  void sendBody(NodeId src, NodeId dst, FhBody&& b, std::uint64_t payloadBytes);
  void addCopyHolder(HomeEntry& he, NodeId p);
  void dropCopyHolder(HomeEntry& he, NodeId p);

  // Repair and migration wait in deferred_ until the variable is quiet
  // (drainDeferred runs at every transaction or op retirement).
  bool varQuiet(VarId x) const;
  void drainDeferred(VarId x);
  void putHomeCopy(NodeId home, VarId x, const Value& v);  ///< held, not owned
  /// Ownership reverts from a dead or retired owner to the home, which
  /// reinstalls the salvaged value `v`; the transfer is charged to `h`.
  void revertToHome(HomeEntry& he, VarId x, const Value& v, Handoff h);
  /// Posts one cost-only `h` message for `x`.
  void sendHandoff(Handoff h, NodeId src, NodeId dst, VarId x, std::uint64_t bytes);

  // Crash repair (docs/faults.md). A repair scrubs one dead node from one
  // variable: re-home if the hash home died, recover ownership to the
  // home if the owner died, drop dead copies.
  void repairVar(VarId x, NodeId deadNode);

  // Epoch migration (docs/faults.md "Reconfiguration"). After a
  // structural epoch, every variable's home target is re-hashed over the
  // *member* set; a variable whose target moved migrates its directory
  // and (when home-owned) its authoritative copy via a cost-charged
  // Migrate message. While a busy variable's migration is deferred,
  // requests to the old home are forwarded (the serveAtHome mismatch
  // path).
  NodeId memberHomeOf(VarId x) const;
  void assignHome(VarId x);
  bool varNeedsEpochWork(VarId x) const;
  void migrateEpochVar(VarId x);
  void migrateVar(VarId x, NodeId target);

  net::Network& net_;
  Stats& stats_;
  std::vector<NodeCache>& caches_;
  Params params_;
  /// Home-hash modulus, pinned at construction: the machine may grow, but
  /// the base hash mapping must stay a pure function of the variable id.
  std::uint64_t baseProcs_;
  std::unordered_map<VarId, HomeEntry> homes_;
  std::unordered_map<std::uint64_t, PendingOp> pending_;
  /// Vars whose hash home crashed or was migrated across an epoch.
  std::unordered_map<VarId, NodeId> rehome_;
  DeferredWork deferred_;
  std::uint64_t nextTxn_ = 1;
};

}  // namespace diva
