#pragma once

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "diva/barrier.hpp"
#include "diva/cache.hpp"
#include "diva/lock.hpp"
#include "diva/machine.hpp"
#include "diva/strategy.hpp"
#include "net/topology.hpp"

namespace diva {

enum class StrategyKind { AccessTree, FixedHome };

/// Everything needed to instantiate one data-management configuration.
/// Validated by the Runtime constructor, which throws a descriptive
/// CheckError on invalid parameters (bad arity/leafSize, or a topology
/// spec that does not match the machine) instead of misbehaving later.
struct RuntimeConfig {
  StrategyKind kind = StrategyKind::AccessTree;
  int arity = 4;      ///< access tree: ℓ ∈ {2, 4, 16}
  int leafSize = 1;   ///< access tree: k (ℓ-k-ary variants), 1 ≤ k ≤ 32
  net::EmbeddingKind embedding = net::EmbeddingKind::Regular;
  std::uint64_t seed = 1;
  std::uint64_t cacheCapacityBytes = ~0ull;  ///< per-processor memory module
  /// Optional: the machine shape this configuration was written for.
  /// When specified it must equal the machine's topology (fail fast on
  /// mismatched experiment setups); left unspecified it matches any.
  net::TopologySpec topology{};

  static RuntimeConfig accessTree(int arity = 4, int leafSize = 1,
                                  std::uint64_t seed = 1) {
    RuntimeConfig c;
    c.kind = StrategyKind::AccessTree;
    c.arity = arity;
    c.leafSize = leafSize;
    c.seed = seed;
    return c;
  }
  static RuntimeConfig fixedHome(std::uint64_t seed = 1) {
    RuntimeConfig c;
    c.kind = StrategyKind::FixedHome;
    c.seed = seed;
    return c;
  }
  /// Builder-style: pin this config to a machine shape.
  RuntimeConfig on(const net::TopologySpec& spec) const {
    RuntimeConfig c = *this;
    c.topology = spec;
    return c;
  }
};

/// The DIVA library facade: fully transparent access to global variables
/// from node programs, plus barriers and locks. One Runtime serves one
/// Machine; node programs are coroutines that co_await its operations.
class Runtime {
 public:
  Runtime(Machine& machine, RuntimeConfig config);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- data management -----------------------------------------------------
  /// Read variable `x` from processor `p` (transparent caching).
  sim::Task<Value> read(NodeId p, VarId x);

  /// Non-suspending read fast path: returns the cached value (charging
  /// the local lookup) or nullptr on a miss — in which case the caller
  /// must fall back to `read`. Lets hot loops (e.g. the Barnes–Hut force
  /// walk, 99% cache hits) avoid a coroutine frame per access.
  const Value* tryReadLocal(NodeId p, VarId x) {
    NodeCache::Entry* e = caches_[p].touch(x);
    if (!e) return nullptr;
    ++machine_.stats.ops.reads;
    ++machine_.stats.ops.readHits;
    machine_.net.reserveCpu(p, machine_.net.cost().cacheHitUs);
    return &e->value;
  }
  /// Write variable `x` from processor `p`; completes after all other
  /// copies are invalidated and the new value is installed at `p`.
  sim::Task<void> write(NodeId p, VarId x, Value v);

  // --- variable lifetime ---------------------------------------------------
  /// Create a variable during (unmeasured) setup: zero simulated cost.
  VarId createVarFree(NodeId owner, Value init, bool withLock = false);
  /// Create a variable during measured execution (costs the registration
  /// protocol, e.g. root-path marking for access trees). The creator does
  /// not wait: the registration traffic is posted as cost-only messages.
  VarId createVar(NodeId owner, Value init, bool withLock = false);
  /// Remove a dead variable (simulator memory hygiene; zero cost).
  void destroyVarFree(VarId x);

  // --- synchronization -----------------------------------------------------
  sim::Task<void> barrier(NodeId p);
  sim::Task<void> lock(NodeId p, VarId x);
  sim::Task<void> unlock(NodeId p, VarId x);

  // --- reconfiguration (docs/faults.md "Reconfiguration") ------------------
  /// Commit the pending reconfiguration epoch at a quiescent point: severs
  /// retiring links (installing the target topology in the network) and
  /// rebuilds the lock and barrier trees over it. Idempotent — calling it
  /// with no epoch pending (or twice for one epoch) is a no-op, so
  /// drivers can call it unconditionally between phases. The strategy's
  /// own state migration runs earlier, when the epoch fires (onReconfig);
  /// by quiescence every deferred migration has drained.
  void completeReconfig();

  // --- local compute accounting -------------------------------------------
  /// Charge `us` µs of application compute on `p`'s CPU without
  /// suspending (the reservation delays p's subsequent operations).
  void chargeCompute(NodeId p, double us) {
    if (us <= 0) return;
    machine_.net.reserveCpu(p, us);
    machine_.stats.addCompute(us);
  }

  // --- introspection ---------------------------------------------------
  Value peek(VarId x) const { return strategy_->peek(x); }
  void checkInvariants(VarId x) const { strategy_->checkInvariants(x); }
  /// Strategy invariants and lock idleness of every live variable.
  void checkAllInvariants() const;
  Strategy& strategy() { return *strategy_; }
  const Strategy& strategy() const { return *strategy_; }
  std::string strategyName() const { return strategy_->name(); }
  Machine& machine() { return machine_; }
  Stats& stats() { return machine_.stats; }
  const RuntimeConfig& config() const { return config_; }
  NodeCache& cacheOf(NodeId p) { return caches_[p]; }
  std::size_t numLiveVars() const { return liveVars_.size(); }

 private:
  /// Give nodes [handledProcs_, n) the protocol, sync and lock handlers.
  void installHandlers(int n);
  void onReconfigEpoch();

  Machine& machine_;
  RuntimeConfig config_;
  std::vector<NodeCache> caches_;
  std::unique_ptr<Strategy> strategy_;
  std::unique_ptr<BarrierService> barrier_;
  std::unique_ptr<LockService> locks_;
  TreeLockService* treeLocks_ = nullptr;  ///< typed view of locks_ (rebuild)
  std::unordered_set<VarId> liveVars_;
  VarId nextVar_ = 1;
  int livenessToken_ = -1;  ///< network liveness listener, removed in ~Runtime
  int reconfigToken_ = -1;  ///< network reconfiguration listener
  int handledProcs_ = 0;    ///< nodes with channel handlers installed
  int committedEpoch_ = 0;  ///< last epoch completeReconfig() committed
};

}  // namespace diva
