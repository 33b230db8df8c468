#include "diva/runtime.hpp"

#include "diva/access_tree_strategy.hpp"
#include "diva/fixed_home_strategy.hpp"

namespace diva {

Runtime::Runtime(Machine& machine, RuntimeConfig config)
    : machine_(machine), config_(config) {
  // Fail fast on configurations that would otherwise misbehave deep
  // inside the protocol (or silently measure the wrong machine).
  DIVA_CHECK_MSG(net::isSupportedArity(config.arity),
                 "RuntimeConfig: arity must be 2, 4 or 16 (got " << config.arity << ")");
  DIVA_CHECK_MSG(config.leafSize >= 1,
                 "RuntimeConfig: leafSize must be positive (got " << config.leafSize
                                                                  << ")");
  DIVA_CHECK_MSG(config.leafSize <= 32,
                 "RuntimeConfig: leafSize must be <= 32 — access-tree child-copy "
                 "masks are 32-bit (got "
                     << config.leafSize << ")");
  if (config.topology.specified()) {
    DIVA_CHECK_MSG(config.topology == machine.topo().spec(),
                   "RuntimeConfig topology " << config.topology.describe()
                                             << " does not match machine topology "
                                             << machine.topo().name());
  }

  caches_.reserve(static_cast<std::size_t>(machine.numProcs()));
  for (int i = 0; i < machine.numProcs(); ++i)
    caches_.emplace_back(config.cacheCapacityBytes);

  if (config.kind == StrategyKind::AccessTree) {
    auto at = std::make_unique<AccessTreeStrategy>(
        machine.net, machine.stats, caches_,
        AccessTreeStrategy::Params{config.arity, config.leafSize, config.embedding,
                                   config.seed});
    // Locks travel the same access trees as the data.
    auto tl = std::make_unique<TreeLockService>(machine.net, machine.stats, at->tree(),
                                                config.embedding, config.seed);
    treeLocks_ = tl.get();
    locks_ = std::move(tl);
    strategy_ = std::move(at);
  } else {
    strategy_ = std::make_unique<FixedHomeStrategy>(
        machine.net, machine.stats, caches_, FixedHomeStrategy::Params{config.seed});
    locks_ = std::make_unique<CentralLockService>(machine.net, machine.stats,
                                                  config.seed);
  }
  barrier_ = std::make_unique<BarrierService>(machine.net, machine.stats, config.seed);

  // Crash/recover transitions drive the strategy's protocol repair
  // (docs/faults.md); never fires on fault-free runs.
  livenessToken_ = machine.net.addLivenessListener([this](NodeId n, bool up) {
    if (!up) strategy_->onNodeDown(n);
  });

  installHandlers(machine.numProcs());

  // Structural epochs (add/remove node or link, docs/faults.md
  // "Reconfiguration"); never fires on fixed-shape runs.
  reconfigToken_ = machine.net.addReconfigListener([this] { onReconfigEpoch(); });
}

Runtime::~Runtime() {
  if (livenessToken_ >= 0) machine_.net.removeLivenessListener(livenessToken_);
  if (reconfigToken_ >= 0) machine_.net.removeReconfigListener(reconfigToken_);
}

void Runtime::installHandlers(int n) {
  for (NodeId p = handledProcs_; p < n; ++p) {
    machine_.net.setHandler(p, net::kProtocolChannel,
                            [this](net::Message&& m) { strategy_->handleMessage(std::move(m)); });
    machine_.net.setHandler(p, net::kSyncChannel,
                            [this](net::Message&& m) { barrier_->handleMessage(std::move(m)); });
    machine_.net.setHandler(p, net::kLockChannel,
                            [this](net::Message&& m) { locks_->handleMessage(std::move(m)); });
  }
  handledProcs_ = n;
}

void Runtime::onReconfigEpoch() {
  // Equip any nodes that just joined: a cold cache plus the runtime's
  // channel handlers, so protocol, barrier and lock traffic can target
  // them from this instant on.
  const int n = machine_.net.numNodes();
  for (int i = static_cast<int>(caches_.size()); i < n; ++i)
    caches_.emplace_back(config_.cacheCapacityBytes);
  installHandlers(n);

  // The strategy migrates its management state onto the new shape's tree
  // (deferring busy variables; forwarding serves them meanwhile).
  strategy_->onReconfig();
}

void Runtime::completeReconfig() {
  const int epoch = machine_.net.reconfigEpoch();
  if (epoch == committedEpoch_) return;
  committedEpoch_ = epoch;
  // Sever retiring links first so the lock/barrier trees are rebuilt over
  // the committed (target) topology.
  machine_.net.commitReconfig();
  if (treeLocks_)
    treeLocks_->rebuild(static_cast<const AccessTreeStrategy&>(*strategy_).tree());
  barrier_->rebuild();
}

sim::Task<Value> Runtime::read(NodeId p, VarId x) {
  ++machine_.stats.ops.reads;
  machine_.net.reserveCpu(p, machine_.net.cost().cacheHitUs);
  if (NodeCache::Entry* e = caches_[p].touch(x)) {
    ++machine_.stats.ops.readHits;
    co_return e->value;
  }
  co_return co_await strategy_->read(p, x);
}

sim::Task<void> Runtime::write(NodeId p, VarId x, Value v) {
  ++machine_.stats.ops.writes;
  machine_.net.reserveCpu(p, machine_.net.cost().cacheHitUs);
  co_await strategy_->write(p, x, std::move(v));
}

VarId Runtime::createVarFree(NodeId owner, Value init, bool withLock) {
  const VarId x = nextVar_++;
  strategy_->registerVarFree(x, owner, std::move(init));
  if (withLock) locks_->registerLockFree(x, owner);
  liveVars_.insert(x);
  return x;
}

VarId Runtime::createVar(NodeId owner, Value init, bool withLock) {
  const VarId x = nextVar_++;
  liveVars_.insert(x);
  if (withLock) locks_->registerLockFree(x, owner);
  strategy_->registerVar(x, owner, std::move(init));
  return x;
}

void Runtime::destroyVarFree(VarId x) {
  strategy_->destroyVarFree(x);
  liveVars_.erase(x);
}

sim::Task<void> Runtime::barrier(NodeId p) { return barrier_->arrive(p); }

sim::Task<void> Runtime::lock(NodeId p, VarId x) { return locks_->acquire(p, x); }

sim::Task<void> Runtime::unlock(NodeId p, VarId x) { return locks_->release(p, x); }

void Runtime::checkAllInvariants() const {
  for (VarId x : liveVars_) {
    strategy_->checkInvariants(x);
    locks_->checkIdle(x);
  }
}

}  // namespace diva
