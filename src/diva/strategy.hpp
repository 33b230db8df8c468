#pragma once

#include <string>

#include "diva/types.hpp"
#include "net/message.hpp"
#include "sim/task.hpp"

namespace diva {

using net::NodeId;

/// A dynamic data management strategy: decides how many copies of each
/// global variable exist, where they are placed, and how consistency is
/// maintained. The two implementations are the paper's subject (access
/// tree strategy) and its baseline (fixed home strategy).
///
/// The contract seen by the runtime:
///  * `read` returns the variable's value at the issuing processor,
///    producing whatever protocol traffic the strategy requires;
///  * `write` installs a new value and invalidates all other copies
///    before completing (single-writer coherence);
///  * local cache hits are resolved by the runtime before the strategy
///    is consulted — `read`/`write` here implement the miss paths.
class Strategy {
 public:
  virtual ~Strategy() = default;

  virtual std::string name() const = 0;

  /// Miss-path read issued by processor `p`.
  virtual sim::Task<Value> read(NodeId p, VarId x) = 0;

  /// Write issued by processor `p` (p may or may not hold a copy).
  virtual sim::Task<void> write(NodeId p, VarId x, Value v) = 0;

  /// Zero-cost registration used during (unmeasured) setup: the variable
  /// exists with a single copy in `owner`'s memory module.
  virtual void registerVarFree(VarId x, NodeId owner, Value init) = 0;

  /// Registration with full protocol cost, for variables created during
  /// the measured computation (e.g. Barnes–Hut cells). The state is
  /// installed at once; the registration traffic is posted as cost-only
  /// messages, so the creator never waits on it.
  virtual void registerVar(VarId x, NodeId owner, Value init) = 0;

  /// Zero-cost teardown (simulator memory management; not measured).
  virtual void destroyVarFree(VarId x) = 0;

  /// The current globally committed value (verification/debug only).
  virtual Value peek(VarId x) const = 0;

  /// Validate every internal invariant for `x`; throws CheckError on
  /// violation. Call only at quiescence (no transactions in flight).
  virtual void checkInvariants(VarId x) const = 0;

  /// Protocol message entry point; the runtime registers this as the
  /// handler for `net::kProtocolChannel` on every node.
  virtual void handleMessage(net::Message&& msg) = 0;

  /// LRU replacement hook: attempt to evict `x` from `p`'s memory module
  /// if the strategy's invariants allow it. Returns true on success.
  virtual bool tryEvict(NodeId p, VarId x) = 0;

  /// Node `p` crashed: its application state (cached copies, directory
  /// authority) is lost and the strategy must repair every variable it
  /// touched — re-home directories, salvage authoritative values, scrub
  /// dead copies — so that no variable is lost or dually owned once the
  /// machine quiesces (docs/faults.md). Repairs for variables with a
  /// transaction in flight are deferred until that variable is quiet, in
  /// the shared DeferredWork queue (diva/deferred_work.hpp). A node that
  /// recovers needs no hook: it rejoins with the cold caches repair left.
  virtual void onNodeDown(NodeId p) = 0;

  /// The machine was structurally reconfigured (nodes/links added or
  /// removed — a new reconfiguration epoch; docs/faults.md). The strategy
  /// must re-run decompose() on the network's *target* shape and migrate
  /// every variable's management state (homes, directories, copy sets)
  /// onto the new tree via cost-charged Migrate messages, deferring
  /// variables with a transaction in flight until they are quiet
  /// (forwarding serves them meanwhile) in the same DeferredWork queue as
  /// repairs, which drain first (diva/deferred_work.hpp).
  virtual void onReconfig() = 0;
};

}  // namespace diva
