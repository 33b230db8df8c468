#pragma once

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "diva/stats.hpp"
#include "diva/types.hpp"
#include "net/message.hpp"
#include "obs/tracer.hpp"

namespace diva {

/// The two state handoffs the deferred work below ends in: crash repair
/// and epoch migration. Both strategies charge them as cost-only
/// messages (`Recover` / `Migrate`) through this one pairing of counters
/// and trace span.
enum class Handoff : std::uint8_t { Repair, Migration };

/// `h`'s message counter (the root-path Mark a reseed posts counts too).
inline std::uint64_t& handoffMessages(Stats::Counters& ops, Handoff h) {
  return h == Handoff::Repair ? ops.recoveryMessages : ops.migrationMessages;
}

/// Charges one `h` message of `bytes` payload for `x` sent from `src` and
/// opens its async span; endHandoff closes it where the message arrives.
inline void beginHandoff(Handoff h, Stats::Counters& ops, obs::Tracer* tr,
                         net::NodeId src, VarId x, std::uint64_t bytes) {
  ++handoffMessages(ops, h);
  (h == Handoff::Repair ? ops.recoveryBytes : ops.migrationBytes) += bytes;
  if (!tr) return;
  if (h == Handoff::Repair)
    tr->beginAsync(obs::kCatRepair, src, "repair", static_cast<std::int64_t>(x));
  else
    tr->beginAsync(obs::kCatMigration, src, "migrate", static_cast<std::int64_t>(x));
}

inline void endHandoff(Handoff h, obs::Tracer* tr, net::NodeId dst, VarId x) {
  if (!tr) return;
  if (h == Handoff::Repair)
    tr->endAsync(obs::kCatRepair, dst, "repair", static_cast<std::int64_t>(x));
  else
    tr->endAsync(obs::kCatMigration, dst, "migrate", static_cast<std::int64_t>(x));
}

/// The defer-until-quiet queue of both strategies (docs/faults.md "Defer
/// until quiet"). Crash repair and epoch migration rewrite a variable's
/// whole management state, so work on a busy variable parks here until
/// it falls quiet. One policy: work runs at once only when the variable
/// is quiet and nothing is parked for it; a drain runs the parked repairs
/// in park order, then the parked migration.
class DeferredWork {
 public:
  bool empty() const { return parked_.empty(); }
  bool parked(VarId x) const { return parked_.contains(x); }

  /// Repair of `deadNode`'s share of `x`: `now()`, or park (once per node).
  template <typename Now>
  void repair(VarId x, net::NodeId deadNode, bool quiet, Now&& now) {
    if (quiet && !parked(x)) return now();
    std::vector<net::NodeId>& dead = parked_[x].dead;
    if (std::find(dead.begin(), dead.end(), deadNode) == dead.end())
      dead.push_back(deadNode);
  }

  /// Epoch migration of `x`: `now()`, or park.
  template <typename Now>
  void migrate(VarId x, bool quiet, Now&& now) {
    if (quiet && !parked(x)) return now();
    parkMigration(x);
  }

  /// Parks a migration of `x` that the caller knows cannot run yet.
  void parkMigration(VarId x) { parked_[x].migrate = true; }

  /// Drops a parked migration of `x` a later epoch made moot.
  void cancelMigration(VarId x) {
    const auto it = parked_.find(x);
    if (it == parked_.end()) return;
    it->second.migrate = false;
    if (it->second.dead.empty()) parked_.erase(it);
  }

  /// Forgets `x` (the variable is destroyed).
  void erase(VarId x) { parked_.erase(x); }

  /// If `quiet()`, runs `repair(deadNode)` per parked crash, then
  /// `migrate()`. Every operation retirement lands here, so the common
  /// case costs one test and `quiet` runs only for a parked variable.
  template <typename Quiet, typename Repair, typename Migrate>
  void drain(VarId x, Quiet&& quiet, Repair&& repair, Migrate&& migrate) {
    if (empty()) return;
    const auto it = parked_.find(x);
    if (it == parked_.end() || !quiet()) return;
    const Work w = std::move(it->second);
    parked_.erase(it);
    for (net::NodeId p : w.dead) repair(p);
    if (w.migrate) migrate();
  }

 private:
  struct Work {
    std::vector<net::NodeId> dead;  ///< crashed nodes, in park order
    bool migrate = false;           ///< a migration waits behind them
  };
  std::unordered_map<VarId, Work> parked_;
};

}  // namespace diva
