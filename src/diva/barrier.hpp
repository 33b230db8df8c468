#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "diva/stats.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace diva {

using net::NodeId;

/// Barrier synchronization over a decomposition tree (paper §2:
/// "synchronization mechanisms ... are implementations of elegant
/// algorithms that use access trees, too").
///
/// Arrivals aggregate bottom-up: a tree node reports to its parent once
/// all of its children's subtrees have arrived; when the root completes,
/// a release wave broadcasts top-down. All messages are control-sized and
/// travel between the embedded hosts along network routes, so barriers
/// have realistic cost (≈2 messages per tree edge per episode).
class BarrierService {
 public:
  BarrierService(net::Network& net, Stats& stats, std::uint64_t seed);

  /// Block the calling processor until all `P` processors have arrived.
  sim::Task<void> arrive(NodeId p);

  void handleMessage(net::Message&& msg);

  /// Rebuild the aggregation tree over the network's current (committed)
  /// topology after a reconfiguration epoch. Requires an idle barrier —
  /// no waiter and no partial arrival counts — which the quiescent commit
  /// point guarantees. Episode counters restart at zero on the new tree.
  void rebuild();

 private:
  struct Body {
    enum class K : std::uint8_t { Complete, Release } k = K::Complete;
    std::int32_t atNode = -1;
    std::uint64_t round = 0;
  };
  static_assert(net::MessageBody::kInline<Body>, "barrier bodies must travel inline");

  void onComplete(std::int32_t node, std::uint64_t round);
  void releaseSubtree(std::int32_t node, std::uint64_t round);
  NodeId hostOf(std::int32_t node) const {
    return tree_->hostOf(node, kVarKey, net::EmbeddingKind::Regular, seed_);
  }

  static constexpr std::uint64_t kVarKey = 0xBA221E5ull;

  net::Network& net_;
  Stats& stats_;
  std::uint64_t seed_;
  std::unique_ptr<net::ClusterTree> tree_;
  std::unordered_map<std::uint64_t, int> counts_;  ///< (node, round) → arrivals
  std::vector<sim::OneShot<bool>*> waiting_;       ///< per-processor release slot
  std::vector<std::uint64_t> nextRound_;           ///< per-processor episode counter
};

}  // namespace diva
