#include "diva/barrier.hpp"

namespace diva {

namespace {
std::uint64_t roundKey(std::int32_t node, std::uint64_t round) {
  return (static_cast<std::uint64_t>(node) << 40) ^ round;
}
}  // namespace

BarrierService::BarrierService(net::Network& net, Stats& stats, std::uint64_t seed)
    : net_(net),
      stats_(stats),
      seed_(seed),
      tree_(net.topology().decompose(net::DecompParams{4, 1})),
      waiting_(net.numNodes(), nullptr),
      nextRound_(net.numNodes(), 0) {}

void BarrierService::rebuild() {
  for (sim::OneShot<bool>* w : waiting_)
    DIVA_CHECK_MSG(w == nullptr, "barrier waiter across a reconfiguration epoch");
  DIVA_CHECK_MSG(counts_.empty(),
                 "barrier arrivals in flight across a reconfiguration epoch");
  tree_ = net_.topology().decompose(net::DecompParams{4, 1});
  waiting_.assign(static_cast<std::size_t>(net_.numNodes()), nullptr);
  nextRound_.assign(static_cast<std::size_t>(net_.numNodes()), 0);
}

sim::Task<void> BarrierService::arrive(NodeId p) {
  ++stats_.ops.barriers;
  const std::uint64_t round = nextRound_[p]++;

  if (tree_->numLeaves() <= 1) co_return;

  sim::OneShot<bool> released(net_.engine());
  DIVA_CHECK_MSG(waiting_[p] == nullptr, "processor re-entered a barrier");
  waiting_[p] = &released;

  const std::int32_t leaf = tree_->leafOf(p);
  DIVA_CHECK_MSG(leaf >= 0, "barrier arrival from processor " << p
                                << ", which is not in the machine");
  Body b;
  b.k = Body::K::Complete;
  b.atNode = tree_->parent(leaf);
  b.round = round;
  net_.post(net::Message{p, hostOf(b.atNode), net::kSyncChannel, 0, b});

  (void)co_await released.wait();
  waiting_[p] = nullptr;
  co_return;
}

void BarrierService::handleMessage(net::Message&& msg) {
  Body b = msg.take<Body>();
  if (b.k == Body::K::Complete) {
    onComplete(b.atNode, b.round);
    return;
  }
  // Release wave.
  const net::ClusterTree::Node& nd = tree_->node(b.atNode);
  if (nd.isLeaf()) {
    const NodeId p = tree_->procOfLeaf(b.atNode);
    DIVA_CHECK_MSG(waiting_[p] != nullptr, "barrier release without a waiter");
    waiting_[p]->resolve(true);
    return;
  }
  releaseSubtree(b.atNode, b.round);
}

void BarrierService::onComplete(std::int32_t node, std::uint64_t round) {
  const net::ClusterTree::Node& nd = tree_->node(node);
  const std::uint64_t key = roundKey(node, round);
  const int have = ++counts_[key];
  if (have < static_cast<int>(nd.children.size())) return;
  counts_.erase(key);
  if (nd.parent < 0) {
    releaseSubtree(node, round);
    return;
  }
  Body b;
  b.k = Body::K::Complete;
  b.atNode = nd.parent;
  b.round = round;
  net_.post(net::Message{hostOf(node), hostOf(nd.parent), net::kSyncChannel, 0, b});
}

void BarrierService::releaseSubtree(std::int32_t node, std::uint64_t round) {
  const net::ClusterTree::Node& nd = tree_->node(node);
  const NodeId src = hostOf(node);
  for (std::int32_t child : nd.children) {
    // A leaf's release goes straight to its waiting processor.
    const NodeId dst =
        tree_->node(child).isLeaf() ? tree_->procOfLeaf(child) : hostOf(child);
    Body b;
    b.k = Body::K::Release;
    b.atNode = child;
    b.round = round;
    net_.post(net::Message{src, dst, net::kSyncChannel, 0, b});
  }
}

}  // namespace diva
