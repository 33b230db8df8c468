#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"

namespace diva::net {

/// The machine's shape as fault events see it (docs/faults.md
/// "Reconfiguration"): node-id space, membership, node liveness, member
/// edges and retiring nodes' retained edges, plus every check a
/// `FaultEvent` must pass against them. The Network owns one and forwards
/// its membership accessors and fault calls to it; the workload pre-flight
/// replays each fault plan through a copy, so a plan the run would reject
/// is rejected before anything runs. A failed check throws CheckError,
/// changes nothing and names the scenario line (`line` > 0).
///
/// Two clocks, because a run has two. A structural event changes
/// membership and the logical edges when it fires. The routable id space
/// and the installed links follow at deliver() (end of the instant, when
/// the Network installs the coalesced epoch); retiring nodes' edges leave
/// at commit() (the quiescent phase end). Transient faults check against
/// the installed shape. Edge lists exist only once a structural event
/// made the shape elastic; until then links are the topology's own.
class ShapeModel {
 public:
  explicit ShapeModel(const Topology& topology);

  /// Routable node-id space: every node the installed shape knows.
  int numNodes() const { return numNodes_; }
  int numMembers() const { return static_cast<int>(members_.size()); }
  bool nodeMember(NodeId n) const {
    return static_cast<std::size_t>(n) < member_.size() &&
           member_[static_cast<std::size_t>(n)] != 0;
  }
  NodeId memberAt(int r) const { return members_[static_cast<std::size_t>(r)]; }
  const std::vector<NodeId>& members() const { return members_; }
  /// 1 = member, 0 = retired, per id of the logical id space (which
  /// includes nodes added but not yet delivered).
  const std::vector<std::uint8_t>& memberFlags() const { return member_; }
  bool nodeUp(NodeId n) const { return alive_[static_cast<std::size_t>(n)] != 0; }
  int numLiveNodes() const { return liveNodes_; }

  /// Elastic shapes only: the target graph (members only), and the
  /// installed one — the target as of the last deliver(), plus retained
  /// edges until commit().
  const GraphSpec& logical() const { return logical_; }
  const GraphSpec& installed() const { return installed_; }
  /// True between delivering a remove-node epoch and commit().
  bool handoff() const { return !retained_.empty(); }

  // Fault calls, named like the Network's so `applyFault` drives either.
  /// Returns false when `n` already is in that state.
  bool setNodeUp(NodeId n, bool up, int line = 0);
  void setLinkUp(NodeId u, NodeId v, bool up, int line = 0) const;
  void degradeLink(NodeId u, NodeId v, double weightMul, double latencyMul,
                   int line = 0) const;
  NodeId addNode(NodeId anchor, double weight = 1.0, double latency = 1.0, int line = 0);
  void removeNode(NodeId n, int line = 0);
  void addLink(NodeId u, NodeId v, double weight = 1.0, double latency = 1.0,
               int line = 0);
  void removeLink(NodeId u, NodeId v, int line = 0);

  /// End of an instant; a no-op unless a structural event fired since
  /// the last delivery.
  void deliver();
  /// Phase end. Returns false when no edges were retained.
  bool commit();

 private:
  void ensureElastic(int line);
  bool installedLink(NodeId u, NodeId v) const;
  bool membersConnectedWithout(NodeId dropNode, NodeId dropU, NodeId dropV) const;

  const Topology* base_;  ///< the construction shape; answers links until elastic
  int numNodes_;
  std::vector<std::uint8_t> member_;
  std::vector<NodeId> members_;      ///< member ids, ascending
  std::vector<std::uint8_t> alive_;  ///< per routable id
  int liveNodes_;
  bool elastic_ = false;
  bool pending_ = false;  ///< structural event since the last deliver()
  GraphSpec logical_;
  GraphSpec installed_;
  std::vector<GraphSpec::Edge> retained_;  ///< retiring nodes' edges
};

}  // namespace diva::net
