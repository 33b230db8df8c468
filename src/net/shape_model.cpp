#include "net/shape_model.hpp"

#include <algorithm>
#include <string>

#include "support/check.hpp"

namespace diva::net {

namespace {
/// Error-message suffix for scripted events: validation failures point
/// back at the scenario line that scheduled the event.
std::string atLine(int line) {
  return line > 0 ? " (scenario line " + std::to_string(line) + ")" : std::string();
}

bool sameEdge(const GraphSpec::Edge& e, NodeId u, NodeId v) {
  return (e.u == u && e.v == v) || (e.u == v && e.v == u);
}
}  // namespace

ShapeModel::ShapeModel(const Topology& topology)
    : base_(&topology), numNodes_(topology.numNodes()), liveNodes_(numNodes_) {
  const auto n = static_cast<std::size_t>(numNodes_);
  member_.assign(n, 1);
  members_.resize(n);
  for (std::size_t i = 0; i < n; ++i) members_[i] = static_cast<NodeId>(i);
  alive_.assign(n, 1);
}

bool ShapeModel::installedLink(NodeId u, NodeId v) const {
  if (elastic_)
    return std::any_of(installed_.edges.begin(), installed_.edges.end(),
                       [&](const GraphSpec::Edge& e) { return sameEdge(e, u, v); });
  return base_->linkToward(u, v) >= 0 && base_->linkToward(v, u) >= 0;
}

bool ShapeModel::setNodeUp(NodeId n, bool up, int line) {
  const char* what = up ? "node-up" : "node-down";
  DIVA_CHECK_MSG(n >= 0 && n < numNodes_,
                 what << ": node " << n << " is out of range for the " << numNodes_
                      << "-node machine" << atLine(line));
  const std::uint8_t want = up ? 1 : 0;
  if (alive_[static_cast<std::size_t>(n)] == want) return false;
  // Retired nodes stay up (and in liveNodes_) but host nothing, so the
  // machine survives a crash only if another *member* stays up.
  // Members added this instant come up only at deliver().
  DIVA_CHECK_MSG(up || std::any_of(members_.begin(), members_.end(), [&](NodeId m) {
                   return m != n && m < numNodes_ && nodeUp(m);
                 }),
                 "crashing node " << n << " would leave no live member node"
                                  << atLine(line));
  alive_[static_cast<std::size_t>(n)] = want;
  liveNodes_ += up ? 1 : -1;
  return true;
}

void ShapeModel::setLinkUp(NodeId u, NodeId v, bool up, int line) const {
  DIVA_CHECK_MSG(installedLink(u, v), (up ? "link-up" : "link-down")
                                          << ": nodes " << u << " and " << v
                                          << " are not adjacent" << atLine(line));
}

void ShapeModel::degradeLink(NodeId u, NodeId v, double weightMul, double latencyMul,
                             int line) const {
  DIVA_CHECK_MSG(weightMul > 0.0 && latencyMul > 0.0,
                 "degrade: multipliers must be positive" << atLine(line));
  DIVA_CHECK_MSG(installedLink(u, v), "degrade: nodes " << u << " and " << v
                                                        << " are not adjacent"
                                                        << atLine(line));
}

void ShapeModel::ensureElastic(int line) {
  if (elastic_) return;
  const GraphSpec* g = base_->graph();
  DIVA_CHECK_MSG(g != nullptr,
                 "structural reconfiguration requires a graph-backed topology; '"
                     << base_->name() << "' cannot grow or shrink" << atLine(line));
  logical_ = *g;
  logical_.allowIsolated = true;
  installed_ = logical_;
  elastic_ = true;
}

bool ShapeModel::membersConnectedWithout(NodeId dropNode, NodeId dropU,
                                         NodeId dropV) const {
  // BFS over logical_'s edges (member↔member by construction — a
  // retiring node's edges were moved out) minus the dropped element.
  const auto n = static_cast<std::size_t>(logical_.numNodes);
  std::vector<std::vector<NodeId>> adj(n);
  for (const GraphSpec::Edge& e : logical_.edges) {
    if (e.u == dropNode || e.v == dropNode || sameEdge(e, dropU, dropV)) continue;
    adj[static_cast<std::size_t>(e.u)].push_back(e.v);
    adj[static_cast<std::size_t>(e.v)].push_back(e.u);
  }
  NodeId start = -1;
  std::size_t want = 0;
  for (NodeId m : members_)
    if (m != dropNode) {
      if (start < 0) start = m;
      ++want;
    }
  if (want <= 1) return true;
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<NodeId> queue{start};
  seen[static_cast<std::size_t>(start)] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head)
    for (NodeId nb : adj[static_cast<std::size_t>(queue[head])])
      if (!seen[static_cast<std::size_t>(nb)]) {
        seen[static_cast<std::size_t>(nb)] = 1;
        queue.push_back(nb);
      }
  return queue.size() == want;
}

NodeId ShapeModel::addNode(NodeId anchor, double weight, double latency, int line) {
  ensureElastic(line);
  DIVA_CHECK_MSG(nodeMember(anchor),
                 "add-node: anchor " << anchor << " is not a member node" << atLine(line));
  DIVA_CHECK_MSG(weight > 0.0 && latency > 0.0,
                 "add-node: edge weight and latency must be positive" << atLine(line));
  const NodeId id = logical_.numNodes++;
  logical_.edges.push_back(GraphSpec::Edge{anchor, id, weight, latency});
  member_.push_back(1);
  members_.push_back(id);
  pending_ = true;
  return id;
}

void ShapeModel::removeNode(NodeId n, int line) {
  ensureElastic(line);
  DIVA_CHECK_MSG(nodeMember(n),
                 "remove-node: node " << n << " is not a member node" << atLine(line));
  DIVA_CHECK_MSG(members_.size() > 1, "remove-node: removing node "
                                          << n << " would empty the machine"
                                          << atLine(line));
  // Someone must stay to host the machine's state: a member that is up,
  // or one that joins (up) at this instant's deliver().
  DIVA_CHECK_MSG(std::any_of(members_.begin(), members_.end(), [&](NodeId m) {
                   return m != n && (m >= numNodes_ || nodeUp(m));
                 }),
                 "remove-node: removing node " << n << " would leave no live member node"
                                               << atLine(line));
  DIVA_CHECK_MSG(membersConnectedWithout(n, -1, -1),
                 "remove-node: removing node " << n << " would disconnect the machine"
                                               << atLine(line));
  // Membership changes now; the node's links stay installed until
  // commit() so in-flight messages addressed to it still arrive.
  auto& edges = logical_.edges;
  for (auto it = edges.begin(); it != edges.end();) {
    if (it->u == n || it->v == n) {
      retained_.push_back(*it);
      it = edges.erase(it);
    } else {
      ++it;
    }
  }
  member_[static_cast<std::size_t>(n)] = 0;
  members_.erase(std::find(members_.begin(), members_.end(), n));
  pending_ = true;
}

void ShapeModel::addLink(NodeId u, NodeId v, double weight, double latency, int line) {
  ensureElastic(line);
  DIVA_CHECK_MSG(nodeMember(u) && nodeMember(v) && u != v,
                 "add-link: endpoints " << u << " and " << v
                                        << " must be distinct member nodes"
                                        << atLine(line));
  DIVA_CHECK_MSG(weight > 0.0 && latency > 0.0,
                 "add-link: edge weight and latency must be positive" << atLine(line));
  DIVA_CHECK_MSG(std::none_of(logical_.edges.begin(), logical_.edges.end(),
                              [&](const GraphSpec::Edge& e) { return sameEdge(e, u, v); }),
                 "add-link: nodes " << u << " and " << v << " are already adjacent"
                                    << atLine(line));
  logical_.edges.push_back(GraphSpec::Edge{u, v, weight, latency});
  pending_ = true;
}

void ShapeModel::removeLink(NodeId u, NodeId v, int line) {
  ensureElastic(line);
  DIVA_CHECK_MSG(nodeMember(u) && nodeMember(v),
                 "remove-link: endpoints " << u << " and " << v
                                           << " must be member nodes" << atLine(line));
  auto& edges = logical_.edges;
  const auto it = std::find_if(edges.begin(), edges.end(),
                               [&](const GraphSpec::Edge& e) { return sameEdge(e, u, v); });
  DIVA_CHECK_MSG(it != edges.end(), "remove-link: nodes " << u << " and " << v
                                                          << " are not adjacent"
                                                          << atLine(line));
  DIVA_CHECK_MSG(membersConnectedWithout(-1, u, v), "remove-link: cutting "
                                                        << u << "—" << v
                                                        << " would disconnect the machine"
                                                        << atLine(line));
  edges.erase(it);
  pending_ = true;
}

void ShapeModel::deliver() {
  if (!pending_) return;
  pending_ = false;
  installed_ = logical_;
  installed_.edges.insert(installed_.edges.end(), retained_.begin(), retained_.end());
  const int grown = logical_.numNodes - numNodes_;
  numNodes_ = logical_.numNodes;
  alive_.resize(static_cast<std::size_t>(numNodes_), 1);  // new nodes start up
  liveNodes_ += grown;
}

bool ShapeModel::commit() {
  DIVA_CHECK_MSG(!pending_,
                 "commitReconfig before the reconfiguration epoch was delivered");
  if (retained_.empty()) return false;
  retained_.clear();
  installed_ = logical_;
  return true;
}

}  // namespace diva::net
