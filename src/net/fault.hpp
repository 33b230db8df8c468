#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "sim/engine.hpp"

namespace diva::net {

class Network;

// ---------------------------------------------------------------------------
// Scripted fault injection (docs/faults.md).
//
// A FaultPlan is a list of timestamped events applied to the Network
// through the ordinary event queue, so faults interleave with protocol
// traffic deterministically: same plan, same seed, same trace. Events
// carry offsets relative to a base instant chosen by the scheduler (the
// workload driver uses the enclosing phase's start time), which keeps a
// plan reusable across phases and runs.
// ---------------------------------------------------------------------------

/// One scripted fault or structural reconfiguration.
struct FaultEvent {
  enum class Kind : std::uint8_t {
    LinkDown,
    LinkUp,
    NodeDown,
    NodeUp,
    Degrade,
    // Structural reconfiguration (scenario keyword `reconfig`, docs/faults.md):
    // permanent shape changes, distinct from the transient crash/recover pairs
    // above. Graph-backed topologies only.
    AddNode,     ///< new node joined by an edge to anchor `a` (weightMul /
                 ///< latencyMul double as the new edge's weight / latency)
    RemoveNode,  ///< retire node `a` permanently (id is never reused)
    AddLink,     ///< new edge a—b (weightMul / latencyMul as weight / latency)
    RemoveLink,  ///< remove edge a—b permanently
  };

  Kind kind = Kind::LinkDown;
  double offsetUs = 0.0;   ///< firing time relative to the plan's base instant
  NodeId a = 0;            ///< the node (node events) or first link endpoint
  NodeId b = 0;            ///< second link endpoint (ignored for node events)
  double weightMul = 1.0;  ///< Degrade: streaming-cost multiplier (1.0 = nominal);
                           ///< AddNode/AddLink: the new edge's weight
  double latencyMul = 1.0; ///< Degrade: hop-latency multiplier (1.0 = nominal);
                           ///< AddNode/AddLink: the new edge's latency
  int line = 0;            ///< scenario source line (0 = not from a scenario);
                           ///< carried for run-time validation messages only

  /// `line` is provenance, not semantics — two plans that apply the same
  /// changes compare equal regardless of where they were parsed from.
  bool operator==(const FaultEvent& o) const {
    return kind == o.kind && offsetUs == o.offsetUs && a == o.a && b == o.b &&
           weightMul == o.weightMul && latencyMul == o.latencyMul;
  }
};

/// True for the permanent shape-changing kinds (`reconfig` directives).
inline bool isStructural(FaultEvent::Kind kind) {
  return kind >= FaultEvent::Kind::AddNode;
}

/// A fault script: events applied at base + offsetUs. Events sharing an
/// instant apply in plan order (the event queue is FIFO within a time).
using FaultPlan = std::vector<FaultEvent>;

/// Scenario-format keyword for a fault kind ("link-down", "node-up", …).
const char* faultKindName(FaultEvent::Kind kind);

/// Apply one fault immediately to `target`: a Network, or a ShapeModel
/// replaying a plan before the run (same calls, same checks). Throws
/// CheckError naming `ev.line` on an event the current shape rejects.
template <typename Target>
void applyFault(Target& target, const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultEvent::Kind::LinkDown: target.setLinkUp(ev.a, ev.b, false, ev.line); return;
    case FaultEvent::Kind::LinkUp: target.setLinkUp(ev.a, ev.b, true, ev.line); return;
    case FaultEvent::Kind::NodeDown: target.setNodeUp(ev.a, false, ev.line); return;
    case FaultEvent::Kind::NodeUp: target.setNodeUp(ev.a, true, ev.line); return;
    case FaultEvent::Kind::Degrade:
      target.degradeLink(ev.a, ev.b, ev.weightMul, ev.latencyMul, ev.line);
      return;
    case FaultEvent::Kind::AddNode:
      target.addNode(ev.a, ev.weightMul, ev.latencyMul, ev.line);
      return;
    case FaultEvent::Kind::RemoveNode: target.removeNode(ev.a, ev.line); return;
    case FaultEvent::Kind::AddLink:
      target.addLink(ev.a, ev.b, ev.weightMul, ev.latencyMul, ev.line);
      return;
    case FaultEvent::Kind::RemoveLink: target.removeLink(ev.a, ev.b, ev.line); return;
  }
}

/// Schedule every event of `plan` at `base + offsetUs` on the engine.
/// Offsets must be non-negative; application order within an instant is
/// plan order.
void scheduleFaultPlan(sim::Engine& engine, Network& net, const FaultPlan& plan,
                       sim::Time base);

}  // namespace diva::net
