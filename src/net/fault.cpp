#include "net/fault.hpp"

#include "net/network.hpp"
#include "support/check.hpp"

namespace diva::net {

const char* faultKindName(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::LinkDown: return "link-down";
    case FaultEvent::Kind::LinkUp: return "link-up";
    case FaultEvent::Kind::NodeDown: return "node-down";
    case FaultEvent::Kind::NodeUp: return "node-up";
    case FaultEvent::Kind::Degrade: return "degrade";
    case FaultEvent::Kind::AddNode: return "add-node";
    case FaultEvent::Kind::RemoveNode: return "remove-node";
    case FaultEvent::Kind::AddLink: return "add-link";
    case FaultEvent::Kind::RemoveLink: return "remove-link";
  }
  return "?";
}

void scheduleFaultPlan(sim::Engine& engine, Network& net, const FaultPlan& plan,
                       sim::Time base) {
  for (const FaultEvent& ev : plan) {
    DIVA_CHECK_MSG(ev.offsetUs >= 0.0, "fault '" << faultKindName(ev.kind)
                                                 << "' has negative offset "
                                                 << ev.offsetUs);
    engine.scheduleAt(base + ev.offsetUs, [&net, ev] { applyFault(net, ev); });
  }
}

}  // namespace diva::net
