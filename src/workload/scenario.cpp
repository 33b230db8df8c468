#include "workload/scenario.hpp"

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "support/check.hpp"
#include "support/kind_named.hpp"
#include "support/text_file.hpp"

namespace diva::workload {

using support::kindNamed;

namespace {

/// The arguments after `<offsetUs> <kind>` on a fault or reconfig line —
/// one table for the parser and the formatter.
struct EventShape {
  bool link;  ///< two endpoints `<u> <v>`, else one node `<p>`
  enum Costs { kNone, kRequired, kOptional } costs;  ///< `<weight> <latency>`
};

EventShape eventShape(net::FaultEvent::Kind kind) {
  using K = net::FaultEvent::Kind;
  switch (kind) {
    case K::NodeDown:
    case K::NodeUp:
    case K::RemoveNode: return {false, EventShape::kNone};
    case K::LinkDown:
    case K::LinkUp:
    case K::RemoveLink: return {true, EventShape::kNone};
    case K::Degrade: return {true, EventShape::kRequired};
    case K::AddNode: return {false, EventShape::kOptional};
    case K::AddLink: return {true, EventShape::kOptional};
  }
  return {false, EventShape::kNone};
}

/// Whether `ev`'s line carries its weight/latency pair: always for
/// degrade, and for add-node/add-link only off the 1.0 defaults.
bool writesCosts(const net::FaultEvent& ev) {
  const EventShape::Costs costs = eventShape(ev.kind).costs;
  return costs == EventShape::kRequired ||
         (costs == EventShape::kOptional && (ev.weightMul != 1.0 || ev.latencyMul != 1.0));
}

}  // namespace

WorkloadSpec parseScenario(const std::string& text) {
  WorkloadSpec spec;
  spec.name = "file";
  spec.phases.clear();
  bool haveObjects = false;
  support::LineReader in(text, "scenario");
  PhaseSpec* phase = nullptr;
  while (in.next()) {
    const std::string word = in.word("directive");
    // Phase keys configure the latest `phase`.
    auto cur = [&]() -> PhaseSpec& {
      DIVA_CHECK_MSG(phase != nullptr, in.where() << "'" << word << "' before any 'phase'");
      return *phase;
    };
    const std::string what = "'" + word + "' value";
    if (word == "scenario") {
      spec.name = in.word("scenario name");
    } else if (word == "seed") {
      spec.seed = in.value<std::uint64_t>(what);
    } else if (word == "objects") {
      DIVA_CHECK_MSG(!haveObjects, in.where() << "duplicate 'objects' line");
      haveObjects = true;
      spec.numObjects = in.value<int>("object count");
      if (in.more()) spec.objectBytes = in.value<std::uint64_t>("object size");
    } else if (word == "cache") {
      spec.cacheBytes = in.value<std::uint64_t>(what);
    } else if (word == "procs") {
      spec.procs = in.value<int>(what);
    } else if (word == "topology") {
      spec.topology = in.word("topology name");
    } else if (word == "phase") {
      PhaseSpec ph;
      ph.name = in.word("phase name");
      spec.phases.push_back(ph);
      phase = &spec.phases.back();
    } else if (word == "rounds") {
      cur().rounds = in.value<int>(what);
    } else if (word == "reads") {
      cur().readFraction = in.value<double>(what);
    } else if (word == "zipf") {
      cur().zipfS = in.value<double>(what);
    } else if (word == "hotshift") {
      cur().hotShift = in.value<int>(what);
    } else if (word == "think") {
      cur().thinkMeanUs = in.value<double>(what);
    } else if (word == "barrier") {
      const int b = in.value<int>(what);
      DIVA_CHECK_MSG(b == 0 || b == 1, in.where() << "'barrier' must be 0 or 1");
      cur().barrier = b == 1;
    } else if (word == "arrival") {
      serve::ArrivalSpec& arrival = cur().arrival;
      const std::string kind = in.word("arrival kind (fixed/poisson/burst)");
      const auto k =
          kindNamed(kind, serve::ArrivalSpec::Kind::Burst, serve::arrivalKindName);
      DIVA_CHECK_MSG(k && *k != serve::ArrivalSpec::Kind::None,
                     in.where() << "unknown arrival kind '" << kind << "'");
      arrival.kind = *k;
      arrival.ratePerSec = in.value<double>("arrival rate");
      if (arrival.kind == serve::ArrivalSpec::Kind::Burst) {
        arrival.burstOnUs = in.value<double>("burst on-window");
        arrival.burstOffUs = in.value<double>("burst off-window");
      }
    } else if (word == "deadline") {
      cur().deadlineUs = in.value<double>(what);
    } else if (word == "queue") {
      cur().queueLimit = in.value<int>(what);
    } else if (word == "trace") {
      cur().tracePath = in.word("trace file path");
    } else if (word == "fault" || word == "reconfig") {
      // Transient faults and structural reconfiguration share one line
      // shape: `<offsetUs> <kind> <args>` (docs/faults.md). Endpoints are
      // validated when the scenario runs, against the machine's shape at
      // the event's firing instant; the line number rides along so those
      // errors point back here.
      PhaseSpec& ph = cur();
      const bool structural = word == "reconfig";
      net::FaultEvent ev;
      ev.line = in.line();
      ev.offsetUs = in.value<double>(word + " offset");
      DIVA_CHECK_MSG(ev.offsetUs >= 0.0, in.where() << word << " offset must be >= 0");
      const std::string kind = in.word(word + " kind");
      const auto k =
          kindNamed(kind, net::FaultEvent::Kind::RemoveLink, net::faultKindName);
      DIVA_CHECK_MSG(k && net::isStructural(*k) == structural,
                     in.where() << "unknown " << word << " kind '" << kind << "'");
      ev.kind = *k;
      const EventShape shape = eventShape(ev.kind);
      // Node events leave `b` at its default, so parse(format(spec)) ==
      // spec also for specs built in code.
      ev.a = in.value<net::NodeId>(word + " endpoint");
      if (shape.link) ev.b = in.value<net::NodeId>(word + " endpoint");
      DIVA_CHECK_MSG(ev.a >= 0 && ev.b >= 0, in.where() << word << " endpoints must be >= 0");
      const auto costNext = [&] {
        return shape.costs == EventShape::kRequired ||
               (shape.costs == EventShape::kOptional && in.more());
      };
      if (costNext()) ev.weightMul = in.value<double>(word + " weight");
      if (costNext()) ev.latencyMul = in.value<double>(word + " latency");
      DIVA_CHECK_MSG(ev.weightMul > 0.0 && ev.latencyMul > 0.0,
                     in.where() << word << " weight and latency must be positive");
      ph.faults.push_back(ev);
    } else {
      DIVA_CHECK_MSG(false, in.where() << "unknown directive '" << word << "'");
    }
    // A one-line typo ("rounds 5 reads 0.1") must not silently run a
    // different workload than written.
    in.end(word);
  }
  DIVA_CHECK_MSG(haveObjects, "scenario file has no 'objects' line");
  DIVA_CHECK_MSG(!spec.phases.empty(), "scenario file has no 'phase' line");
  spec.validate();
  return spec;
}

WorkloadSpec loadScenarioFile(const std::string& path) {
  return support::parseTextFile(path, "scenario", [&path](const std::string& text) {
    WorkloadSpec spec = parseScenario(text);
    // Resolve relative trace paths against the scenario file's directory,
    // so a committed scenario works no matter the runner's cwd. In-memory
    // parseScenario text has no anchor and keeps paths as written.
    const std::filesystem::path dir = std::filesystem::path(path).parent_path();
    for (PhaseSpec& ph : spec.phases) {
      if (ph.tracePath.empty()) continue;
      if (!dir.empty() && std::filesystem::path(ph.tracePath).is_relative())
        ph.tracePath = (dir / ph.tracePath).string();
      // Preflight: traces are otherwise opened lazily when their phase
      // starts, which buries a typo'd path in mid-run engine output. Fail
      // here, at load, with the resolved path — scenario_runner turns
      // this into a clean exit 3 before anything runs.
      std::ifstream trace(ph.tracePath);
      if (!trace.good())
        throw support::CheckError("phase '" + ph.name +
                                  "': cannot open trace file '" + ph.tracePath + "'");
    }
    return spec;
  });
}

std::string formatScenario(const WorkloadSpec& spec) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "scenario " << spec.name << "\n";
  out << "seed " << spec.seed << "\n";
  out << "objects " << spec.numObjects << " " << spec.objectBytes << "\n";
  if (spec.cacheBytes != 0) out << "cache " << spec.cacheBytes << "\n";
  if (spec.procs != 0) out << "procs " << spec.procs << "\n";
  if (!spec.topology.empty()) out << "topology " << spec.topology << "\n";
  for (const PhaseSpec& ph : spec.phases) {
    out << "phase " << ph.name << "\n";
    out << "rounds " << ph.rounds << "\n";
    out << "reads " << ph.readFraction << "\n";
    if (ph.zipfS != 0.0) out << "zipf " << ph.zipfS << "\n";
    if (ph.hotShift != 0) out << "hotshift " << ph.hotShift << "\n";
    if (ph.thinkMeanUs != 0.0) out << "think " << ph.thinkMeanUs << "\n";
    if (!ph.barrier) out << "barrier 0\n";
    if (ph.arrival.open()) {
      out << "arrival " << serve::arrivalKindName(ph.arrival.kind) << " "
          << ph.arrival.ratePerSec;
      if (ph.arrival.kind == serve::ArrivalSpec::Kind::Burst)
        out << " " << ph.arrival.burstOnUs << " " << ph.arrival.burstOffUs;
      out << "\n";
    }
    if (ph.deadlineUs != 0.0) out << "deadline " << ph.deadlineUs << "\n";
    if (ph.queueLimit != 0) out << "queue " << ph.queueLimit << "\n";
    if (!ph.tracePath.empty()) out << "trace " << ph.tracePath << "\n";
    for (const net::FaultEvent& ev : ph.faults) {
      out << (net::isStructural(ev.kind) ? "reconfig " : "fault ") << ev.offsetUs << " "
          << net::faultKindName(ev.kind) << " " << ev.a;
      if (eventShape(ev.kind).link) out << " " << ev.b;
      if (writesCosts(ev)) out << " " << ev.weightMul << " " << ev.latencyMul;
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace diva::workload
