#include "workload/scenario.hpp"

#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <type_traits>

#include "support/check.hpp"
#include "support/kind_named.hpp"

namespace diva::workload {

using support::kindNamed;

namespace {

/// Parse exactly one value of type T from the rest of `ls`; CheckError
/// with the line number and key name otherwise. Mirrors the strict
/// token-at-a-time style of parseGraph. Unsigned fields reject negative
/// literals explicitly — istream extraction would silently wrap them to
/// huge values.
template <typename T>
T parseValue(std::istringstream& ls, int lineNo, const char* key) {
  std::string tok;
  DIVA_CHECK_MSG(static_cast<bool>(ls >> tok),
                 "scenario file line " << lineNo << ": '" << key << "' needs a value");
  if constexpr (std::is_unsigned_v<T>) {
    DIVA_CHECK_MSG(tok[0] != '-', "scenario file line "
                                      << lineNo << ": '" << key
                                      << "' must be non-negative (got '" << tok << "')");
  }
  std::istringstream ts(tok);
  T v{};
  DIVA_CHECK_MSG(static_cast<bool>(ts >> v) && ts.eof(),
                 "scenario file line " << lineNo << ": malformed '" << key << "' value '"
                                       << tok << "'");
  return v;
}

}  // namespace

WorkloadSpec parseScenario(const std::string& text) {
  WorkloadSpec spec;
  spec.name = "file";
  spec.phases.clear();
  bool haveObjects = false;
  std::istringstream in(text);
  std::string line;
  int lineNo = 0;
  PhaseSpec* phase = nullptr;
  auto needPhase = [&](const std::string& key) {
    DIVA_CHECK_MSG(phase != nullptr, "scenario file line " << lineNo << ": '" << key
                                                           << "' before any 'phase'");
  };
  while (std::getline(in, line)) {
    ++lineNo;
    // '#' starts a comment anywhere on the line.
    std::istringstream ls(line.substr(0, line.find('#')));
    std::string word;
    if (!(ls >> word)) continue;
    if (word == "scenario") {
      DIVA_CHECK_MSG(static_cast<bool>(ls >> spec.name),
                     "scenario file line " << lineNo << ": 'scenario' needs a name");
    } else if (word == "seed") {
      spec.seed = parseValue<std::uint64_t>(ls, lineNo, "seed");
    } else if (word == "objects") {
      DIVA_CHECK_MSG(!haveObjects,
                     "scenario file line " << lineNo << ": duplicate 'objects' line");
      haveObjects = true;
      spec.numObjects = parseValue<int>(ls, lineNo, "objects");
      if (!ls.eof() && (ls >> std::ws, ls.peek() != std::istringstream::traits_type::eof()))
        spec.objectBytes = parseValue<std::uint64_t>(ls, lineNo, "object size");
    } else if (word == "cache") {
      spec.cacheBytes = parseValue<std::uint64_t>(ls, lineNo, "cache");
    } else if (word == "procs") {
      spec.procs = parseValue<int>(ls, lineNo, "procs");
    } else if (word == "topology") {
      DIVA_CHECK_MSG(static_cast<bool>(ls >> spec.topology),
                     "scenario file line " << lineNo << ": 'topology' needs a name");
    } else if (word == "phase") {
      PhaseSpec ph;
      DIVA_CHECK_MSG(static_cast<bool>(ls >> ph.name),
                     "scenario file line " << lineNo << ": 'phase' needs a name");
      spec.phases.push_back(ph);
      phase = &spec.phases.back();
    } else if (word == "rounds") {
      needPhase(word);
      phase->rounds = parseValue<int>(ls, lineNo, "rounds");
    } else if (word == "reads") {
      needPhase(word);
      phase->readFraction = parseValue<double>(ls, lineNo, "reads");
    } else if (word == "zipf") {
      needPhase(word);
      phase->zipfS = parseValue<double>(ls, lineNo, "zipf");
    } else if (word == "hotshift") {
      needPhase(word);
      phase->hotShift = parseValue<int>(ls, lineNo, "hotshift");
    } else if (word == "think") {
      needPhase(word);
      phase->thinkMeanUs = parseValue<double>(ls, lineNo, "think");
    } else if (word == "barrier") {
      needPhase(word);
      const int b = parseValue<int>(ls, lineNo, "barrier");
      DIVA_CHECK_MSG(b == 0 || b == 1,
                     "scenario file line " << lineNo << ": 'barrier' must be 0 or 1");
      phase->barrier = b == 1;
    } else if (word == "arrival") {
      needPhase(word);
      std::string kind;
      DIVA_CHECK_MSG(static_cast<bool>(ls >> kind),
                     "scenario file line " << lineNo
                                           << ": 'arrival' needs a kind "
                                              "(fixed/poisson/burst)");
      const auto k =
          kindNamed(kind, serve::ArrivalSpec::Kind::Burst, serve::arrivalKindName);
      DIVA_CHECK_MSG(k && *k != serve::ArrivalSpec::Kind::None,
                     "scenario file line " << lineNo << ": unknown arrival kind '" << kind
                                           << "'");
      phase->arrival.kind = *k;
      phase->arrival.ratePerSec = parseValue<double>(ls, lineNo, "arrival rate");
      if (phase->arrival.kind == serve::ArrivalSpec::Kind::Burst) {
        phase->arrival.burstOnUs = parseValue<double>(ls, lineNo, "burst on-window");
        phase->arrival.burstOffUs = parseValue<double>(ls, lineNo, "burst off-window");
      }
    } else if (word == "deadline") {
      needPhase(word);
      phase->deadlineUs = parseValue<double>(ls, lineNo, "deadline");
    } else if (word == "queue") {
      needPhase(word);
      phase->queueLimit = parseValue<int>(ls, lineNo, "queue");
    } else if (word == "trace") {
      needPhase(word);
      DIVA_CHECK_MSG(static_cast<bool>(ls >> phase->tracePath),
                     "scenario file line " << lineNo << ": 'trace' needs a file path");
    } else if (word == "fault") {
      needPhase(word);
      net::FaultEvent ev;
      ev.line = lineNo;  // run-time validation errors point back here
      ev.offsetUs = parseValue<double>(ls, lineNo, "fault offset");
      DIVA_CHECK_MSG(ev.offsetUs >= 0.0, "scenario file line "
                                             << lineNo << ": fault offset must be >= 0");
      std::string kind;
      DIVA_CHECK_MSG(static_cast<bool>(ls >> kind),
                     "scenario file line " << lineNo << ": 'fault' needs a kind "
                                              "(node-down/node-up/link-down/link-up/"
                                              "degrade)");
      const auto k =
          kindNamed(kind, net::FaultEvent::Kind::RemoveLink, net::faultKindName);
      DIVA_CHECK_MSG(k && !net::isStructural(*k),
                     "scenario file line " << lineNo << ": unknown fault kind '" << kind
                                           << "'");
      ev.kind = *k;
      ev.a = parseValue<net::NodeId>(ls, lineNo, "fault endpoint");
      // Node faults leave `b` at its default: they have one endpoint, and
      // leaving it untouched keeps parse(format(spec)) == spec for specs
      // built in code (which leave `b` defaulted too).
      if (ev.kind != net::FaultEvent::Kind::NodeDown &&
          ev.kind != net::FaultEvent::Kind::NodeUp) {
        ev.b = parseValue<net::NodeId>(ls, lineNo, "fault endpoint");
        if (ev.kind == net::FaultEvent::Kind::Degrade) {
          ev.weightMul = parseValue<double>(ls, lineNo, "degrade weight multiplier");
          ev.latencyMul = parseValue<double>(ls, lineNo, "degrade latency multiplier");
          DIVA_CHECK_MSG(ev.weightMul > 0.0 && ev.latencyMul > 0.0,
                         "scenario file line "
                             << lineNo << ": degrade multipliers must be positive");
        }
      }
      DIVA_CHECK_MSG(ev.a >= 0 && ev.b >= 0,
                     "scenario file line " << lineNo
                                           << ": fault endpoints must be >= 0");
      phase->faults.push_back(ev);
    } else if (word == "reconfig") {
      // Structural reconfiguration (docs/faults.md "Reconfiguration"):
      //   reconfig <offsetUs> add-node <anchor> [weight [latency]]
      //   reconfig <offsetUs> add-link <u> <v> [weight [latency]]
      //   reconfig <offsetUs> remove-node <p>
      //   reconfig <offsetUs> remove-link <u> <v>
      // Endpoints are validated at run time against the machine's shape
      // at the event's firing instant; the line number is carried so
      // those errors point back here.
      needPhase(word);
      net::FaultEvent ev;
      ev.line = lineNo;
      ev.offsetUs = parseValue<double>(ls, lineNo, "reconfig offset");
      DIVA_CHECK_MSG(ev.offsetUs >= 0.0,
                     "scenario file line " << lineNo
                                           << ": reconfig offset must be >= 0");
      std::string kind;
      DIVA_CHECK_MSG(static_cast<bool>(ls >> kind),
                     "scenario file line " << lineNo
                                           << ": 'reconfig' needs a kind (add-node/"
                                              "remove-node/add-link/remove-link)");
      const auto k =
          kindNamed(kind, net::FaultEvent::Kind::RemoveLink, net::faultKindName);
      DIVA_CHECK_MSG(k && net::isStructural(*k),
                     "scenario file line " << lineNo << ": unknown reconfig kind '" << kind
                                           << "'");
      ev.kind = *k;
      ev.a = parseValue<net::NodeId>(ls, lineNo, "reconfig endpoint");
      if (ev.kind == net::FaultEvent::Kind::AddLink ||
          ev.kind == net::FaultEvent::Kind::RemoveLink)
        ev.b = parseValue<net::NodeId>(ls, lineNo, "reconfig endpoint");
      DIVA_CHECK_MSG(ev.a >= 0 && ev.b >= 0,
                     "scenario file line " << lineNo
                                           << ": reconfig endpoints must be >= 0");
      if (ev.kind == net::FaultEvent::Kind::AddNode ||
          ev.kind == net::FaultEvent::Kind::AddLink) {
        // Optional new-edge weight and latency (default 1.0 each),
        // carried in the multiplier fields.
        const auto more = [&ls] {
          return !ls.eof() &&
                 (ls >> std::ws, ls.peek() != std::istringstream::traits_type::eof());
        };
        if (more()) ev.weightMul = parseValue<double>(ls, lineNo, "edge weight");
        if (more()) ev.latencyMul = parseValue<double>(ls, lineNo, "edge latency");
        DIVA_CHECK_MSG(ev.weightMul > 0.0 && ev.latencyMul > 0.0,
                       "scenario file line "
                           << lineNo << ": edge weight/latency must be positive");
      }
      phase->faults.push_back(ev);
    } else {
      DIVA_CHECK_MSG(false, "scenario file line " << lineNo << ": unknown directive '"
                                                  << word << "'");
    }
    // One consistent policy for every directive: after its declared
    // arguments, anything but a comment is an error — a one-line typo
    // ("rounds 5 reads 0.1") must not silently run a different workload.
    std::string extra;
    DIVA_CHECK_MSG(!(ls >> extra), "scenario file line "
                                       << lineNo << ": unexpected trailing token '"
                                       << extra << "' after '" << word << "'");
  }
  DIVA_CHECK_MSG(haveObjects, "scenario file has no 'objects' line");
  DIVA_CHECK_MSG(!spec.phases.empty(), "scenario file has no 'phase' line");
  spec.validate();
  return spec;
}

WorkloadSpec loadScenarioFile(const std::string& path) {
  std::ifstream in(path);
  DIVA_CHECK_MSG(in.good(), "cannot open scenario file '" << path << "'");
  std::ostringstream text;
  text << in.rdbuf();
  // Parser errors carry line numbers but not the file name (parseScenario
  // also serves in-memory text); add the path so a failing multi-file
  // experiment names its culprit.
  try {
    WorkloadSpec spec = parseScenario(text.str());
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
  } catch (const support::CheckError& e) {
    throw support::CheckError(path + ": " + e.what());
  }
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
      out << (net::isStructural(ev.kind) ? "reconfig " : "fault ") << ev.offsetUs
          << " " << net::faultKindName(ev.kind);
      switch (ev.kind) {
        case net::FaultEvent::Kind::NodeDown:
        case net::FaultEvent::Kind::NodeUp:
        case net::FaultEvent::Kind::RemoveNode:
          out << " " << ev.a;
          break;
        case net::FaultEvent::Kind::LinkDown:
        case net::FaultEvent::Kind::LinkUp:
        case net::FaultEvent::Kind::RemoveLink:
          out << " " << ev.a << " " << ev.b;
          break;
        case net::FaultEvent::Kind::Degrade:
          out << " " << ev.a << " " << ev.b << " " << ev.weightMul << " "
              << ev.latencyMul;
          break;
        case net::FaultEvent::Kind::AddNode:
          out << " " << ev.a;
          if (ev.weightMul != 1.0 || ev.latencyMul != 1.0)
            out << " " << ev.weightMul << " " << ev.latencyMul;
          break;
        case net::FaultEvent::Kind::AddLink:
          out << " " << ev.a << " " << ev.b;
          if (ev.weightMul != 1.0 || ev.latencyMul != 1.0)
            out << " " << ev.weightMul << " " << ev.latencyMul;
          break;
      }
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace diva::workload
