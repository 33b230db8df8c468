#pragma once

#include <string>

#include "workload/workload.hpp"

namespace diva::workload {

// ---------------------------------------------------------------------------
// Scenario text format — the workload twin of the graph file format, so
// experiments are declarative files, diffable and committable. Comments,
// strict values, trailing tokens and line-numbered errors follow the
// rules the three text formats share (support/text_file.hpp,
// docs/workloads.md "Text formats"):
//
//   scenario <name>        (optional; defaults to "file")
//   seed <u64>             (optional; default 1)
//   objects <N> [bytes]    (required; object population, payload size
//                           defaults to 64 simulated bytes)
//   cache <bytes>          (optional; per-processor memory module bound,
//                           0 = unlimited — the default)
//   procs <P>              (optional; suggested machine size for runners,
//                           0 = runner's choice)
//   topology <name>        (optional; suggested network shape by name —
//                           net/topology_env.hpp vocabulary, e.g. mesh2d,
//                           ring, hier-random-regular. Runners use it as
//                           the default shape; DIVA_TOPOLOGY overrides.)
//   phase <name>           (starts a phase; later keys configure it)
//   rounds <n>             (accesses per processor; default 1)
//   reads <fraction>       (P(read) in [0,1]; default 1.0)
//   zipf <s>               (popularity skew exponent; default 0 = uniform;
//                           integral s is bit-stable across platforms)
//   hotshift <objects>     (popularity-ranking rotation — hotspot drift)
//   think <meanUs>         (mean think time, uniform in [0, 2·mean))
//   barrier <0|1>          (synchronize processors at phase end; default 1)
//   fault <offsetUs> <kind> <args...>
//                          (inject a fault `offsetUs` µs after the phase
//                           starts — docs/faults.md. Kinds:
//                             node-down <p>              crash processor p
//                             node-up <p>                recover processor p
//                             link-down <u> <v>          sever link u—v
//                             link-up <u> <v>            restore link u—v
//                             degrade <u> <v> <wM> <lM>  multiply u—v's
//                                      bandwidth cost by wM, latency by lM
//                           Repeatable; endpoints are range-checked against
//                           the machine when the scenario runs.)
//   reconfig <offsetUs> <kind> <args...>
//                          (permanent structural reconfiguration,
//                           docs/faults.md "Reconfiguration" — graph-backed
//                           topologies only. Kinds:
//                             add-node <anchor> [w [lat]]  new node, joined
//                                      to `anchor` by an edge of weight w /
//                                      latency lat (default 1.0 each); its
//                                      id is the current node count
//                             remove-node <p>              retire p forever
//                             add-link <u> <v> [w [lat]]   new edge u—v
//                             remove-link <u> <v>          drop edge u—v
//                           Repeatable; endpoints are validated when the
//                           scenario runs, against the machine's shape at
//                           the event's firing instant — errors carry this
//                           line's number. Removals that would disconnect
//                           the member nodes are rejected.)
//   arrival <kind> <rate> [onUs offUs]
//                          (open-loop arrival process — docs/serving.md.
//                           Kinds: fixed | poisson | burst; `rate` is the
//                           aggregate offered load in requests per
//                           simulated second; burst additionally takes
//                           the on/off window lengths in µs. Phases with
//                           an arrival line run open loop: latency is
//                           measured from the scheduled arrival and
//                           `think` must stay 0.)
//   deadline <us>          (SLO deadline — served requests slower than
//                           this count as late; open-loop phases only)
//   queue <n>              (per-processor backlog bound — requests with
//                           more than n newer requests already due are
//                           shed; open-loop phases only)
//   trace <path>           (replay a request-trace file, docs/serving.md;
//                           relative paths resolve against the scenario
//                           file's directory. The phase's generator keys
//                           — rounds/reads/zipf/hotshift/think/arrival —
//                           must stay at their defaults.)
//
// Phase keys before the first `phase` line are errors, like `edge` before
// `nodes` in the graph format.
// ---------------------------------------------------------------------------

/// Parse the text format; throws CheckError with a line number on errors.
/// The returned spec is validated.
WorkloadSpec parseScenario(const std::string& text);

/// Read a scenario file from disk; throws CheckError if unreadable.
WorkloadSpec loadScenarioFile(const std::string& path);

/// Serialize a WorkloadSpec to the text format (parseScenario round-trips
/// it exactly: parse(format(spec)) == spec).
std::string formatScenario(const WorkloadSpec& spec);

}  // namespace diva::workload
