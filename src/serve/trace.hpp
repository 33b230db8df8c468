#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.hpp"

namespace diva::serve {

// ---------------------------------------------------------------------------
// Request-trace text format — the open-loop twin of the graph and
// scenario formats (docs/serving.md), so recorded or externally
// generated request streams can drive either strategy:
//
//   trace <name>         (optional; defaults to "file")
//   objects <N> [bytes]  (optional; object-id space and payload size —
//                         when omitted, N is derived as max id + 1 and
//                         the payload defaults to 64 simulated bytes)
//   <t> <node> <op> <object>
//                        (one line per request: arrival time in µs —
//                         non-decreasing over the file — issuing node,
//                         op 'r' or 'w', object id in [0, N))
//
// Comments, strict values, trailing tokens and line-numbered errors
// follow the rules the three text formats share (support/text_file.hpp,
// docs/workloads.md "Text formats"); arrival times are at most
// sim::kMaxInputTime, and formatTrace(parseTrace(text)) round-trips
// exactly.
// ---------------------------------------------------------------------------

/// One replayed request. Arrival times are open-loop injection instants
/// relative to the enclosing phase's start.
struct TraceRequest {
  double timeUs = 0.0;
  net::NodeId node = 0;
  bool isRead = true;
  int object = 0;

  bool operator==(const TraceRequest&) const = default;
};

/// A parsed request trace: name, object-id space, and the requests in
/// file (= time) order.
struct Trace {
  std::string name = "file";
  int numObjects = 0;
  std::uint64_t objectBytes = 64;
  std::vector<TraceRequest> requests;

  bool operator==(const Trace&) const = default;
};

/// Parse the text format; throws CheckError with a line number on errors.
Trace parseTrace(const std::string& text);

/// Read a trace file from disk; throws CheckError (prefixed with the
/// path) if unreadable or malformed.
Trace loadTraceFile(const std::string& path);

/// Serialize to the text format (parseTrace round-trips it exactly).
std::string formatTrace(const Trace& trace);

}  // namespace diva::serve
