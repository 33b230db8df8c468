#include "serve/trace.hpp"

#include <limits>
#include <optional>
#include <sstream>

#include "sim/time.hpp"
#include "support/check.hpp"
#include "support/text_file.hpp"

namespace diva::serve {

Trace parseTrace(const std::string& text) {
  Trace trace;
  bool haveObjects = false;
  int maxObject = -1;
  double lastTime = 0.0;
  support::LineReader in(text, "trace");
  while (in.next()) {
    const std::string word = in.word("directive");
    if (word == "trace") {
      trace.name = in.word("trace name");
    } else if (word == "objects") {
      DIVA_CHECK_MSG(!haveObjects, in.where() << "duplicate 'objects' line");
      haveObjects = true;
      trace.numObjects = in.value<int>("object count");
      DIVA_CHECK_MSG(trace.numObjects >= 1, in.where() << "object count must be positive");
      if (in.more()) {
        trace.objectBytes = in.value<std::uint64_t>("object size");
        DIVA_CHECK_MSG(trace.objectBytes >= 1, in.where() << "object size must be positive");
      }
    } else {
      // A request line: <t> <node> <r|w> <object>. The first token was
      // already consumed as `word` — re-parse it as the arrival time.
      const std::optional<double> t = support::LineReader::parse<double>(word);
      DIVA_CHECK_MSG(t, in.where() << "expected a request line '<t> <node> <r|w> <object>' "
                                      "or a directive, got '"
                                   << word << "'");
      TraceRequest req;
      req.timeUs = *t;
      DIVA_CHECK_MSG(req.timeUs >= 0.0 && req.timeUs <= sim::kMaxInputTime,
                     in.where() << "arrival time must be in [0, 2^53]");
      DIVA_CHECK_MSG(req.timeUs >= lastTime,
                     in.where() << "arrival times must be non-decreasing (" << req.timeUs
                                << " after " << lastTime << ")");
      lastTime = req.timeUs;
      req.node = in.value<net::NodeId>("node id");
      DIVA_CHECK_MSG(req.node >= 0, in.where() << "node id must be >= 0");
      const std::string op = in.word("op ('r' or 'w')");
      DIVA_CHECK_MSG(op == "r" || op == "w",
                     in.where() << "op must be 'r' or 'w' (got '" << op << "')");
      req.isRead = op == "r";
      req.object = in.value<int>("object id");
      DIVA_CHECK_MSG(req.object >= 0, in.where() << "object id must be >= 0");
      if (req.object > maxObject) maxObject = req.object;
      in.end("request");
      trace.requests.push_back(req);
      continue;
    }
    in.end(word);
  }
  if (haveObjects) {
    DIVA_CHECK_MSG(maxObject < trace.numObjects,
                   "trace file: request object id " << maxObject
                                                    << " outside declared population "
                                                    << trace.numObjects);
  } else {
    trace.numObjects = maxObject + 1;
  }
  DIVA_CHECK_MSG(!trace.requests.empty(), "trace file has no request lines");
  return trace;
}

Trace loadTraceFile(const std::string& path) {
  return support::parseTextFile(path, "trace", parseTrace);
}

std::string formatTrace(const Trace& trace) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "trace " << trace.name << "\n";
  out << "objects " << trace.numObjects << " " << trace.objectBytes << "\n";
  for (const TraceRequest& req : trace.requests) {
    out << req.timeUs << " " << req.node << " " << (req.isRead ? "r" : "w") << " "
        << req.object << "\n";
  }
  return out.str();
}

}  // namespace diva::serve
