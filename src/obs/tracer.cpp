#include "obs/tracer.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "support/check.hpp"
#include "support/kind_named.hpp"

namespace diva::obs {
namespace {

constexpr const char* kCatNames[kNumCats] = {
    "txn", "serve", "migration", "repair",
    "reconfig", "fault", "net", "phase",
};

/// Chrome tid for a track: node n -> n+1, machine track (-1) -> 0, so
/// every tid is non-negative and the machine track sorts first.
int tid(std::int32_t track) { return track + 1; }

}  // namespace

const char* catName(int bit) {
  DIVA_CHECK(bit >= 0 && bit < kNumCats);
  return kCatNames[bit];
}

Cat parseCategories(const std::string& csv) {
  Cat mask = 0;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const std::string tok = csv.substr(pos, comma - pos);
    pos = comma + 1;
    DIVA_CHECK_MSG(!tok.empty(), "empty trace category in '" << csv << "'");
    if (tok == "all") {
      mask |= kCatAll;
      continue;
    }
    const std::optional<int> bit = support::kindNamed(tok, kNumCats - 1, catName);
    DIVA_CHECK_MSG(bit, "unknown trace category: " + tok);
    mask |= Cat{1} << *bit;
  }
  return mask;
}

void Tracer::enable(const sim::Engine& engine, Cat mask) {
  engine_ = &engine;
  mask_ = mask & kCatAll;
  if (records_.capacity() < (1u << 16)) records_.reserve(1u << 16);
}

void Tracer::clear() {
  records_.clear();
  interned_.clear();
}

std::size_t Tracer::numRecords(Cat c) const {
  std::size_t n = 0;
  for (const Record& r : records_)
    if ((Cat{1} << r.cat) & c) ++n;
  return n;
}

void Tracer::push(Cat c, std::int32_t track, const char* name, char ph,
                  std::int64_t aux) {
  int bit = 0;
  while (!((c >> bit) & 1u)) ++bit;
  records_.push_back(Record{engine_->now(), name, aux, track, ph,
                            static_cast<std::uint8_t>(bit)});
}

const char* Tracer::intern(const std::string& name) {
  for (const std::string& s : interned_)
    if (s == name) return s.c_str();
  interned_.push_back(name);
  return interned_.back().c_str();
}

void Tracer::writeChromeJson(std::ostream& out) const {
  // JSON-escape a name. Names are ASCII identifiers in practice; this
  // covers the general case anyway.
  auto escape = [](const char* s) {
    std::string r;
    for (; *s; ++s) {
      if (*s == '"' || *s == '\\') r += '\\';
      r += *s;
    }
    return r;
  };
  char ts[32];
  auto fmtTs = [&ts](double t) {
    std::snprintf(ts, sizeof ts, "%.3f", t);
    return ts;
  };

  // Pass 1: collect the tracks that appear (for thread_name metadata)
  // and the end-of-trace timestamp used to auto-close open spans.
  std::set<std::int32_t> tracks;
  double endTs = 0.0;
  for (const Record& r : records_) {
    tracks.insert(r.track);
    endTs = std::max(endTs, r.ts);
  }

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
         "\"args\":{\"name\":\"diva\"}}";
  for (std::int32_t track : tracks) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
        << tid(track) << ",\"args\":{\"name\":\"";
    if (track == kMachineTrack)
      out << "machine";
    else
      out << "node " << track;
    out << "\"}}";
  }

  // Pass 2: emit records in insertion order (simulated time is
  // non-decreasing by construction), tracking open sync spans per track
  // and open async spans per (cat,name,id) so an aborted run still
  // exports a balanced file.
  std::map<std::int32_t, std::size_t> syncDepth;
  std::map<std::tuple<int, const char*, std::int64_t>,
           std::pair<std::int32_t, std::size_t>>
      asyncOpen;  // -> (last track, open count)
  for (const Record& r : records_) {
    out << ",\n{";
    if (r.ph != 'E')
      out << "\"name\":\"" << escape(r.name) << "\",";
    out << "\"cat\":\"" << kCatNames[r.cat] << "\",\"ph\":\"" << r.ph
        << "\",\"ts\":" << fmtTs(r.ts) << ",\"pid\":0,\"tid\":" << tid(r.track);
    switch (r.ph) {
      case 'B':
        ++syncDepth[r.track];
        if (r.aux != kNoAux) out << ",\"args\":{\"v\":" << r.aux << "}";
        break;
      case 'E':
        if (syncDepth[r.track] > 0) --syncDepth[r.track];
        break;
      case 'i':
        out << ",\"s\":\"t\"";
        if (r.aux != kNoAux) out << ",\"args\":{\"v\":" << r.aux << "}";
        break;
      case 'b': {
        auto& open = asyncOpen[{r.cat, r.name, r.aux}];
        open.first = r.track;
        ++open.second;
        out << ",\"id\":" << r.aux;
        break;
      }
      case 'e': {
        auto& open = asyncOpen[{r.cat, r.name, r.aux}];
        if (open.second > 0) --open.second;
        out << ",\"id\":" << r.aux;
        break;
      }
    }
    out << "}";
  }

  // Auto-close whatever is still open, at the final timestamp.
  for (const auto& [track, depth] : syncDepth) {
    for (std::size_t i = 0; i < depth; ++i)
      out << ",\n{\"ph\":\"E\",\"ts\":" << fmtTs(endTs)
          << ",\"pid\":0,\"tid\":" << tid(track) << "}";
  }
  for (const auto& [key, open] : asyncOpen) {
    const auto& [cat, name, id] = key;
    for (std::size_t i = 0; i < open.second; ++i)
      out << ",\n{\"name\":\"" << escape(name) << "\",\"cat\":\""
          << kCatNames[cat] << "\",\"ph\":\"e\",\"ts\":" << fmtTs(endTs)
          << ",\"pid\":0,\"tid\":" << tid(open.first) << ",\"id\":" << id
          << "}";
  }
  out << "\n]}\n";
}

std::string Tracer::toChromeJson() const {
  std::ostringstream os;
  writeChromeJson(os);
  return os.str();
}

}  // namespace diva::obs
