#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace diva::serve {
class LatencyHistogram;
}

namespace diva::obs {

/// Unified, ordered registry of named metrics.
///
/// Names are slash-separated paths ("ops/reads", "phase/0/wall_us");
/// the JSON writer folds the path segments into nested objects (and
/// consecutive integer segments into arrays). Entries come in four
/// flavours:
///  - counter: a borrowed `const uint64_t*` read at sample time — the
///    existing Stats/LinkStats counters register their own storage, no
///    double bookkeeping;
///  - gauge: an arbitrary `double()` callback read at sample time;
///  - value: a number captured at registration (report snapshots);
///  - text: a string captured at registration (names, labels).
/// histogram() is a convenience that expands a serve::LatencyHistogram
/// into count/p50/p90/p99/p999/max/mean gauges.
///
/// Registration is cold-path and may allocate; reading is not required
/// to. mark()/truncate() scope registrations whose referents have phase
/// lifetime (the open-loop in-flight gauge lives exactly one phase).
class MetricsRegistry {
 public:
  enum class Kind : std::uint8_t { Counter, Gauge, Value, Text };
  using GaugeFn = std::function<double()>;

  void counter(std::string name, const std::uint64_t* v) {
    entries_.push_back({std::move(name), {}, nullptr, v, 0.0, Kind::Counter});
  }
  void gauge(std::string name, GaugeFn fn) {
    entries_.push_back(
        {std::move(name), {}, std::move(fn), nullptr, 0.0, Kind::Gauge});
  }
  void value(std::string name, double v) {
    entries_.push_back({std::move(name), {}, nullptr, nullptr, v, Kind::Value});
  }
  void text(std::string name, std::string v) {
    entries_.push_back(
        {std::move(name), std::move(v), nullptr, nullptr, 0.0, Kind::Text});
  }
  void histogram(std::string name, const serve::LatencyHistogram* h);

  std::size_t size() const { return entries_.size(); }
  /// Scoped registration: remember the current size, register
  /// phase-lifetime entries, then truncate back before their referents
  /// die.
  std::size_t mark() const { return entries_.size(); }
  void truncate(std::size_t mark) { entries_.resize(mark); }
  void clear() { entries_.clear(); }

  const std::string& nameAt(std::size_t i) const { return entries_[i].name; }
  bool isNumeric(std::size_t i) const { return entries_[i].kind != Kind::Text; }
  double numberAt(std::size_t i) const {
    const Entry& e = entries_[i];
    switch (e.kind) {
      case Kind::Counter: return static_cast<double>(*e.ptr);
      case Kind::Gauge: return e.fn();
      default: return e.num;
    }
  }
  const std::string& textAt(std::size_t i) const { return entries_[i].str; }

  /// Render the registry as nested JSON, reading counters/gauges now.
  /// Deterministic: insertion order, fixed number formatting (integers
  /// without a decimal point, else shortest %.10g).
  void writeJson(std::ostream& out) const;
  std::string toJson() const;

 private:
  struct Entry {
    std::string name;
    std::string str;
    GaugeFn fn;
    const std::uint64_t* ptr;
    double num;
    Kind kind;
  };
  std::vector<Entry> entries_;
};

/// Deterministic JSON number formatting shared by the registry, the
/// sampler and the trace writer: integral values print as integers,
/// everything else as %.10g.
std::string jsonNumber(double v);

}  // namespace diva::obs
