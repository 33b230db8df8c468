#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace diva::obs {

/// Trace categories, one bit each. A Tracer records an event only when
/// its category bit is enabled, so the trace volume of a long run is
/// bounded by construction, not by post-filtering.
using Cat = std::uint32_t;
inline constexpr Cat kCatTxn = 1u << 0;        ///< transactions (read / lock-write-unlock)
inline constexpr Cat kCatServe = 1u << 1;      ///< open-loop request queue→serve
inline constexpr Cat kCatMigration = 1u << 2;  ///< epoch migration / fixed-home re-homing handoffs
inline constexpr Cat kCatRepair = 1u << 3;     ///< crash-repair salvage & scrub traffic
inline constexpr Cat kCatReconfig = 1u << 4;   ///< structural reconfiguration epochs
inline constexpr Cat kCatFault = 1u << 5;      ///< fault instants (crash/recover, link down/up, degrade)
inline constexpr Cat kCatNet = 1u << 6;        ///< routing events (detours, parked flights)
inline constexpr Cat kCatPhase = 1u << 7;      ///< workload phase extents
inline constexpr Cat kCatAll = 0xffu;
inline constexpr int kNumCats = 8;

/// Category name for the Chrome `cat` field / `--trace-categories` flag;
/// index is the bit position.
const char* catName(int bit);
/// Parse a comma-separated category list ("txn,fault") into a mask;
/// "all" enables everything. Throws CheckError on an unknown name.
Cat parseCategories(const std::string& csv);

/// Simulated-time span/event tracer with per-node tracks, exported as
/// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
///
/// Contract with the simulator: the tracer is a pure observer. It never
/// schedules events, never draws randomness and never touches model
/// state, so a run records identically with tracing on or off — the
/// golden delivery-trace hashes pin this. Disabled (the default), every
/// record call is one mask test and an immediate return: no allocation,
/// no time lookup — the counting-allocator suite proves the steady state
/// stays allocation-free with a disabled tracer compiled into the path.
///
/// Event vocabulary (mirrors the Chrome trace-event `ph` field):
///  - begin()/end(): synchronous duration spans on one track. Callers
///    must nest them LIFO per track — the per-processor workload drivers
///    are sequential coroutines, so their spans nest by construction.
///  - instant(): a point event (faults, drops, detours).
///  - beginAsync()/endAsync(): id-correlated spans with no nesting
///    constraint — used for protocol handoffs (migration, repair) whose
///    begin and end happen on different nodes, with the variable id as
///    the correlation id.
///
/// Timestamps are the engine's simulated clock at record time, so record
/// order is already non-decreasing and per-track timestamps come out
/// monotone without a sort. Names passed as `const char*` must be
/// string literals (they are stored by pointer); dynamically built names
/// go through the interning overloads (cold paths only).
class Tracer {
 public:
  /// The machine-wide track (reconfiguration epochs, phase extents);
  /// node tracks are the non-negative processor ids.
  static constexpr std::int32_t kMachineTrack = -1;

  /// Arm the tracer: record events of the categories in `mask`,
  /// timestamped by `engine`. Pre-sizes the record store so steady
  /// recording only reallocates on unusually large traces.
  void enable(const sim::Engine& engine, Cat mask = kCatAll);
  bool enabled() const { return mask_ != 0; }
  bool on(Cat c) const { return (mask_ & c) != 0; }

  void begin(Cat c, std::int32_t track, const char* name) {
    if (!on(c)) return;
    push(c, track, name, 'B', kNoAux);
  }
  /// Begin with one numeric argument (rendered as `args:{v:aux}`), e.g.
  /// the queueing delay a serve span starts with.
  void begin(Cat c, std::int32_t track, const char* name, std::int64_t aux) {
    if (!on(c)) return;
    push(c, track, name, 'B', aux);
  }
  /// Interning begin for dynamically built names (phase spans). Cold.
  void beginDyn(Cat c, std::int32_t track, const std::string& name) {
    if (!on(c)) return;
    push(c, track, intern(name), 'B', kNoAux);
  }
  void end(Cat c, std::int32_t track) {
    if (!on(c)) return;
    push(c, track, nullptr, 'E', kNoAux);
  }
  void instant(Cat c, std::int32_t track, const char* name,
               std::int64_t aux = kNoAux) {
    if (!on(c)) return;
    push(c, track, name, 'i', aux);
  }
  void beginAsync(Cat c, std::int32_t track, const char* name, std::int64_t id) {
    if (!on(c)) return;
    push(c, track, name, 'b', id);
  }
  void endAsync(Cat c, std::int32_t track, const char* name, std::int64_t id) {
    if (!on(c)) return;
    push(c, track, name, 'e', id);
  }

  std::size_t numRecords() const { return records_.size(); }
  /// Records of category `c` (tests; linear scan).
  std::size_t numRecords(Cat c) const;
  void clear();

  /// Export as deterministic Chrome trace-event JSON: same run, same
  /// bytes. Tracks become (pid 0, tid track+1) with thread_name
  /// metadata; still-open sync/async spans (a run aborted mid-span) are
  /// closed at the final timestamp so the file always balances.
  void writeChromeJson(std::ostream& out) const;
  std::string toChromeJson() const;

 private:
  static constexpr std::int64_t kNoAux = INT64_MIN;

  struct Record {
    double ts;         ///< simulated µs
    const char* name;  ///< literal or interned; nullptr on 'E'
    std::int64_t aux;  ///< async id / instant arg / kNoAux
    std::int32_t track;
    char ph;           ///< 'B' 'E' 'i' 'b' 'e'
    std::uint8_t cat;  ///< category bit index
  };

  void push(Cat c, std::int32_t track, const char* name, char ph, std::int64_t aux);
  const char* intern(const std::string& name);

  Cat mask_ = 0;
  const sim::Engine* engine_ = nullptr;
  std::vector<Record> records_;
  std::deque<std::string> interned_;  ///< deque: stable addresses across growth
};

}  // namespace diva::obs
