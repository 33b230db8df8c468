#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/check.hpp"

namespace diva::net {

/// Per-directed-link traffic accounting, with optional phase scoping.
///
/// Congestion — the paper's central metric — is the maximum, over all
/// directed links, of the traffic carried by that link. We track both
/// message counts (used for the Barnes–Hut figures, which report
/// "congestion in 10000 messages") and bytes (the natural unit for the
/// matrix-multiplication and sorting ratios). Phases let the Barnes–Hut
/// benches report per-phase congestion (Figures 9 and 10). Links are the
/// directed-link slots of any `Topology` (`Topology::linkIndex`).
class LinkStats {
 public:
  static constexpr int kAllPhases = -1;

  /// Starts with one phase; `setPhase` grows the phase dimension to cover
  /// the phases entered, and a phase never entered reads as 0.
  explicit LinkStats(int numLinkSlots)
      : slots_(numLinkSlots), cells_(static_cast<std::size_t>(numLinkSlots)) {}

  int numPhases() const { return phases_; }
  int currentPhase() const { return phase_; }

  /// Enter phase `p`. The cell layout is phase-major, so growing the phase
  /// dimension appends zeroed cells without moving existing counts.
  void setPhase(int p) {
    DIVA_CHECK(p >= 0);
    if (p >= phases_) {
      phases_ = p + 1;
      cells_.resize(static_cast<std::size_t>(phases_) * slots_, Cell{});
    }
    phase_ = p;
  }

  /// Hot path (once per link crossing): message count and byte count live
  /// in one interleaved cell, so recording touches a single cache line.
  void record(int link, std::uint64_t wireBytes) {
    Cell& c = cells_[static_cast<std::size_t>(phase_) * slots_ + link];
    ++c.msgs;
    c.bytes += wireBytes;
  }

  /// Max over links of per-link message count (within one phase, or overall).
  std::uint64_t congestionMessages(int phase = kAllPhases) const {
    return maxOver(&Cell::msgs, phase);
  }
  std::uint64_t congestionBytes(int phase = kAllPhases) const {
    return maxOver(&Cell::bytes, phase);
  }
  /// Total communication load: sum over links.
  std::uint64_t totalMessages(int phase = kAllPhases) const {
    return sumOver(&Cell::msgs, phase);
  }
  std::uint64_t totalBytes(int phase = kAllPhases) const {
    return sumOver(&Cell::bytes, phase);
  }

  std::uint64_t linkMessages(int link, int phase = kAllPhases) const {
    return cellOver(&Cell::msgs, link, phase);
  }
  std::uint64_t linkBytes(int link, int phase = kAllPhases) const {
    return cellOver(&Cell::bytes, link, phase);
  }

  /// Renumber the link dimension after a structural reconfiguration
  /// (docs/faults.md): `oldToNew[l]` is surviving link l's new slot, -1
  /// for removed links (their counts are dropped — a removed link carries
  /// no further traffic, and congestion is recomputed per phase from the
  /// surviving cells). New links start zeroed.
  void remap(const std::vector<int>& oldToNew, int newSlots) {
    DIVA_CHECK(static_cast<int>(oldToNew.size()) == slots_ && newSlots >= 0);
    std::vector<Cell> grown(static_cast<std::size_t>(phases_) * newSlots, Cell{});
    for (int p = 0; p < phases_; ++p)
      for (int l = 0; l < slots_; ++l) {
        const int nl = oldToNew[static_cast<std::size_t>(l)];
        if (nl < 0) continue;
        DIVA_CHECK(nl < newSlots);
        grown[static_cast<std::size_t>(p) * newSlots + nl] =
            cells_[static_cast<std::size_t>(p) * slots_ + l];
      }
    cells_ = std::move(grown);
    slots_ = newSlots;
  }

  void reset() { std::fill(cells_.begin(), cells_.end(), Cell{}); }

 private:
  struct Cell {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };

  std::uint64_t cellOver(std::uint64_t Cell::* field, int link, int phase) const {
    if (phase != kAllPhases)
      return phase < phases_ ? cells_[static_cast<std::size_t>(phase) * slots_ + link].*field
                             : 0;
    std::uint64_t s = 0;
    for (int p = 0; p < phases_; ++p)
      s += cells_[static_cast<std::size_t>(p) * slots_ + link].*field;
    return s;
  }
  std::uint64_t maxOver(std::uint64_t Cell::* field, int phase) const {
    std::uint64_t best = 0;
    for (int l = 0; l < slots_; ++l) best = std::max(best, cellOver(field, l, phase));
    return best;
  }
  std::uint64_t sumOver(std::uint64_t Cell::* field, int phase) const {
    std::uint64_t s = 0;
    for (int l = 0; l < slots_; ++l) s += cellOver(field, l, phase);
    return s;
  }

  int slots_;
  int phases_ = 1;
  int phase_ = 0;
  std::vector<Cell> cells_;
};

}  // namespace diva::net
