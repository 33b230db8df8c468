#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "net/link_stats.hpp"
#include "net/topology.hpp"
#include "sim/time.hpp"

namespace diva {

/// Measurement state for one simulated run: per-link traffic (with phase
/// scoping), operation counters, and per-phase simulated wall/compute
/// time. Everything here is an observer — it never influences the run.
class Stats {
 public:
  /// Phase storage starts at one phase and grows as `setPhase` enters
  /// later ones; a phase never entered reads as 0.
  explicit Stats(const net::Topology& topo)
      : links(topo.numLinkSlots()), computeUs_(1, 0.0), wallUs_(1, 0.0) {}

  net::LinkStats links;

  struct Counters {
    std::uint64_t reads = 0;
    std::uint64_t readHits = 0;     ///< served from the local cache
    std::uint64_t writes = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t barriers = 0;
    std::uint64_t locks = 0;
    std::uint64_t evictions = 0;
    std::uint64_t evictionFailures = 0;
    // Fault/repair accounting (docs/faults.md); all zero on healthy runs.
    std::uint64_t failedOps = 0;        ///< ops abandoned because the issuer was down
    std::uint64_t retriedOps = 0;       ///< op retries while the issuer was down
    std::uint64_t repairedVars = 0;     ///< per-variable repair actions after crashes
    std::uint64_t recoveryMessages = 0; ///< messages attributable to repair
    std::uint64_t recoveryBytes = 0;    ///< payload bytes moved by repair
    // Reconfiguration accounting (docs/faults.md "Reconfiguration"); all
    // zero on fixed-shape runs.
    std::uint64_t migratedVars = 0;       ///< variables re-homed across epochs
    std::uint64_t migrationMessages = 0;  ///< messages attributable to migration
    std::uint64_t migrationBytes = 0;     ///< payload bytes moved by migration
    std::uint64_t forwardedOps = 0;       ///< ops forwarded during handoff windows

    /// Field-wise `*this - before`: what accrued since `before` was taken
    /// (a workload phase's share of the run). Every field is a uint64_t
    /// count, so the set subtracts as one flat array.
    Counters operator-(const Counters& before) const {
      static_assert(std::has_unique_object_representations_v<Counters> &&
                    sizeof(Counters) % sizeof(std::uint64_t) == 0);
      using Flat = std::array<std::uint64_t, sizeof(Counters) / sizeof(std::uint64_t)>;
      Flat d = std::bit_cast<Flat>(*this);
      const Flat b = std::bit_cast<Flat>(before);
      for (std::size_t i = 0; i < d.size(); ++i) d[i] -= b[i];
      return std::bit_cast<Counters>(d);
    }
  } ops;

  /// Enter phase `p`, growing phase storage to cover it; growth appends
  /// zeroed slots and never moves counts.
  void setPhase(int p, sim::Time now) {
    links.setPhase(p);  // validates p
    wallUs_[phase_] += now - phaseStart_;
    if (static_cast<std::size_t>(p) >= wallUs_.size()) {
      computeUs_.resize(static_cast<std::size_t>(p) + 1, 0.0);
      wallUs_.resize(static_cast<std::size_t>(p) + 1, 0.0);
    }
    phase_ = p;
    phaseStart_ = now;
  }
  int currentPhase() const { return phase_; }

  /// Charge `us` of application compute to the current phase.
  void addCompute(double us) { computeUs_[phase_] += us; }

  double computeUs(int phase) const { return phaseValue(computeUs_, phase); }
  /// Simulated wall time spent while `phase` was current (closed via
  /// setPhase / closePhases).
  double wallUs(int phase) const { return phaseValue(wallUs_, phase); }

  void closePhases(sim::Time now) {
    wallUs_[phase_] += now - phaseStart_;
    phaseStart_ = now;
  }

  /// Reset all measurements (e.g. after warm-up rounds); keeps the
  /// current phase.
  void reset(sim::Time now) {
    links.reset();
    ops = Counters{};
    std::fill(computeUs_.begin(), computeUs_.end(), 0.0);
    std::fill(wallUs_.begin(), wallUs_.end(), 0.0);
    phaseStart_ = now;
  }

 private:
  static double phaseValue(const std::vector<double>& v, int phase) {
    return static_cast<std::size_t>(phase) < v.size() ? v[static_cast<std::size_t>(phase)] : 0.0;
  }

  int phase_ = 0;
  sim::Time phaseStart_ = 0;
  std::vector<double> computeUs_;
  std::vector<double> wallUs_;
};

}  // namespace diva
