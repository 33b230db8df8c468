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
  /// Phases available without growth; `ensurePhases` extends past this.
  static constexpr int kMaxPhases = 8;

  explicit Stats(const net::Topology& topo)
      : links(topo.numLinkSlots(), kMaxPhases),
        computeUs_(kMaxPhases, 0.0),
        wallUs_(kMaxPhases, 0.0) {}

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

  void setPhase(int p, sim::Time now) {
    wallUs_[phase_] += now - phaseStart_;
    phase_ = p;
    phaseStart_ = now;
    links.setPhase(p);
  }
  int currentPhase() const { return phase_; }
  int numPhases() const { return static_cast<int>(wallUs_.size()); }

  /// Grow phase-scoped storage (link cells, wall/compute accumulators) to
  /// at least `n` phases. Workloads with more phases than kMaxPhases call
  /// this once up front; growth appends zeroed slots, never moves counts.
  void ensurePhases(int n) {
    if (n <= numPhases()) return;
    links.ensurePhases(n);
    computeUs_.resize(static_cast<std::size_t>(n), 0.0);
    wallUs_.resize(static_cast<std::size_t>(n), 0.0);
  }

  /// Charge `us` of application compute to the current phase.
  void addCompute(double us) { computeUs_[phase_] += us; }

  double computeUs(int phase) const { return computeUs_[phase]; }
  /// Simulated wall time spent while `phase` was current (closed via
  /// setPhase / closePhases).
  double wallUs(int phase) const { return wallUs_[phase]; }

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
  int phase_ = 0;
  sim::Time phaseStart_ = 0;
  std::vector<double> computeUs_;
  std::vector<double> wallUs_;
};

}  // namespace diva
