#pragma once

namespace diva::sim {

/// Simulated time, in microseconds. A double gives us ~2^53 µs (~285 years)
/// of exactly representable integer microseconds — far beyond any run — and
/// the single-threaded engine evaluates identical expressions in identical
/// order, so runs are bit-reproducible.
using Time = double;

inline constexpr Time kTimeZero = 0.0;

/// Ceiling on every time-valued input (think times, arrival intervals,
/// burst windows, fault offsets, trace arrival times) and on the link-cost
/// factors that scale per-hop times (edge weights and latencies, degrade
/// multipliers): 2^53, the exactly representable range above. Inputs
/// below it keep every sum and product a run forms finite.
inline constexpr double kMaxInputTime = 9007199254740992.0;

}  // namespace diva::sim
