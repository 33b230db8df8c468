#pragma once

namespace diva::sim {

/// Simulated time, in microseconds. A double gives us ~2^53 µs (~285 years)
/// of exactly representable integer microseconds — far beyond any run — and
/// the single-threaded engine evaluates identical expressions in identical
/// order, so runs are bit-reproducible.
using Time = double;

inline constexpr Time kTimeZero = 0.0;

}  // namespace diva::sim
