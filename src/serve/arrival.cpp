#include "serve/arrival.hpp"

#include <bit>

#include "sim/time.hpp"
#include "support/check.hpp"

namespace diva::serve {

namespace {

/// Stream label for SplitMix64::split — distinct from the workload's
/// placement/access labels so arrival timing and access content of the
/// same (seed, phase, node) are independent streams.
constexpr std::uint64_t kArrivalStream = 0xa1112a7ull;  // "arriva"

/// ln 2 to double precision (0x1.62e42fefa39efp-1) — a constant, not a
/// libm call, so it is the same bit pattern everywhere.
constexpr double kLn2 = 0.6931471805599453;

/// One exponential inter-arrival draw with the given mean, inverse-CDF:
/// -ln(u) with u uniform in (0, 1]. uniform() returns [0, 1), so 1 - u
/// lies in (0, 1] and the log argument is never zero. The extreme draw
/// (u = 2^-53) gives ≈ 36.7 means — a long but finite gap.
double exponential(support::SplitMix64& rng, double meanUs) {
  return -portableLog(1.0 - rng.uniform()) * meanUs;
}

}  // namespace

double portableLog(double x) {
  DIVA_CHECK_MSG(x > 0.0 && x < 1e300, "portableLog: argument must be in (0, 1e300) "
                                       "(got " << x << ")");
  // Decompose x = m · 2^e with m ∈ [1, 2) straight from the IEEE bits
  // (x > 0 rules out sign; subnormals cannot reach here because the
  // smallest argument we ever see is 2^-53).
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  int e = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
  double m = std::bit_cast<double>((bits & 0x000fffffffffffffull) |
                                   0x3ff0000000000000ull);
  // Re-center m into [√½, √2) so |t| ≤ 0.1716 below: halving the odd
  // octave is exact (power of two), and the threshold constant only
  // decides which exact branch runs — determinism is unaffected.
  if (m > 1.4142135623730951) {
    m *= 0.5;
    ++e;
  }
  // ln m = 2 atanh(t) with t = (m-1)/(m+1): the odd series
  // 2t (1 + t²/3 + t⁴/5 + …) truncated at a fixed 10 terms; with
  // t² ≤ 0.0295 the first dropped term is below 2^-100 of the sum, so
  // the truncation never shows in a double.
  const double t = (m - 1.0) / (m + 1.0);
  const double t2 = t * t;
  double sum = 0.0;
  for (int k = 9; k >= 1; --k) {
    sum = t2 * (1.0 / static_cast<double>(2 * k + 1) + sum);
  }
  return static_cast<double>(e) * kLn2 + 2.0 * t * (1.0 + sum);
}

const char* arrivalKindName(ArrivalSpec::Kind kind) {
  switch (kind) {
    case ArrivalSpec::Kind::None: return "none";
    case ArrivalSpec::Kind::Fixed: return "fixed";
    case ArrivalSpec::Kind::Poisson: return "poisson";
    case ArrivalSpec::Kind::Burst: return "burst";
  }
  return "?";
}

void ArrivalSpec::validate(const char* context) const {
  if (kind == Kind::None) {
    DIVA_CHECK_MSG(ratePerSec == 0.0 && burstOnUs == 0.0 && burstOffUs == 0.0,
                   context << ": closed-loop phases must not set arrival parameters");
    return;
  }
  // The mean interval 1e6/rate, like the windows, stays under
  // sim::kMaxInputTime, so every arrival time is finite.
  DIVA_CHECK_MSG(ratePerSec > 0.0 && 1e6 / ratePerSec <= sim::kMaxInputTime,
                 context << ": arrival rate must be at least 1e6/2^53 per second (got "
                         << ratePerSec << ")");
  if (kind == Kind::Burst) {
    DIVA_CHECK_MSG(burstOnUs > 0.0 && burstOffUs > 0.0 && burstOnUs <= sim::kMaxInputTime &&
                       burstOffUs <= sim::kMaxInputTime,
                   context << ": burst on/off windows must be in (0, 2^53] (got "
                           << burstOnUs << "/" << burstOffUs << ")");
  } else {
    DIVA_CHECK_MSG(burstOnUs == 0.0 && burstOffUs == 0.0,
                   context << ": on/off windows only apply to burst arrivals");
  }
}

std::vector<double> generateArrivals(const ArrivalSpec& spec, int count, int procs,
                                     std::uint64_t seed, int phase, net::NodeId node) {
  spec.validate("generateArrivals");
  DIVA_CHECK_MSG(spec.kind != ArrivalSpec::Kind::None,
                 "generateArrivals: closed-loop phases have no schedule");
  DIVA_CHECK_MSG(count >= 0 && procs >= 1 && node >= 0 && node < procs,
                 "generateArrivals: bad count/procs/node ("
                     << count << "/" << procs << "/" << node << ")");
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(count));
  // Each node carries 1/procs of the aggregate rate.
  const double meanIntervalUs =
      1e6 * static_cast<double>(procs) / spec.ratePerSec;
  switch (spec.kind) {
    case ArrivalSpec::Kind::None:
      break;
    case ArrivalSpec::Kind::Fixed: {
      // Aggregate arrivals exactly 1/rate apart, round-robin across
      // nodes: node n fires at (k·procs + n + 1) / rate — a perfectly
      // paced deterministic stream with no synchronized bursts.
      const double tickUs = 1e6 / spec.ratePerSec;
      for (int k = 0; k < count; ++k) {
        times.push_back(
            (static_cast<double>(k) * static_cast<double>(procs) +
             static_cast<double>(node) + 1.0) *
            tickUs);
      }
      break;
    }
    case ArrivalSpec::Kind::Poisson: {
      support::SplitMix64 rng = support::SplitMix64(seed)
                                    .split(kArrivalStream)
                                    .split(static_cast<std::uint64_t>(phase))
                                    .split(static_cast<std::uint64_t>(
                                        static_cast<std::uint32_t>(node)));
      double t = 0.0;
      for (int k = 0; k < count; ++k) {
        t += exponential(rng, meanIntervalUs);
        times.push_back(t);
      }
      break;
    }
    case ArrivalSpec::Kind::Burst: {
      // Poisson at the full in-burst rate on the "active time" axis,
      // then mapped onto the wall clock by skipping the deterministic
      // off-windows: active time a lands at
      // wall = ⌊a/on⌋·(on+off) + (a mod on).
      support::SplitMix64 rng = support::SplitMix64(seed)
                                    .split(kArrivalStream)
                                    .split(static_cast<std::uint64_t>(phase))
                                    .split(static_cast<std::uint64_t>(
                                        static_cast<std::uint32_t>(node)));
      double active = 0.0;
      for (int k = 0; k < count; ++k) {
        active += exponential(rng, meanIntervalUs);
        const double windows = static_cast<double>(
            static_cast<std::uint64_t>(active / spec.burstOnUs));
        times.push_back(windows * (spec.burstOnUs + spec.burstOffUs) +
                        (active - windows * spec.burstOnUs));
      }
      break;
    }
  }
  // Strict ascent: exponential draws can be 0 at double precision; nudge
  // duplicates apart so per-node arrivals stay strictly ordered (the
  // driver relies on FIFO processing order within a node).
  for (std::size_t i = 1; i < times.size(); ++i) {
    if (times[i] <= times[i - 1]) times[i] = times[i - 1] + 1e-9;
  }
  return times;
}

}  // namespace diva::serve
