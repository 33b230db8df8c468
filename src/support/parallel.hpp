#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <limits>
#include <system_error>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace diva::support {

/// Worker count for a parallel build phase: the CPUs this process may
/// run on (its affinity mask on Linux, else the hardware threads), at
/// least 1. `parallelFor` clamps it to the item count. A CPU-time quota
/// without a CPU set is not seen, so such a process starts one worker
/// per CPU of the host.
inline int hardwareWorkers() {
#if defined(__linux__)
  cpu_set_t usable;
  if (sched_getaffinity(0, sizeof usable, &usable) == 0) return std::max(1, CPU_COUNT(&usable));
#endif
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Runs `body(state, i)` for every i in [0, count) on up to `workers`
/// threads, the caller being worker 0, so one worker (or one item)
/// spawns nothing and runs the loop inline. Each worker builds its
/// state once, with `makeState()`, before its first item, and claims
/// items in ascending order from one shared counter, so the body must
/// write only what item i owns. The call returns after every worker has
/// joined.
///
/// Failure matches the serial loop: an exception is kept with its item
/// index, no item is claimed after one fails, and the lowest-index
/// exception is rethrown after the join. Every item below a failing one
/// was claimed before it, so that is the exception the serial loop would
/// have thrown first. A worker that cannot be started leaves its share
/// to the others.
template <typename MakeState, typename Body>
void parallelFor(int workers, std::size_t count, MakeState&& makeState, Body&& body) {
  if (count == 0) return;
  const std::size_t threads = std::min(static_cast<std::size_t>(std::max(workers, 1)), count);

  struct Failure {
    std::size_t index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  };
  std::vector<Failure> failures(threads);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  const auto work = [&](std::size_t worker) {
    Failure& mine = failures[worker];
    std::size_t i = count;  // a failing makeState ranks after every item
    try {
      auto state = makeState();
      while (!failed.load(std::memory_order_relaxed)) {
        i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        body(state, i);
      }
    } catch (...) {
      mine.index = i;
      mine.error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };
  {
    std::vector<std::jthread> pool;  // joins on scope exit
    pool.reserve(threads - 1);
    try {
      for (std::size_t w = 1; w < threads; ++w) pool.emplace_back(work, w);
    } catch (const std::system_error&) {
      // Fewer workers: the items are claimed from one counter, so the
      // ones already running and the caller cover the rest.
    }
    work(0);
  }
  const auto first = std::min_element(
      failures.begin(), failures.end(),
      [](const Failure& a, const Failure& b) { return a.index < b.index; });
  if (first->error) std::rethrow_exception(first->error);
}

}  // namespace diva::support
