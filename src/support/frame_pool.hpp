#pragma once

#include <array>
#include <cstddef>
#include <new>

namespace diva::support {

/// Size-bucketed freelist for coroutine frames: every `sim::Task` and
/// `spawn` frame of a thread comes from one such pool (sim/task.hpp).
/// Blocks are rounded up to 64-byte classes; a freed block parks on its
/// class's freelist and the next allocation of that class pops it — so
/// steady-state churn performs zero heap traffic after warm-up. Blocks
/// larger than kMaxPooled fall through to the global heap. Everything
/// parked is released on destruction; blocks still outstanding are the
/// caller's to free (the pool never tracks them). Callers pass the block
/// size back on free, as a sized operator delete receives it.
///
/// Single-threaded by design: one pool per thread, never shared.
class FramePool {
 public:
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kMaxPooled = 4096;

  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  ~FramePool() {
    for (FreeNode*& head : buckets_) {
      while (head != nullptr) {
        FreeNode* next = head->next;
        ::operator delete(static_cast<void*>(head));
        head = next;
      }
    }
  }

  void* allocate(std::size_t n) {
    const std::size_t b = bucketOf(n);
    if (b >= kNumBuckets) return ::operator new(n);
    if (FreeNode* head = buckets_[b]) {
      buckets_[b] = head->next;
      return head;
    }
    return ::operator new((b + 1) * kGranularity);
  }

  /// `n` must be the size passed to the matching allocate().
  void deallocate(void* p, std::size_t n) {
    const std::size_t b = bucketOf(n);
    if (b >= kNumBuckets) {
      ::operator delete(p, n);
      return;
    }
    auto* node = static_cast<FreeNode*>(p);
    node->next = buckets_[b];
    buckets_[b] = node;
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  static constexpr std::size_t kNumBuckets = kMaxPooled / kGranularity;

  static std::size_t bucketOf(std::size_t n) {
    return n == 0 ? 0 : (n - 1) / kGranularity;
  }

  std::array<FreeNode*, kNumBuckets> buckets_{};
};

}  // namespace diva::support
