#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace diva::support {

/// Recycling slab pool. Objects are default-constructed once, handed out
/// by `acquire()`, returned by `release()` *without being destroyed*, and
/// reused — so any internal capacity an object accumulates (a spilled
/// route buffer, a grown container) stays warm across uses. Every object
/// the pool ever constructed — including those still "live" at teardown —
/// is destroyed exactly once in the destructor. That last property is
/// what fixes the pending-event leak: if the simulation stops with
/// messages still in flight, their pooled state is reclaimed with the
/// pool instead of dangling from never-run event closures.
///
/// Steady state (release/acquire cycles at a stable high-water mark)
/// performs no heap allocation.
template <typename T, std::size_t SlabSize = 256>
class ObjectPool {
  static_assert(SlabSize > 0);

 public:
  ObjectPool() = default;
  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  ~ObjectPool() {
    for (Slab& slab : slabs_) {
      for (std::size_t i = 0; i < slab.used; ++i) slab.data[i].~T();
      ::operator delete(slab.data, std::align_val_t{alignof(T)});
    }
  }

  /// Returns a recycled object (in whatever state its previous user left
  /// it — callers reset the fields they use) or a freshly
  /// default-constructed one.
  T* acquire() {
    if (!free_.empty()) {
      T* p = free_.back();
      free_.pop_back();
      return p;
    }
    if (slabs_.empty() || slabs_.back().used == SlabSize) {
      slabs_.push_back(Slab{
          static_cast<T*>(::operator new(SlabSize * sizeof(T), std::align_val_t{alignof(T)})),
          0});
    }
    Slab& slab = slabs_.back();
    T* p = ::new (static_cast<void*>(slab.data + slab.used)) T();
    ++slab.used;
    return p;
  }

  /// Return an object to the free list. It is not destroyed; it must have
  /// come from this pool's `acquire()`.
  void release(T* p) { free_.push_back(p); }

  /// Pre-construct `n` objects so a burst of that many concurrent
  /// acquires — and the free-list traffic of recycling them — performs
  /// no allocation. Counts from the pool's current state: the `n`
  /// objects are acquired (recycling any free ones first) and released
  /// again, which also grows the free list's capacity to at least `n`.
  void reserve(std::size_t n) {
    std::vector<T*> held;
    held.reserve(n);
    for (std::size_t i = 0; i < n; ++i) held.push_back(acquire());
    for (T* p : held) release(p);
  }

 private:
  struct Slab {
    T* data;
    std::size_t used;
  };

  std::vector<Slab> slabs_;
  std::vector<T*> free_;
};

}  // namespace diva::support
