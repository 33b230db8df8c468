#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "diva/types.hpp"
#include "support/small_vec.hpp"

namespace diva {

/// Per-processor memory module acting as a cache for global variables
/// (the COMA view: every memory module is a big cache with LRU
/// replacement). The cache itself is policy-free about *which* entries
/// may be evicted — the data-management strategy decides that, because
/// evicting a copy has protocol consequences (tree connectivity, home
/// copy sets). The cache only tracks recency and byte occupancy.
class NodeCache {
 public:
  struct Entry {
    Value value;
    /// Access tree strategy: the variable's access-tree nodes hosted here
    /// that hold a copy, in no particular order (the fixed home strategy
    /// leaves it empty).
    support::SmallVec<std::int32_t, 4> copyNodes;
    /// Access tree strategy: the variable's generation when replacement
    /// last refused this entry (0 = never refused).
    std::uint64_t refusedAt = 0;
    /// Fixed home strategy: this processor is the variable's owner.
    bool owned = false;
    std::list<VarId>::iterator lruIt;  ///< position in the LRU list
  };

  explicit NodeCache(std::uint64_t capacityBytes = ~0ull) : capacity_(capacityBytes) {}

  std::uint64_t capacityBytes() const { return capacity_; }
  std::uint64_t usedBytes() const { return used_; }
  bool overCapacity() const { return used_ > capacity_; }
  std::size_t numEntries() const { return map_.size(); }

  /// Look up without touching recency (protocol bookkeeping).
  Entry* peek(VarId v) {
    auto it = map_.find(v);
    return it == map_.end() ? nullptr : &it->second;
  }
  const Entry* peek(VarId v) const {
    auto it = map_.find(v);
    return it == map_.end() ? nullptr : &it->second;
  }

  /// Look up and mark as most recently used (application access).
  Entry* touch(VarId v) {
    auto it = map_.find(v);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.end(), lru_, it->second.lruIt);
    return &it->second;
  }

  /// Insert or update an entry; returns it. New entries start with no
  /// copy nodes — callers record them as the protocol dictates.
  Entry& put(VarId v, Value value) {
    auto it = map_.find(v);
    if (it == map_.end()) {
      lru_.push_back(v);
      Entry e;
      e.value = std::move(value);
      e.lruIt = std::prev(lru_.end());
      used_ += e.value ? e.value->size() : 0;
      return map_.emplace(v, std::move(e)).first->second;
    }
    Entry& e = it->second;
    used_ -= e.value ? e.value->size() : 0;
    e.value = std::move(value);
    used_ += e.value ? e.value->size() : 0;
    lru_.splice(lru_.end(), lru_, e.lruIt);
    return e;
  }

  void erase(VarId v) {
    auto it = map_.find(v);
    if (it == map_.end()) return;
    used_ -= it->second.value ? it->second.value->size() : 0;
    lru_.erase(it->second.lruIt);
    map_.erase(it);
  }

  /// Evict until the module fits its capacity: the one eviction loop.
  /// Each pass offers entries from least to most recently used to
  /// `tryEvict(v)`, which returns true after erasing `v` (and only `v`)
  /// or false to refuse it, so the victim is the first evictable entry in
  /// LRU order. `tryEvict` may answer a refusal from memory (the access
  /// tree's refusal memo, docs/architecture.md "LRU replacement") as long
  /// as the answer is the one a full check would give. Returns false when
  /// a whole pass found nothing evictable — the module then stays over
  /// capacity.
  template <typename TryEvict>
  bool evictUntilFits(TryEvict&& tryEvict) {
    while (overCapacity())
      if (!scanLru(tryEvict)) return false;
    return true;
  }

 private:
  template <typename TryEvict>
  bool scanLru(TryEvict& tryEvict) {
    for (auto it = lru_.begin(); it != lru_.end();) {
      const VarId v = *it;
      ++it;  // advance before tryEvict possibly erases v
      if (tryEvict(v)) return true;
    }
    return false;
  }

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::unordered_map<VarId, Entry> map_;
  std::list<VarId> lru_;  ///< front = least recently used
};

}  // namespace diva
