#pragma once

#include <cstdint>
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
    /// Access tree strategy's refusal memo: the live generation counter of
    /// the variable's state when replacement last refused this entry, and
    /// the value it held then (null = never refused). The entry is refused
    /// again while `*refusedGen == refusedAt`; the strategy guarantees the
    /// counter outlives the entry (docs/architecture.md "LRU replacement").
    const std::uint64_t* refusedGen = nullptr;
    std::uint64_t refusedAt = 0;
    /// Fixed home strategy: this processor is the variable's owner.
    bool owned = false;
  };

  explicit NodeCache(std::uint64_t capacityBytes = ~0ull) : capacity_(capacityBytes) {}

  NodeCache(NodeCache&& other) noexcept
      : capacity_(other.capacity_),
        used_(other.used_),
        map_(std::move(other.map_)),
        head_(other.head_),
        tail_(other.tail_) {
    other.used_ = 0;
    other.head_ = other.tail_ = nullptr;  // map nodes (and their links) moved with map_
  }
  NodeCache& operator=(NodeCache&&) = delete;
  NodeCache(const NodeCache&) = delete;
  NodeCache& operator=(const NodeCache&) = delete;

  std::uint64_t capacityBytes() const { return capacity_; }
  std::uint64_t usedBytes() const { return used_; }
  bool overCapacity() const { return used_ > capacity_; }
  std::size_t numEntries() const { return map_.size(); }

  /// Look up without touching recency (protocol bookkeeping).
  Entry* peek(VarId v) {
    auto it = map_.find(v);
    return it == map_.end() ? nullptr : &it->second.entry;
  }
  const Entry* peek(VarId v) const {
    auto it = map_.find(v);
    return it == map_.end() ? nullptr : &it->second.entry;
  }

  /// Look up and mark as most recently used (application access).
  Entry* touch(VarId v) {
    auto it = map_.find(v);
    if (it == map_.end()) return nullptr;
    moveToBack(it->second);
    return &it->second.entry;
  }

  /// Insert or update an entry; returns it. New entries start with no
  /// copy nodes — callers record them as the protocol dictates.
  Entry& put(VarId v, Value value) {
    auto [it, inserted] = map_.try_emplace(v);
    Slot& s = it->second;
    if (inserted) {
      s.var = v;
      linkBack(s);
    } else {
      used_ -= bytesOf(s.entry);
      moveToBack(s);
    }
    s.entry.value = std::move(value);
    used_ += bytesOf(s.entry);
    return s.entry;
  }

  void erase(VarId v) {
    auto it = map_.find(v);
    if (it == map_.end()) return;
    used_ -= bytesOf(it->second.entry);
    unlink(it->second);
    map_.erase(it);
  }

  /// Evict until the module fits its capacity: the one eviction loop.
  /// Each pass offers entries from least to most recently used to
  /// `tryEvict(v, entry)`, which returns true after erasing `v` (and only
  /// `v`) or false to refuse it, so the victim is the first evictable
  /// entry in LRU order. `tryEvict` may answer a refusal from memory (the
  /// access tree's refusal memo, docs/architecture.md "LRU replacement")
  /// as long as the answer is the one a full check would give. Returns
  /// false when a whole pass found nothing evictable — the module then
  /// stays over capacity.
  template <typename TryEvict>
  bool evictUntilFits(TryEvict&& tryEvict) {
    while (overCapacity())
      if (!scanLru(tryEvict)) return false;
    return true;
  }

 private:
  /// A map node: the entry plus its place in the intrusive LRU list.
  /// Node addresses are stable in an unordered_map, so the links need no
  /// fix-up on rehash.
  struct Slot {
    Entry entry;
    VarId var = kInvalidVar;
    Slot* prev = nullptr;  ///< toward the least recently used end
    Slot* next = nullptr;
  };

  static std::uint64_t bytesOf(const Entry& e) { return e.value ? e.value->size() : 0; }

  void linkBack(Slot& s) {
    s.prev = tail_;
    s.next = nullptr;
    (tail_ ? tail_->next : head_) = &s;
    tail_ = &s;
  }
  void unlink(Slot& s) {
    (s.prev ? s.prev->next : head_) = s.next;
    (s.next ? s.next->prev : tail_) = s.prev;
  }
  void moveToBack(Slot& s) {
    if (tail_ == &s) return;
    unlink(s);
    linkBack(s);
  }

  template <typename TryEvict>
  bool scanLru(TryEvict& tryEvict) {
    for (Slot* s = head_; s;) {
      Slot* next = s->next;  // advance before tryEvict possibly erases s
      if (tryEvict(s->var, s->entry)) return true;
      s = next;
    }
    return false;
  }

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::unordered_map<VarId, Slot> map_;
  Slot* head_ = nullptr;  ///< least recently used
  Slot* tail_ = nullptr;  ///< most recently used
};

}  // namespace diva
