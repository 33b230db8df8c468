#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "diva/types.hpp"
#include "support/flat_map.hpp"
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
    other.head_ = other.tail_ = nullptr;  // the slots (and their links) moved with map_
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
    const std::unique_ptr<Slot>* s = map_.find(v);
    return s ? s->get() : nullptr;
  }
  const Entry* peek(VarId v) const {
    const std::unique_ptr<Slot>* s = map_.find(v);
    return s ? s->get() : nullptr;
  }

  /// Look up and mark as most recently used (application access).
  Entry* touch(VarId v) {
    const std::unique_ptr<Slot>* s = map_.find(v);
    if (!s) return nullptr;
    moveToBack(**s);
    return s->get();
  }

  /// Insert `v` holding `value` as the most recently used entry, unless
  /// it is present: then its entry is returned as it is (same value, same
  /// recency). Reports whether it inserted. New entries start with no copy
  /// nodes — callers record them as the protocol dictates.
  std::pair<Entry&, bool> insert(VarId v, const Value& value) {
    const auto [s, inserted] = slotOf(v);
    if (inserted) {
      s.value = value;
      used_ += bytesOf(s);
    }
    return {s, inserted};
  }

  /// Insert or update an entry, marking it most recently used; returns it.
  Entry& put(VarId v, Value value) {
    const auto [s, inserted] = slotOf(v);
    if (!inserted) {
      used_ -= bytesOf(s);
      moveToBack(s);
    }
    s.value = std::move(value);
    used_ += bytesOf(s);
    return s;
  }

  void erase(VarId v) {
    if (Entry* e = peek(v)) erase(*e);
  }
  /// Erases the entry `e` of this cache, which the caller already holds
  /// (from peek, touch or an eviction scan): no search for its links.
  void erase(Entry& e) {
    Slot& s = static_cast<Slot&>(e);
    used_ -= bytesOf(s);
    unlink(s);
    map_.erase(s.var);  // frees s
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
  /// One heap block per entry: the entry plus its place in the intrusive
  /// LRU list. The table holds the owning pointer, so moving table slots
  /// (growth, an erase's backward shift) moves no Slot: the links and
  /// every `Entry&` handed out stay valid until that entry is erased.
  struct Slot : Entry {
    VarId var = kInvalidVar;
    Slot* prev = nullptr;  ///< toward the least recently used end
    Slot* next = nullptr;
  };

  static std::uint64_t bytesOf(const Entry& e) { return e.value ? e.value->size() : 0; }

  /// `v`'s slot, or a new one (no value, most recently used); reports
  /// whether it is new.
  std::pair<Slot&, bool> slotOf(VarId v) {
    const auto [s, inserted] = map_.tryEmplace(v);
    if (inserted) {
      *s = std::make_unique<Slot>();
      (*s)->var = v;
      linkBack(**s);
    }
    return {**s, inserted};
  }

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
      if (tryEvict(s->var, static_cast<Entry&>(*s))) return true;
      s = next;
    }
    return false;
  }

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  support::FlatMap<std::unique_ptr<Slot>> map_;
  Slot* head_ = nullptr;  ///< least recently used
  Slot* tail_ = nullptr;  ///< most recently used
};

}  // namespace diva
