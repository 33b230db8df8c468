#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "support/check.hpp"

namespace diva::support {

/// Hash table from `uint64_t` keys to `V`, stored flat: one array of
/// (key, value) slots with power-of-two capacity, a multiplicative hash
/// and linear probing. An erase shifts the rest of its probe cluster back
/// instead of leaving a tombstone, so a lookup stops at the first empty
/// slot however many erases came before.
///
///  * Key `kEmpty` (~0) marks a free slot and cannot be stored.
///  * A default-constructed map allocates nothing; the first insert
///    allocates the table, and it doubles when 3/4 full. It never shrinks.
///    (Doubling at half load probes about 2% faster on the access-tree
///    workloads but holds more memory: hier_100k's state table peaks near
///    a million entries.)
///  * An insert looks its key up before it decides to grow, so updating a
///    present key never allocates.
///  * **Any insert or erase may move other values** (a growth rehashes
///    every slot, an erase shifts its cluster). A pointer or reference
///    into the map is valid only until the next insert or erase; a value
///    whose address must stay fixed lives behind an owning pointer.
///  * Free slots hold a value-initialised `V`, so a fresh insert sees `V{}`
///    and an erase releases what the value owned at once.
///  * `forEach` visits slots in table order, which depends on the keys'
///    hashes and on the insert history: callers that act on what they
///    visit sort it first.
template <typename V>
class FlatMap {
 public:
  static constexpr std::uint64_t kEmpty = ~0ull;

  FlatMap() noexcept = default;

  FlatMap(FlatMap&& other) noexcept
      : slots_(std::move(other.slots_)),
        mask_(std::exchange(other.mask_, 0)),
        shift_(std::exchange(other.shift_, 64)),
        size_(std::exchange(other.size_, 0)),
        growAt_(std::exchange(other.growAt_, 0)) {}

  FlatMap& operator=(FlatMap&& other) noexcept {
    if (this != &other) {
      slots_ = std::move(other.slots_);
      mask_ = std::exchange(other.mask_, 0);
      shift_ = std::exchange(other.shift_, 64);
      size_ = std::exchange(other.size_, 0);
      growAt_ = std::exchange(other.growAt_, 0);
    }
    return *this;
  }

  FlatMap(const FlatMap&) = delete;
  FlatMap& operator=(const FlatMap&) = delete;

  /// The slot a probe for `key` starts at in a table of `capacity` slots:
  /// Fibonacci hashing, the top bits of key × 2^64/φ. Public so tests can
  /// build keys that collide.
  static std::size_t homeSlot(std::uint64_t key, std::size_t capacity) {
    return static_cast<std::size_t>((key * kGolden) >> (64 - std::countr_zero(capacity)));
  }

  std::size_t size() const noexcept { return size_; }
  /// Slots allocated (0 until the first insert).
  std::size_t capacity() const noexcept { return slots_ ? mask_ + 1 : 0; }

  V* find(std::uint64_t key) {
    if (size_ == 0 || key == kEmpty) return nullptr;
    Slot& s = slots_[probe(key)];
    return s.key == key ? &s.value : nullptr;
  }
  const V* find(std::uint64_t key) const { return const_cast<FlatMap*>(this)->find(key); }

  /// The value of a key that must be present.
  V& at(std::uint64_t key) {
    V* v = find(key);
    DIVA_CHECK_MSG(v, "FlatMap::at of absent key " << key);
    return *v;
  }
  const V& at(std::uint64_t key) const { return const_cast<FlatMap*>(this)->at(key); }

  /// The value of `key`, inserted as `V{}` if absent; reports whether it
  /// inserted.
  std::pair<V*, bool> tryEmplace(std::uint64_t key) {
    DIVA_CHECK_MSG(key != kEmpty, "FlatMap key ~0 is reserved for free slots");
    if (size_ != 0) {
      const std::size_t i = probe(key);
      if (slots_[i].key == key) return {&slots_[i].value, false};
      if (size_ < growAt_) return {&claim(i, key), true};
    }
    if (size_ >= growAt_) rehash(slots_ ? 2 * (mask_ + 1) : kMinCapacity);
    return {&claim(probe(key), key), true};
  }
  V& operator[](std::uint64_t key) { return *tryEmplace(key).first; }

  /// Removes `key`; false if it was absent.
  bool erase(std::uint64_t key) {
    if (size_ == 0 || key == kEmpty) return false;
    std::size_t hole = probe(key);
    if (slots_[hole].key != key) return false;
    // Backward shift: walk the rest of the cluster and move back every
    // entry whose home slot does not lie cyclically in (hole, j], so
    // each stays reachable from its home without crossing a free slot.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].key != kEmpty; j = (j + 1) & mask_) {
      const std::size_t home = homeOf(slots_[j].key);
      if (((j - home) & mask_) < ((j - hole) & mask_)) continue;
      slots_[hole].key = slots_[j].key;
      slots_[hole].value = std::move(slots_[j].value);
      hole = j;
    }
    slots_[hole].key = kEmpty;
    slots_[hole].value = V{};
    --size_;
    return true;
  }

  /// Calls `f(key, value)` for every entry, in table order. `f` must not
  /// insert or erase.
  template <typename F>
  void forEach(F&& f) {
    for (std::size_t i = 0; size_ != 0 && i <= mask_; ++i)
      if (slots_[i].key != kEmpty) f(slots_[i].key, slots_[i].value);
  }

 private:
  struct Slot {
    std::uint64_t key = kEmpty;
    V value{};
  };

  static constexpr std::size_t kMinCapacity = 8;
  static constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;  ///< 2^64/φ

  /// homeSlot(key, capacity()), with the shift kept.
  std::size_t homeOf(std::uint64_t key) const {
    return static_cast<std::size_t>((key * kGolden) >> shift_);
  }

  /// The slot holding `key`, or the free slot ending its probe sequence.
  std::size_t probe(std::uint64_t key) const {
    std::size_t i = homeOf(key);
    while (slots_[i].key != key && slots_[i].key != kEmpty) i = (i + 1) & mask_;
    return i;
  }

  V& claim(std::size_t i, std::uint64_t key) {
    slots_[i].key = key;
    ++size_;
    return slots_[i].value;
  }

  void rehash(std::size_t capacity) {
    std::unique_ptr<Slot[]> old = std::exchange(slots_, std::make_unique<Slot[]>(capacity));
    const std::size_t oldCapacity = old ? mask_ + 1 : 0;
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    growAt_ = capacity / 4 * 3;
    for (std::size_t i = 0; i < oldCapacity; ++i) {
      if (old[i].key == kEmpty) continue;
      std::size_t j = homeOf(old[i].key);
      while (slots_[j].key != kEmpty) j = (j + 1) & mask_;
      slots_[j].key = old[i].key;
      slots_[j].value = std::move(old[i].value);
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;     ///< capacity - 1 once allocated
  unsigned shift_ = 64;      ///< 64 - log2(capacity)
  std::size_t size_ = 0;
  std::size_t growAt_ = 0;   ///< size at which the next fresh insert grows
};

}  // namespace diva::support
