#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/time.hpp"
#include "support/object_pool.hpp"

namespace diva::sim {

/// Two-level, calendar-style pending-event queue, tuned for the shape of
/// simulation schedules: timestamps are near-monotone and densely
/// clustered in a window just ahead of the cursor, with a thin far-future
/// tail (long timeouts, phase deadlines).
///
/// ## Tiers
///
///  1. **Sorted front tier** — a flat array of "runs", one per distinct
///     timestamp at the head of the schedule, kept sorted and consumed
///     by index: a run is an intrusive FIFO list of pooled slots plus
///     its timestamp (24 bytes, contiguous — no pointer chasing, no
///     heap sifts, no hash probes). Equal-time pushes append to their
///     run in O(1) via a short search of the live tail, which only ever
///     holds the few distinct times of a single bucket; exhausting a
///     run is one index increment.
///  2. **Bucket ring** — `kNumBuckets` fixed-width time buckets covering
///     a sliding window ahead of the front tier. A push into the window
///     is O(1) with zero timestamp comparisons: compute the bucket index
///     and append to its FIFO list. Buckets are consumed in time order;
///     a consumed bucket's list is redistributed — in insertion order,
///     which preserves FIFO-among-equals by construction — into the
///     front tier's run array.
///  3. **Overflow tier** — events beyond the window land in the PR 1
///     distinct-timestamp structure: a binary min-heap over 16-byte POD
///     nodes (one integer compare — the bit pattern of a non-negative
///     double orders identically to its value) of FIFO "time groups",
///     with an open-addressing hash making repeated-time pushes O(1)
///     appends. Whenever the window slides, whole overflow groups whose
///     time has entered it are spliced — O(1), order-preserving — into
///     their bucket.
///
/// ## Ordering
///
/// Strict (time, insertion order) across all tiers. Correctness does not
/// depend on floating-point precision: the virtual bucket index
/// `floor(t * 1/width)` is a monotone map (IEEE subtraction/multiplication
/// are correctly rounded, hence monotone), so an earlier timestamp can
/// never land in a later bucket; events that share a bucket are ordered
/// exactly by the front tier's integer timestamp compare. Equal
/// timestamps stay FIFO across every tier transition because lists are
/// only ever appended to or spliced whole.
///
/// ## Bucket width
///
/// The width is estimated from the head of the schedule, in the manner of
/// Brown's calendar queue (CACM 1988): until the ring activates, every
/// push runs through the sorted front tier alone while the queue records
/// the spacing between successive distinct timestamps as they are
/// dispatched. Once `kCalibrationSamples` positive gaps are
/// in, the width becomes their median — the schedule's quantum (e.g. the
/// hop latency) on integer-quantized schedules, the typical head spacing
/// otherwise. Push-to-cursor spacing plays no part, so a burst of far-
/// future events queued up front (an open-loop arrival schedule) cannot
/// inflate the width. A schedule that never yields a positive gap (all
/// events at one instant) never activates the ring and stays on the
/// sorted front tier.
///
/// On activation the ring starts at the dispatch cursor: the front tier
/// keeps only the runs in the cursor's bucket, and every later run moves
/// — as a whole FIFO list, so order among equal times holds by
/// construction — into its ring bucket or, beyond the window, into a new
/// overflow group.
///
/// Steady state is allocation-free: callback slots (64 bytes: 40-byte
/// inline capture + ops pointer + FIFO link + timestamp) and time groups
/// recycle through slab pools, the run array recycles its capacity, the
/// overflow heap and hash table only grow, and the ring is a fixed
/// array, allocated once when it activates (so an engine that never
/// calibrates, or is built and torn down in set-up, never pays for it).
/// Destroying the queue mid-run reclaims every pending capture
/// (the slot pool owns them).
class EventQueue {
 public:
  /// Ring size (a power of two). The window spans kNumBuckets widths; at
  /// a sub-µs median gap it must still reach the 250–500 µs horizons of
  /// think times and lock waits, or those pushes fall to the overflow
  /// tier.
  static constexpr std::size_t kNumBuckets = 4096;

  /// One pending event: its callback, the link to the next event in its
  /// FIFO list (same-time group or ring bucket), and its timestamp.
  struct Slot {
    EventFn fn;
    Slot* next;
    std::uint64_t timeBits;
  };

  /// Tier traffic counters and the tuned width (diagnostics; recorded as
  /// bucket-occupancy stats in BENCH_engine.json). Ring pushes carry no
  /// counter of their own — the O(1) path stays untaxed — and are derived
  /// as `totalPushes - sortedPushes - overflowPushes` (the engine knows
  /// the total as processed + pending; see Engine::queueStats).
  struct Stats {
    double bucketWidthUs = 0.0;  ///< 0 until the ring has calibrated
    std::uint64_t ringPushes = 0;    ///< derived; 0 in the raw queue view
    std::uint64_t sortedPushes = 0;  ///< front tier (incl. pre-calibration)
    std::uint64_t overflowPushes = 0;
    std::uint64_t migratedEvents = 0;  ///< overflow → ring splices
  };

  EventQueue() {
    runs_.reserve(kInitialCapacity);
    overflowHeap_.reserve(kInitialCapacity);
    table_.resize(kInitialTableSize);
    tableMask_ = kInitialTableSize - 1;
    tableShift_ = 64 - std::countr_zero(std::uint64_t{kInitialTableSize});
  }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueue `fn` at `t`. Precondition (maintained by the engine): `t` is
  /// non-negative, not NaN, and never earlier than the last popped time.
  template <typename F>
  void push(Time t, F&& fn) {
    Slot* slot = spare_;
    if (slot != nullptr) {
      spare_ = nullptr;
    } else {
      slot = slots_.acquire();
    }
    slot->fn.emplace(std::forward<F>(fn));
    slot->next = nullptr;
    slot->timeBits = std::bit_cast<std::uint64_t>(t);
    ++pending_;
    route(t, slot);
  }

  /// Detach the earliest pending event (FIFO among equals) and move its
  /// callback into `out`. Precondition: `!empty()`. The emptied slot is
  /// stowed as the spare for the next push — the dominant schedule-one-
  /// from-inside-one pattern recycles its cache-hot slot with no pool
  /// traffic at all — and the queue is fully consistent on return, so
  /// the callback is free to push when the caller runs it (including at
  /// the popped time, which re-forms a fresh group behind this one).
  void popFrontInto(EventFn& out, std::uint64_t& timeBitsOut) {
    if (runIdx_ == runs_.size()) refillFront();
    Run& r = runs_[runIdx_];
    Slot* slot = r.head;
    r.head = slot->next;
    runIdx_ += static_cast<std::size_t>(r.head == nullptr);  // run exhausted
    --pending_;
    if (!ringActive_) calibrate(std::bit_cast<Time>(slot->timeBits));
    timeBitsOut = slot->timeBits;
    out = std::move(slot->fn);
    if (spare_ == nullptr) {
      spare_ = slot;
    } else {
      slots_.release(slot);
    }
  }

  bool empty() const { return pending_ == 0; }
  std::size_t pending() const { return pending_; }

  /// Pre-size every growable structure for a burst of `events` pending
  /// events (worst case: all timestamps distinct): both sorted heaps, the
  /// hash table, the slot/group pools, and the fixed bucket ring. After
  /// this, pushing and draining `events` events performs no allocation
  /// even from a cold queue, ring activation included.
  void reserve(std::size_t events) {
    allocateRing();
    runs_.reserve(events);
    overflowHeap_.reserve(events);
    // The table grows when (count + 1) * 2 exceeds its size; cover the
    // `events`-th insert exactly.
    while (table_.size() < events * 2 + 2) tableGrow();
    slots_.reserve(events);
    groups_.reserve(events);
  }

  const Stats& stats() const { return stats_; }

  /// Live tier occupancy (diagnostics / time-series sampling): events in
  /// the bucket ring, distinct-timestamp runs in the sorted front tier,
  /// and far-future groups in the overflow heap. O(1) — the sorted tiers
  /// are counted in distinct timestamps, not events, precisely so no hot
  /// push/pop pays for a per-event count. These describe the host
  /// structure, not the model: a change to calibration or tiering moves
  /// them and nothing simulated.
  struct Occupancy {
    std::size_t ringEvents = 0;
    std::size_t frontRuns = 0;
    std::size_t overflowGroups = 0;
  };
  Occupancy occupancy() const {
    return {ringCount_, runs_.size() - runIdx_, overflowHeap_.size()};
  }

 private:
  static constexpr std::size_t kInitialCapacity = 256;
  static constexpr std::size_t kInitialTableSize = 256;  // power of two
  static constexpr std::size_t kRingMask = kNumBuckets - 1;
  static constexpr int kCalibrationSamples = 256;
  /// Virtual bucket indices are kept far below 2^53 so the double →
  /// integer conversion and the integer arithmetic around it are exact.
  static constexpr double kMaxVb = 1e15;

  /// Front tier: all pending events at one distinct timestamp, as an
  /// intrusive FIFO list tagged with that timestamp. Lives by value in
  /// the sorted run array.
  struct Run {
    std::uint64_t timeBits;
    Slot* head;
    Slot* tail;
  };

  /// Overflow tier: all pending events at one distinct far-future
  /// timestamp, as an intrusive FIFO queue. Pool-stable: the heap and
  /// the hash table point at it while it lives. `tableIdx` tracks the
  /// group's current hash-table position (kept up to date by
  /// backward-shift moves and growth) so erasing needs no find-walk. No
  /// size field: the one consumer that needs a count (overflow → ring
  /// migration, rare) walks the list instead of taxing every push with
  /// its upkeep.
  struct Group {
    Slot* head;
    Slot* tail;
    std::size_t tableIdx;
  };

  /// Heap node: POD, 16 bytes, four per cache line. One node per distinct
  /// pending timestamp; ordering needs a single integer compare.
  struct Node {
    std::uint64_t timeBits;
    Group* group;
  };

  struct TableEntry {
    std::uint64_t key;
    Group* group;  ///< nullptr marks an empty slot
  };

  /// FIFO list with a tail-link pointer: appending is branchless (write
  /// through tailLink, advance it) whether the bucket is empty or not.
  /// `tailLink` points at `head` when empty, else at the last slot's
  /// `next`.
  struct Bucket {
    Slot* head;
    Slot** tailLink;
  };

  void route(Time t, Slot* slot) {
    if (!ringActive_) {
      frontInsert(slot);
      ++stats_.sortedPushes;
      return;
    }
    const double vbD = t * invWidth_;
    if (vbD >= ringEndVbD_) {
      enqueueOverflow(slot->timeBits, slot, slot);
      ++stats_.overflowPushes;
      return;
    }
    // Virtual bucket indices stay below kMaxVb < 2^53, so the signed
    // conversion is exact and compiles to a single instruction (the
    // unsigned conversion is a branchy multi-op sequence on x86-64).
    const std::uint64_t vb =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(vbD));
    if (vb < ringStartVb_) {
      frontInsert(slot);
      ++stats_.sortedPushes;
      return;
    }
    ringAppend(vb, slot, slot);
    ++ringCount_;
  }

  /// Append the list `head`…`tail` to virtual bucket `vb` (inside the
  /// window).
  void ringAppend(std::uint64_t vb, Slot* head, Slot* tail) {
    Bucket& b = ring_[(ringHeadIdx_ + (vb - ringStartVb_)) & kRingMask];
    *b.tailLink = head;
    b.tailLink = &tail->next;
  }

  /// Pre-activation, on every dispatch of time `t`: record the gap to
  /// the previously dispatched distinct time; once enough positive gaps
  /// accumulate, activate the ring at `t`. (`cursor_` starts as NaN, so
  /// the first dispatch records no gap.)
  void calibrate(Time t) {
    const double gap = t - cursor_;
    cursor_ = t;
    if (!(gap > 0.0) || !std::isfinite(gap)) return;
    gaps_[samples_] = gap;
    if (++samples_ == kCalibrationSamples) activateRing();
  }

  /// Width = median dispatch gap; the ring starts just past the cursor's
  /// bucket, and the backlog beyond it leaves the front tier.
  void activateRing() {
    allocateRing();
    auto mid = gaps_.begin() + kCalibrationSamples / 2;
    std::nth_element(gaps_.begin(), mid, gaps_.end());
    double w = *mid;
    while (cursor_ / w >= kMaxVb) w *= 1024.0;  // keep vb integer-exact
    width_ = w;
    invWidth_ = 1.0 / w;
    stats_.bucketWidthUs = w;
    ringStartVb_ = static_cast<std::uint64_t>(cursor_ * invWidth_) + 1;
    ringEndVbD_ = endOfWindow();
    ringHeadIdx_ = 0;
    ringActive_ = true;
    placeBacklog();
  }

  void allocateRing() {
    if (!ring_.empty()) return;
    ring_.resize(kNumBuckets);
    for (Bucket& b : ring_) {
      b.head = nullptr;
      b.tailLink = &b.head;
    }
  }

  /// Move every front-tier run whose bucket lies at or beyond
  /// `ringStartVb_` (a suffix of the sorted run array) to its ring bucket,
  /// or past the window into a fresh overflow group — whole lists, in
  /// time order, so each bucket list stays in insertion order.
  void placeBacklog() {
    const double startVbD = static_cast<double>(static_cast<std::int64_t>(ringStartVb_));
    std::size_t keep = runs_.size();
    while (keep > runIdx_ &&
           std::bit_cast<Time>(runs_[keep - 1].timeBits) * invWidth_ >= startVbD) {
      --keep;
    }
    for (std::size_t i = keep; i < runs_.size(); ++i) {
      const Run& r = runs_[i];
      const double vbD = std::bit_cast<Time>(r.timeBits) * invWidth_;
      if (vbD >= ringEndVbD_) {
        enqueueOverflow(r.timeBits, r.head, r.tail);
        continue;
      }
      ringAppend(static_cast<std::uint64_t>(static_cast<std::int64_t>(vbD)), r.head, r.tail);
      for (const Slot* s = r.head; s != nullptr; s = s->next) ++ringCount_;
    }
    runs_.resize(keep);
  }

  /// The front tier ran dry but events remain: recycle the run array,
  /// then slide the window past the next non-empty bucket (a tight scan
  /// of bucket heads, so a fine width costs little on sparse stretches),
  /// move that bucket into the front tier and splice overflow groups
  /// whose time has entered the window into their bucket. Only reachable
  /// once the ring is active (before that, every pending event lives in
  /// the front tier).
  void refillFront() {
    runs_.clear();  // every run before runIdx_ was consumed; keep capacity
    runIdx_ = 0;
    while (runs_.empty()) {
      if (ringCount_ == 0) {
        jumpToOverflow();
        continue;
      }
      std::size_t i = ringHeadIdx_;
      while (ring_[i].head == nullptr) i = (i + 1) & kRingMask;  // ringCount_ > 0
      const std::size_t step = ((i - ringHeadIdx_) & kRingMask) + 1;
      ringStartVb_ += step;
      ringEndVbD_ += static_cast<double>(step);  // exact: integers below 2^53
      ringHeadIdx_ = (ringHeadIdx_ + step) & kRingMask;
      takeBucket(ring_[i]);
      // Overflow times lie at or beyond the old window end, hence after
      // the bucket just taken: splicing them now keeps time order.
      migrateOverflow();
    }
  }

  /// Ring and front tier are both empty: everything pending sits in the
  /// overflow heap. Slide the window straight to its minimum. With the
  /// queue's vb-mapped tiers empty this is also the one point where the
  /// width may change freely, which the integer-range guard uses when a
  /// far-future timestamp would push vb past exactness.
  void jumpToOverflow() {
    const Time tMin = std::bit_cast<Time>(overflowHeap_.front().timeBits);
    if (!std::isfinite(tMin)) {
      // Everything left is at t = +infinity — a single timestamp, hence
      // a single FIFO group (reachable e.g. through a zero-bandwidth
      // cost model making a stream time infinite). The virtual-bucket
      // arithmetic below would be NaN-poisoned (inf · 0), so splice the
      // group straight into the front tier instead.
      Group* g = overflowHeap_.front().group;
      Slot* s = g->head;
      while (s != nullptr) {
        Slot* const next = s->next;
        s->next = nullptr;
        frontInsert(s);
        s = next;
      }
      tableEraseAt(g->tableIdx);
      releaseGroup(g);
      heapPopRoot(overflowHeap_);
      return;
    }
    while (tMin * invWidth_ >= kMaxVb) {
      width_ *= 1024.0;
      invWidth_ = 1.0 / width_;
      stats_.bucketWidthUs = width_;
    }
    ringStartVb_ = static_cast<std::uint64_t>(tMin * invWidth_);
    ringEndVbD_ = endOfWindow();
    migrateOverflow();
  }

  double endOfWindow() const {
    return static_cast<double>(static_cast<std::int64_t>(ringStartVb_)) +
           static_cast<double>(kNumBuckets);
  }

  /// Redistribute a consumed bucket's FIFO list into the front tier's
  /// run array. The list is walked in insertion order, so FIFO-among-
  /// equals holds across the tier transition by construction.
  void takeBucket(Bucket& b) {
    Slot* s = b.head;
    b.head = nullptr;
    b.tailLink = &b.head;
    std::size_t taken = 0;
    while (s != nullptr) {
      Slot* const next = s->next;
      s->next = nullptr;
      frontInsert(s);
      ++taken;
      s = next;
    }
    ringCount_ -= taken;
  }

  /// Insert one event into the sorted run array. Equal-time inserts
  /// append to their run (FIFO); new timestamps insert in order. The
  /// live tail [runIdx_, size) is tiny — the distinct times of one
  /// bucket plus any re-entrant pushes — and the two fast paths cover
  /// the dominant shapes (appending at or after the last run).
  void frontInsert(Slot* slot) {
    const std::uint64_t tb = slot->timeBits;
    if (runIdx_ == runs_.size()) {  // live tail empty: recycle the array
      // Resetting here (not just in refillFront) keeps memory O(1) even
      // for schedules that alternate exhaust-run/push without ever
      // refilling — e.g. same-instant re-entrant chains that never
      // calibrate the ring.
      runs_.clear();
      runIdx_ = 0;
      runs_.push_back(Run{tb, slot, slot});
      return;
    }
    Run& last = runs_.back();
    if (last.timeBits == tb) {
      last.tail->next = slot;
      last.tail = slot;
      return;
    }
    if (last.timeBits < tb) {
      runs_.push_back(Run{tb, slot, slot});
      return;
    }
    std::size_t lo = runIdx_;
    std::size_t hi = runs_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (runs_[mid].timeBits < tb) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (runs_[lo].timeBits == tb) {  // lo < size: the back run is later
      Run& r = runs_[lo];
      r.tail->next = slot;
      r.tail = slot;
    } else {
      runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(lo),
                   Run{tb, slot, slot});
    }
  }

  /// Splice every overflow group whose time has entered the window into
  /// its ring bucket: O(1) per group, list order (= insertion order)
  /// preserved.
  void migrateOverflow() {
    while (!overflowHeap_.empty()) {
      const Node n = overflowHeap_.front();
      const double vbD = std::bit_cast<Time>(n.timeBits) * invWidth_;
      if (vbD >= ringEndVbD_) return;
      const std::uint64_t vb =
          static_cast<std::uint64_t>(static_cast<std::int64_t>(vbD));
      // Eager migration keeps every overflow time at or beyond the window
      // end, so vb >= ringStartVb_ always holds; the guard only shields
      // the index arithmetic if that invariant were ever violated.
      Group* g = n.group;
      ringAppend(vb >= ringStartVb_ ? vb : ringStartVb_, g->head, g->tail);
      std::size_t count = 0;
      for (const Slot* s = g->head; s != nullptr; s = s->next) ++count;
      ringCount_ += count;
      stats_.migratedEvents += count;
      tableEraseAt(g->tableIdx);
      releaseGroup(g);
      heapPopRoot(overflowHeap_);
    }
  }

  /// Append the list `head`…`tail` (one slot on a push, a whole run on
  /// activation) to the overflow group for this timestamp. One fused
  /// probe walk: find the live group or claim the empty slot the walk
  /// ends on. (Growing first may be spurious when the key turns out to
  /// exist — harmless and rare.)
  void enqueueOverflow(std::uint64_t timeBits, Slot* head, Slot* tail) {
    if ((tableCount_ + 1) * 2 > tableMask_ + 1) tableGrow();
    const std::size_t mask = tableMask_;
    std::size_t i = tableHome(timeBits);
    while (table_[i].group != nullptr) {
      if (table_[i].key == timeBits) {
        Group* g = table_[i].group;
        g->tail->next = head;
        g->tail = tail;
        return;
      }
      i = (i + 1) & mask;
    }
    Group* g = spareGroup_;
    if (g != nullptr) {
      spareGroup_ = nullptr;
    } else {
      g = groups_.acquire();
    }
    g->head = head;
    g->tail = tail;
    g->tableIdx = i;
    table_[i] = TableEntry{timeBits, g};
    ++tableCount_;
    heapPush(overflowHeap_, timeBits, g);
  }

  void releaseGroup(Group* g) {
    if (spareGroup_ == nullptr) {
      spareGroup_ = g;
    } else {
      groups_.release(g);
    }
  }

  // --- binary min-heap over distinct overflow timestamps ---

  /// Hole insertion: append a hole at the back, shift larger parents down
  /// into it, then write the new node into place — one move per level.
  static void heapPush(std::vector<Node>& heap, std::uint64_t timeBits, Group* g) {
    heap.emplace_back();
    std::size_t i = heap.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (timeBits >= heap[parent].timeBits) break;
      heap[i] = heap[parent];
      i = parent;
    }
    heap[i] = Node{timeBits, g};
  }

  /// Remove the root via Floyd's trick: sift the hole to the leaf level
  /// choosing the smaller child branchlessly (sibling order is random, a
  /// conditional branch would mispredict half the time), then bubble the
  /// detached last node up from there (almost always 0–2 steps).
  static void heapPopRoot(std::vector<Node>& heap) {
    const Node last = heap.back();
    heap.pop_back();
    const std::size_t n = heap.size();
    if (n == 0) return;
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child + 1 < n) {
      child += static_cast<std::size_t>(heap[child + 1].timeBits <
                                        heap[child].timeBits);
      heap[hole] = heap[child];
      hole = child;
      child = 2 * hole + 1;
    }
    if (child < n) {
      heap[hole] = heap[child];
      hole = child;
    }
    std::size_t i = hole;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (last.timeBits >= heap[parent].timeBits) break;
      heap[i] = heap[parent];
      i = parent;
    }
    heap[i] = last;
  }

  // --- open-addressing hash: live overflow timestamp → its group ---
  // Linear probing with Fibonacci hashing and backward-shift deletion
  // (no tombstones), so the table only reallocates on growth and steady
  // state is allocation-free.

  std::size_t tableHome(std::uint64_t key) const {
    return (key * 0x9E3779B97F4A7C15ull) >> tableShift_;
  }

  void tableEraseAt(std::size_t i) {
    const std::size_t mask = tableMask_;
    std::size_t hole = i;
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      if (table_[j].group == nullptr) break;
      const std::size_t home = tableHome(table_[j].key);
      // Entry j may fill the hole iff its probe path passes through it.
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        table_[hole] = table_[j];
        table_[hole].group->tableIdx = hole;
        hole = j;
      }
    }
    table_[hole].group = nullptr;
    --tableCount_;
  }

  void tableGrow() {
    std::vector<TableEntry> old = std::move(table_);
    table_.assign(old.size() * 2, TableEntry{});
    --tableShift_;
    tableMask_ = table_.size() - 1;
    const std::size_t mask = tableMask_;
    for (const TableEntry& e : old) {
      if (e.group == nullptr) continue;
      std::size_t i = tableHome(e.key);
      while (table_[i].group != nullptr) i = (i + 1) & mask;
      table_[i] = e;
      e.group->tableIdx = i;
    }
  }

  std::vector<Run> runs_;           ///< front tier: sorted, consumed by index
  std::size_t runIdx_ = 0;          ///< first live run in runs_
  std::vector<Node> overflowHeap_;  ///< distinct times beyond the window
  std::vector<TableEntry> table_;   ///< timestamp → group, while pending
  int tableShift_ = 0;
  std::size_t tableMask_ = 0;  ///< table_.size() - 1, cached for the hot probes
  std::size_t tableCount_ = 0;

  std::vector<Bucket> ring_;        ///< kNumBuckets fixed-width time buckets
  std::size_t ringHeadIdx_ = 0;     ///< ring_ index of virtual bucket ringStartVb_
  std::uint64_t ringStartVb_ = 0;   ///< first virtual bucket inside the window
  double ringEndVbD_ = 0.0;         ///< ringStartVb_ + kNumBuckets, as a double
  std::size_t ringCount_ = 0;       ///< events currently in ring buckets
  bool ringActive_ = false;
  double width_ = 0.0;              ///< bucket width, µs
  double invWidth_ = 0.0;

  // Calibration state (dead once ringActive_): positive dispatch gaps.
  std::array<double, kCalibrationSamples> gaps_{};
  int samples_ = 0;

  /// Slab pools; their teardown destroys any captures still pending when
  /// the queue dies (heaps/table/lists/ring hold only raw pointers — and
  /// the spare slot, whose callback has always been moved out, is also
  /// slab-owned).
  support::ObjectPool<Slot, 256> slots_;
  support::ObjectPool<Group, 256> groups_;
  Slot* spare_ = nullptr;        ///< most recently emptied slot, ready to reuse
  Group* spareGroup_ = nullptr;  ///< ditto for time groups
  std::size_t pending_ = 0;
  /// Last dispatched time while calibrating; NaN before the first pop.
  Time cursor_ = std::numeric_limits<double>::quiet_NaN();
  Stats stats_;
};

}  // namespace diva::sim
