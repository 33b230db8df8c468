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
/// tail (long timeouts, phase deadlines, a pre-loaded arrival schedule).
///
/// ## Tiers
///
///  1. **Sorted front tier** — a flat array of "runs", one per distinct
///     timestamp at the head of the schedule, kept sorted and consumed
///     by index: a run is an intrusive FIFO list of pooled slots plus
///     its timestamp (24 bytes, contiguous — no pointer chasing, no
///     heap sifts). Equal-time pushes append to their run in O(1) via a
///     short search of the live tail, which only ever holds the few
///     distinct times of a single bucket; exhausting a run is one index
///     increment.
///  2. **Bucket ring** — `kNumBuckets` fixed-width time buckets covering
///     a sliding window ahead of the front tier. A push into the window
///     is O(1) with zero timestamp comparisons: compute the bucket index
///     and append to its FIFO list. Buckets are consumed in time order;
///     a consumed bucket's list is redistributed — in insertion order,
///     which preserves FIFO-among-equals by construction — into the
///     front tier's run array.
///  3. **Far heap** — a binary min-heap of per-event nodes
///     `{timeBits, seq, slot}` ordered by (time, push sequence), which
///     keeps FIFO among equal times with no per-time bookkeeping. It
///     holds every event beyond the window once the ring is active, and
///     the whole schedule before that. Whenever the window slides, the
///     heap's events whose time has entered it move, in (time, seq)
///     order, to the back of their bucket.
///
/// ## Ordering
///
/// Strict (time, insertion order) across all tiers. Correctness does not
/// depend on floating-point precision: the virtual bucket index
/// `floor(t * 1/width)` is a monotone map (IEEE subtraction/multiplication
/// are correctly rounded, hence monotone), so an earlier timestamp can
/// never land in a later bucket; events that share a bucket are ordered
/// exactly by the front tier's integer timestamp compare (the bit pattern
/// of a non-negative double orders identically to its value). Equal
/// timestamps stay FIFO across every tier transition: lists are only ever
/// appended to, and a bucket's far events arrive before any direct push
/// into it, because they move the moment it enters the window.
///
/// ## Bucket width
///
/// The width is estimated from the head of the schedule, in the manner of
/// Brown's calendar queue (CACM 1988): until the ring activates, every
/// push goes to the far heap, the front tier takes the heap's earliest
/// time one instant at a time, and the queue records the spacing between
/// successive distinct timestamps as they are dispatched. Once
/// `kCalibrationSamples` positive gaps are in, the width becomes their
/// median — the schedule's quantum (e.g. the hop latency) on integer-
/// quantized schedules, the typical head spacing otherwise. Push-to-
/// cursor spacing plays no part, so a burst of far-future events queued
/// up front (an open-loop arrival schedule) cannot inflate the width. A
/// schedule that never yields a positive gap (all events at one instant)
/// never activates the ring and stays on the far heap and front tier.
///
/// On activation the ring starts just past the dispatch cursor's bucket,
/// and one pass over the heap moves each event inside the window into
/// its ring bucket, or into the front tier when it falls in the cursor's
/// bucket; the rest stays in the heap.
///
/// Steady state is allocation-free: callback slots (64 bytes: 40-byte
/// inline capture + ops pointer + FIFO link + timestamp) recycle through
/// a slab pool, the run array recycles its capacity, the far heap only
/// grows, and the ring is a fixed array, allocated once when it activates
/// (so an engine that never calibrates, or is built and torn down in
/// set-up, never pays for it). Destroying the queue mid-run reclaims
/// every pending capture (the slot pool owns them).
class EventQueue {
 public:
  /// Ring size (a power of two). The window spans kNumBuckets widths; at
  /// a sub-µs median gap it must still reach the 250–500 µs horizons of
  /// think times and lock waits, or those pushes fall to the far heap.
  static constexpr std::size_t kNumBuckets = 4096;

  /// One pending event: its callback, the link to the next event in its
  /// FIFO list (front-tier run or ring bucket), and its timestamp.
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
    std::uint64_t sortedPushes = 0;  ///< front tier, once the ring is active
    std::uint64_t overflowPushes = 0;  ///< far heap (incl. pre-calibration)
    std::uint64_t migratedEvents = 0;  ///< far heap → ring / front tier moves
  };

  EventQueue() {
    runs_.reserve(kInitialCapacity);
    far_.reserve(kInitialCapacity);
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
  /// the popped time, which lands behind every pending event at it).
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
  /// events: the far heap, the run array (worst case: all timestamps
  /// distinct), the slot pool and the fixed bucket ring. After this, pushing
  /// and draining `events` events performs no allocation even from a
  /// cold queue, ring activation included.
  void reserve(std::size_t events) {
    allocateRing();
    runs_.reserve(events);
    far_.reserve(events);
    slots_.reserve(events);
  }

  const Stats& stats() const { return stats_; }

  /// Live tier occupancy (diagnostics / time-series sampling): events in
  /// the bucket ring, distinct-timestamp runs in the sorted front tier,
  /// and events in the far heap. O(1) — the front tier is counted in
  /// distinct timestamps, not events, precisely so no hot push/pop pays
  /// for a per-event count. These describe the host structure, not the
  /// model: a change to calibration or tiering moves them and nothing
  /// simulated.
  struct Occupancy {
    std::size_t ringEvents = 0;
    std::size_t frontRuns = 0;
    std::size_t overflowEvents = 0;
  };
  Occupancy occupancy() const {
    return {ringCount_, runs_.size() - runIdx_, far_.size()};
  }

 private:
  static constexpr std::size_t kInitialCapacity = 256;
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

  /// Far-heap node: POD, 24 bytes, one per pending far event. `seq` is
  /// the heap's push count, so (timeBits, seq) is unique and orders equal
  /// times by insertion.
  struct FarNode {
    std::uint64_t timeBits;
    std::uint64_t seq;
    Slot* slot;
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
    const double vbD = t * invWidth_;
    if (!ringActive_ || vbD >= ringEndVbD_) {
      farPush(slot);
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
    ringAppend(vb, slot);
  }

  /// Append `slot` to virtual bucket `vb` (inside the window).
  void ringAppend(std::uint64_t vb, Slot* slot) {
    Bucket& b = ring_[(ringHeadIdx_ + (vb - ringStartVb_)) & kRingMask];
    *b.tailLink = slot;
    b.tailLink = &slot->next;
    ++ringCount_;
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
  /// bucket, and the far heap hands over every event inside the window.
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
    migrateFar();
  }

  void allocateRing() {
    if (!ring_.empty()) return;
    ring_.resize(kNumBuckets);
    for (Bucket& b : ring_) {
      b.head = nullptr;
      b.tailLink = &b.head;
    }
  }

  /// The front tier ran dry but events remain: recycle the run array and
  /// refill it. With events in the ring, slide the window past the next
  /// non-empty bucket (a tight scan of bucket heads, so a fine width
  /// costs little on sparse stretches), move that bucket into the front
  /// tier and move far events whose time has entered the window into
  /// their bucket. With the ring empty, everything pending sits in the
  /// far heap. Before activation, and at t = +infinity (which has no
  /// virtual bucket; reachable e.g. through a zero-bandwidth cost model),
  /// the heap's earliest instant moves straight to the front tier;
  /// otherwise the window jumps to the heap's minimum.
  void refillFront() {
    runs_.clear();  // every run before runIdx_ was consumed; keep capacity
    runIdx_ = 0;
    while (runs_.empty()) {
      if (ringCount_ != 0) {
        std::size_t i = ringHeadIdx_;
        while (ring_[i].head == nullptr) i = (i + 1) & kRingMask;  // ringCount_ > 0
        const std::size_t step = ((i - ringHeadIdx_) & kRingMask) + 1;
        ringStartVb_ += step;
        ringEndVbD_ += static_cast<double>(step);  // exact: integers below 2^53
        ringHeadIdx_ = (ringHeadIdx_ + step) & kRingMask;
        takeBucket(ring_[i]);
        // Far times lie at or beyond the old window end, hence after the
        // bucket just taken: moving them now keeps time order.
        migrateFar();
        continue;
      }
      const Time tMin = std::bit_cast<Time>(far_.front().timeBits);
      if (!ringActive_ || !std::isfinite(tMin)) {
        takeEarliest();
        return;
      }
      // With the vb-mapped tiers empty, the width may change freely: the
      // integer-range guard widens it when a far-future timestamp would
      // push vb past exactness.
      while (tMin * invWidth_ >= kMaxVb) {
        width_ *= 1024.0;
        invWidth_ = 1.0 / width_;
        stats_.bucketWidthUs = width_;
      }
      ringStartVb_ = static_cast<std::uint64_t>(tMin * invWidth_);
      ringEndVbD_ = endOfWindow();
      migrateFar();
    }
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
      // refilling.
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

  /// Move every far event whose time lies inside the window, in (time,
  /// seq) order, to the back of its ring bucket — or, on activation, into
  /// the front tier when it falls in the cursor's bucket (the ring starts
  /// past it).
  void migrateFar() {
    while (!far_.empty()) {
      const FarNode n = far_.front();
      const double vbD = std::bit_cast<Time>(n.timeBits) * invWidth_;
      if (vbD >= ringEndVbD_) return;
      farPopRoot();
      ++stats_.migratedEvents;
      const std::uint64_t vb =
          static_cast<std::uint64_t>(static_cast<std::int64_t>(vbD));
      if (vb < ringStartVb_) {
        frontInsert(n.slot);
      } else {
        ringAppend(vb, n.slot);
      }
    }
  }

  /// Move every far event at the heap's earliest time into the front
  /// tier; they leave the heap in push order, so each joins the run FIFO.
  void takeEarliest() {
    const std::uint64_t tb = far_.front().timeBits;
    do {
      frontInsert(far_.front().slot);
      farPopRoot();
    } while (!far_.empty() && far_.front().timeBits == tb);
  }

  // --- binary min-heap over (timeBits, seq) ---

  /// (timeBits, seq) as one 128-bit key: a single wide compare (cmp/sbb)
  /// instead of a branch on equal times.
  static unsigned __int128 key(const FarNode& n) {
    return (static_cast<unsigned __int128>(n.timeBits) << 64) | n.seq;
  }

  /// Hole insertion: append a hole at the back, shift larger parents down
  /// into it, then write the new node into place — one move per level.
  void farPush(Slot* slot) {
    ++stats_.overflowPushes;
    const FarNode node{slot->timeBits, farSeq_++, slot};
    const unsigned __int128 k = key(node);
    far_.emplace_back();
    std::size_t i = far_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (k > key(far_[parent])) break;
      far_[i] = far_[parent];
      i = parent;
    }
    far_[i] = node;
  }

  /// Remove the root via Floyd's trick: sift the hole to the leaf level
  /// choosing the smaller child branchlessly (sibling order is random, a
  /// conditional branch would mispredict half the time), then bubble the
  /// detached last node up from there (almost always 0–2 steps).
  void farPopRoot() {
    const FarNode last = far_.back();
    far_.pop_back();
    const std::size_t n = far_.size();
    if (n == 0) return;
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child + 1 < n) {
      child += static_cast<std::size_t>(key(far_[child + 1]) < key(far_[child]));
      far_[hole] = far_[child];
      hole = child;
      child = 2 * hole + 1;
    }
    if (child < n) {
      far_[hole] = far_[child];
      hole = child;
    }
    const unsigned __int128 k = key(last);
    std::size_t i = hole;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (k > key(far_[parent])) break;
      far_[i] = far_[parent];
      i = parent;
    }
    far_[i] = last;
  }

  std::vector<Run> runs_;       ///< front tier: sorted, consumed by index
  std::size_t runIdx_ = 0;      ///< first live run in runs_
  std::vector<FarNode> far_;    ///< far heap: beyond the window, or everything pre-activation
  std::uint64_t farSeq_ = 0;    ///< far-heap pushes so far (the FIFO tie-break)

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

  /// Slab pool; its teardown destroys any captures still pending when
  /// the queue dies (heap, lists and ring hold only raw pointers — and
  /// the spare slot, whose callback has always been moved out, is also
  /// slab-owned).
  support::ObjectPool<Slot, 256> slots_;
  Slot* spare_ = nullptr;  ///< most recently emptied slot, ready to reuse
  std::size_t pending_ = 0;
  /// Last dispatched time while calibrating; NaN before the first pop.
  Time cursor_ = std::numeric_limits<double>::quiet_NaN();
  Stats stats_;
};

}  // namespace diva::sim
