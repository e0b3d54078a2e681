#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/units.hpp"
#include "des/inline_handler.hpp"

namespace gcopss {

// One scheduled event. Owned by an EventPool slab for its whole lifetime;
// the queue only shuffles pointers.
struct Event {
  SimTime when = 0;
  std::uint64_t seq = 0;
  InlineHandler fn;
  Event* nextFree = nullptr;  // intrusive free list when pooled
};

// Slab allocator recycling Event objects through an intrusive free list.
// Events churn at the simulator's full rate; with the slabs, steady-state
// scheduling performs zero allocations (the pool high-water-marks at the
// maximum number of simultaneously pending events).
class EventPool {
 public:
  GCOPSS_HOT Event* acquire() {
    if (!free_) refill();
    Event* e = free_;
    free_ = e->nextFree;
    e->nextFree = nullptr;
    return e;
  }

  GCOPSS_HOT void release(Event* e) {
    e->fn.reset();
    e->nextFree = free_;
    free_ = e;
  }

 private:
  static constexpr std::size_t kSlabEvents = 256;

  // GCOPSS_COLD: slab growth is the one allocation on the scheduling path;
  // the pool high-water-marks, so steady state never re-enters it (verified
  // dynamically by bench_core's operator-new interposer).
  GCOPSS_COLD void refill() {
    slabs_.push_back(std::make_unique<Event[]>(kSlabEvents));
    Event* slab = slabs_.back().get();
    for (std::size_t i = kSlabEvents; i > 0; --i) {
      slab[i - 1].nextFree = free_;
      free_ = &slab[i - 1];
    }
  }

  std::vector<std::unique_ptr<Event[]>> slabs_;
  Event* free_ = nullptr;
};

// Monotone radix heap over Event pointers (Ahuja, Mehlhorn, Orlin & Tarjan,
// JACM 1990). `last_` is the `when` of the most recently popped event, and an
// entry lives in bucket bit_width(when ^ last_): bucket 0 holds the events at
// exactly `last_`, bucket b those whose highest bit that differs from
// `last_` is bit b-1. popMin takes bucket 0's head; once bucket 0 is used up, the next
// pop moves `last_` to the minimum of the lowest non-empty bucket and
// redistributes that bucket, every entry landing in a lower one. An entry
// therefore moves at most 63 times however far ahead it was scheduled, and
// the cost per event does not depend on how the pending times are spread.
// SimTime is never negative, so `when ^ last_` < 2^63 and 64 buckets hold
// every key.
//
// Precondition: no push below `last_`. Simulator::scheduleAt's
// `when >= now_` assert is the guard: `last_` is the time of an event
// already popped, so it never exceeds now(). peekMin leaves `last_` where it
// is for the same reason: after a peek, pushes may still land below the
// peeked minimum (the parallel engine's round merges do, every round).
//
// Pop order is exactly (when, seq) without storing seq: every push comes
// through Simulator::scheduleAt, which assigns seqs in push order; equal
// `when`s always share a bucket, and appends and redistribution both keep
// push order, so bucket 0 (a single `when`) is FIFO in seq. Buckets keep
// their capacity, so steady-state scheduling allocates nothing.
class RadixHeap {
 public:
  std::size_t size() const { return size_; }

  GCOPSS_HOT void push(Event* e) {
    append(bucketOf(e->when), {e->when, e});
    ++size_;
  }

  // Earliest (when, seq) event, or nullptr.
  GCOPSS_HOT Event* peekMin() const {
    if (size_ == 0) return nullptr;
    if (head_ < buckets_[0].size()) return buckets_[0][head_].event;
    return earliest(buckets_[lowestAbove0()]).event;
  }

  GCOPSS_HOT Event* popMin() {
    if (size_ == 0) return nullptr;
    if (head_ == buckets_[0].size()) refill();
    --size_;
    return buckets_[0][head_++].event;
  }

 private:
  struct Entry {
    SimTime when;
    Event* event;
  };

  std::size_t bucketOf(SimTime when) const {
    return static_cast<std::size_t>(
        std::bit_width(static_cast<std::uint64_t>(when) ^ static_cast<std::uint64_t>(last_)));
  }

  void append(std::size_t b, Entry x) {
    buckets_[b].push_back(x);
    occupied_ |= std::uint64_t{1} << b;
  }

  // Only called with bucket 0 used up and something pending.
  std::size_t lowestAbove0() const {
    return static_cast<std::size_t>(std::countr_zero(occupied_ & ~std::uint64_t{1}));
  }

  // The first entry with the least `when`, so the earliest in seq too.
  static const Entry& earliest(const std::vector<Entry>& b) {
    return *std::min_element(b.begin(), b.end(),
                             [](const Entry& x, const Entry& y) { return x.when < y.when; });
  }

  // Bucket 0 is used up: move `last_` to the earliest pending `when` and
  // spread the bucket that holds it over the buckets below.
  void refill() {
    buckets_[0].clear();
    head_ = 0;
    const std::size_t from = lowestAbove0();
    std::vector<Entry>& b = buckets_[from];
    last_ = earliest(b).when;
    for (const Entry& x : b) {
      assert(bucketOf(x.when) < from && "a push landed below the last popped when");
      append(bucketOf(x.when), x);
    }
    b.clear();
    occupied_ &= ~(std::uint64_t{1} << from);
  }

  std::array<std::vector<Entry>, 64> buckets_;
  std::uint64_t occupied_ = 0;  // bit b set if bucket b may be non-empty (exact for b >= 1)
  SimTime last_ = 0;
  std::size_t head_ = 0;  // bucket 0's next entry to pop
  std::size_t size_ = 0;
};

}  // namespace gcopss
