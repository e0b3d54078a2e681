#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
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

// Brown's calendar queue over Event pointers: an array of "day" buckets,
// each covering a `width_`-wide time window that recurs every "year"
// (nBuckets * width). popMin scans days forward from the last popped
// position; the bucket count tracks the pending-event count so each bucket
// stays near O(1) occupancy, giving amortized O(1) push/pop against the
// binary heap's O(log n).
//
// Determinism: buckets are min-heaps on exactly the (when, seq) comparator
// the old priority_queue used, and two events with equal `when` always land
// in the same bucket — so the global pop order is bit-identical to the
// heap's, preserving the FIFO-at-equal-timestamp contract.
class CalendarQueue {
 public:
  CalendarQueue() { buckets_.resize(kMinBuckets); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  GCOPSS_HOT void push(Event* e) {
    cachedMin_ = kNone;
    // Keep the scan invariant "no pending event precedes the current day":
    // the min scan trusts it (first hit wins), but a push can land behind the
    // scan — peekMin legitimately walks the cursor to the next pending day,
    // and a later push may target the gap it skipped (the parallel engine's
    // round merges do this every round; serial call sites can too by pushing
    // an event earlier than the first-ever push). Re-anchoring is O(1) and
    // leaves pop order untouched — (when, seq) min is position-independent.
    if (size_ == 0 || e->when < bucketTop_ - width_) anchor(e->when);
    auto& b = buckets_[bucketIndex(e->when)];
    b.push_back(e);
    std::push_heap(b.begin(), b.end(), later);
    ++size_;
    if (size_ > 2 * buckets_.size()) resize(buckets_.size() * 2);
  }

  // Earliest (when, seq) event, or nullptr. The located bucket is cached and
  // reused by the next popMin() unless a push intervenes.
  GCOPSS_HOT Event* peekMin() {
    if (size_ == 0) return nullptr;
    return buckets_[locateMinBucket()].front();
  }

  GCOPSS_HOT Event* popMin() {
    if (size_ == 0) return nullptr;
    auto& b = buckets_[locateMinBucket()];
    std::pop_heap(b.begin(), b.end(), later);
    Event* e = b.back();
    b.pop_back();
    --size_;
    cachedMin_ = kNone;
    if (size_ < buckets_.size() / 2 && buckets_.size() > kMinBuckets) {
      resize(buckets_.size() / 2);
    }
    return e;
  }

 private:
  static constexpr std::size_t kMinBuckets = 16;  // power of two
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  static bool later(const Event* a, const Event* b) {
    if (a->when != b->when) return a->when > b->when;
    return a->seq > b->seq;
  }

  std::size_t bucketIndex(SimTime when) const {
    return static_cast<std::size_t>(when / width_) & (buckets_.size() - 1);
  }

  // Point the scan at the day window containing `when`.
  void anchor(SimTime when) {
    lastBucket_ = bucketIndex(when);
    bucketTop_ = (when / width_ + 1) * width_;
  }

  std::size_t locateMinBucket() {
    if (cachedMin_ != kNone) return cachedMin_;
    std::size_t i = lastBucket_;
    SimTime top = bucketTop_;
    for (std::size_t n = 0; n < buckets_.size(); ++n) {
      if (!buckets_[i].empty() && buckets_[i].front()->when < top) {
        lastBucket_ = i;
        bucketTop_ = top;
        cachedMin_ = i;
        return i;
      }
      i = (i + 1) & (buckets_.size() - 1);
      top += width_;
    }
    // Sparse year: nothing within a full rotation of the scan position.
    // Direct min search, then re-anchor the calendar at what we found.
    std::size_t best = kNone;
    for (std::size_t j = 0; j < buckets_.size(); ++j) {
      if (buckets_[j].empty()) continue;
      if (best == kNone || later(buckets_[best].front(), buckets_[j].front())) best = j;
    }
    assert(best != kNone);
    anchor(buckets_[best].front()->when);
    cachedMin_ = best;
    return best;
  }

  void resize(std::size_t newCount) {
    std::vector<Event*> all;
    // gcopss-tidy: allow(hot-alloc) calendar resize: only when the pending count crosses a doubling or halving threshold, amortized O(1) per event
    all.reserve(size_);
    SimTime lo = std::numeric_limits<SimTime>::max();
    SimTime hi = std::numeric_limits<SimTime>::min();
    for (auto& b : buckets_) {
      for (Event* e : b) {
        lo = std::min(lo, e->when);
        hi = std::max(hi, e->when);
        all.push_back(e);
      }
      b.clear();
    }
    // gcopss-tidy: allow(hot-alloc) calendar resize: the bucket array changes size only at a doubling or halving threshold
    buckets_.resize(newCount);
    // Width ~ 3x the mean gap between pending events, so a bucket's current
    // day window holds a few events and the scan rarely walks empty days.
    width_ = size_ > 0 ? std::max<SimTime>(1, 3 * (hi - lo) / static_cast<SimTime>(size_)) : 1;
    for (Event* e : all) {
      auto& b = buckets_[bucketIndex(e->when)];
      b.push_back(e);
      std::push_heap(b.begin(), b.end(), later);
    }
    if (size_ > 0) anchor(lo);
    cachedMin_ = kNone;
  }

  std::vector<std::vector<Event*>> buckets_;
  SimTime width_ = 1;
  std::size_t lastBucket_ = 0;  // where the min scan resumes
  SimTime bucketTop_ = 0;       // exclusive upper edge of lastBucket_'s day
  std::size_t cachedMin_ = kNone;
  std::size_t size_ = 0;
};

}  // namespace gcopss
