#pragma once

#include <cassert>
#include <compare>
#include <cstdint>
#include <utility>

#include "common/units.hpp"
#include "des/inline_handler.hpp"
#include "des/radix_heap.hpp"

namespace gcopss {

// Deterministic discrete-event simulator. Events at equal timestamps fire in
// scheduling order (FIFO via a monotonically increasing sequence number), so
// a run is a pure function of its inputs and seeds.
//
// Engine: a slab-recycled event pool feeding a monotone radix heap
// (des/radix_heap.hpp) with inline-storage handlers
// (des/inline_handler.hpp) — steady-state scheduling performs no heap
// allocation, and an event costs O(1) amortized pushes, pops and at most 64
// bucket moves, however far ahead it is scheduled. The pop order is
// bit-identical to the binary-heap scheduler of the first engine
// (tests/test_determinism.cpp pins that with goldens recorded under it).
class Simulator {
 public:
  using Handler = InlineHandler;

  // An event's place in the run: events execute in ascending (when, seq).
  struct Key {
    SimTime when = 0;
    std::uint64_t seq = 0;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  SimTime now() const { return now_; }

  // How far the run has got: every event keyed below the frontier has
  // executed, none keyed at or above it has. While an event executes, the
  // frontier is that event's own key. After runUntilBefore(w) or
  // advanceTo(w) it is (w, 0), everything before w; after run(until), every
  // event up to `until`, or up to the event a stop() ended the run on.
  // A model that keeps timed records instead of scheduling an event per
  // record (FaceQueue's departures) retires those keyed below it.
  Key frontier() const { return frontier_; }

  // Consume the seq the next scheduled event would get, without scheduling
  // one: a record keyed (when, reserveSeq()) sits where that event would
  // have, and every event scheduled afterwards keeps its seq.
  std::uint64_t reserveSeq() { return nextSeq_++; }

  // Schedule `fn` to run `delay` from now (delay >= 0).
  template <typename F>
  void schedule(SimTime delay, F&& fn) {
    scheduleAt(now_ + delay, std::forward<F>(fn));
  }

  template <typename F>
  void scheduleAt(SimTime when, F&& fn) {
    // Also the radix heap's one precondition: no push below the last
    // popped `when`, which never exceeds now_.
    assert(when >= now_ && "cannot schedule into the past");
    Event* e = pool_.acquire();
    e->when = when;
    e->seq = nextSeq_++;
    e->fn = InlineHandler(std::forward<F>(fn));
    queue_.push(e);
  }

  // Run until the event queue drains or `until` is reached (inclusive).
  // Returns the number of events executed by this call.
  //
  // stop()/run() contract: run() clears a pending stop request on entry, so
  // every run() call makes progress — a stop() issued inside a handler halts
  // only the run() invocation that is currently executing. Calling run()
  // again resumes from the remaining queue: pending events keep their
  // timestamps and their FIFO order at equal timestamps (the seq counter is
  // never reset), so a stop/resume cycle is invisible to event ordering.
  std::uint64_t run(SimTime until = INT64_MAX);

  // Request that run() return after the current event completes. A no-op
  // outside run(): the flag is cleared when run() next starts.
  void stop() { stopped_ = true; }
  // True between a stop() call and the next run() entry (or queue drain).
  bool stopRequested() const { return stopped_; }

  std::uint64_t totalEventsExecuted() const { return executed_; }
  std::size_t pendingEvents() const { return queue_.size(); }

  // ---- windowed-execution API (used by ParallelSimulator shards) ----

  // Timestamp of the earliest pending event, or kNoEvent when the queue is
  // empty. Events may still be scheduled below it, down to now().
  static constexpr SimTime kNoEvent = INT64_MAX;
  SimTime nextEventWhen() const {
    Event* top = queue_.peekMin();
    return top ? top->when : kNoEvent;
  }

  // Execute every event with when < `window`, including events the handlers
  // schedule into the same window. Ignores stop(); the windowed driver owns
  // termination. Same (when, seq) pop order as run().
  std::uint64_t runUntilBefore(SimTime window);

  // Jump the clock and the frontier to `t` without executing anything. Only
  // legal when no pending event precedes `t` — the parallel driver uses it to
  // line every shard up on the global-phase timestamp before a sequential
  // event runs.
  void advanceTo(SimTime t) {
    assert(t >= now_ && "cannot advance backwards");
    assert(nextEventWhen() >= t && "advancing over a pending event");
    now_ = t;
    frontier_ = {t, 0};
  }

 private:
  // Pop and execute `top`, the earliest pending event.
  void dispatch(Event* top);

  RadixHeap queue_;
  EventPool pool_;
  SimTime now_ = 0;
  Key frontier_;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
};

}  // namespace gcopss
