#include "des/simulator.hpp"

#include <limits>

namespace gcopss {

// inline: the step belongs in both event loops, not behind a call.
inline void Simulator::dispatch(Event* top) {
  queue_.popMin();
  now_ = top->when;
  frontier_ = {top->when, top->seq};
  // Invoke in place: the event is already off the queue (a nested run()
  // cannot re-execute it) and not yet on the free list (handlers that
  // schedule draw fresh events from the pool, never this storage).
  top->fn();
  pool_.release(top);
  ++executed_;
}

std::uint64_t Simulator::run(SimTime until) {
  stopped_ = false;  // a stale stop() must never starve this run (see header)
  const std::uint64_t before = executed_;
  for (;;) {
    if (stopped_) {
      ++frontier_.seq;  // just past the event that asked to stop
      break;
    }
    Event* top = queue_.peekMin();
    if (!top || top->when > until) {
      frontier_ = {until, std::numeric_limits<std::uint64_t>::max()};
      break;
    }
    dispatch(top);
  }
  return executed_ - before;
}

std::uint64_t Simulator::runUntilBefore(SimTime window) {
  const std::uint64_t before = executed_;
  while (Event* top = queue_.peekMin()) {
    if (top->when >= window) break;
    dispatch(top);
  }
  frontier_ = {window, 0};
  return executed_ - before;
}

}  // namespace gcopss
