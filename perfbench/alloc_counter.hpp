#pragma once

// Thread-safe `operator new` counter split into the three windows of one
// simulation run: setup (call entry -> onWorldReady), event loop
// (onWorldReady -> onRunDrained) and report (onRunDrained -> return).
//
// Every thread counts into its own thread-local slots, indexed by the window
// that is current when it allocates, and folds them into global totals when
// it exits. Parallel-engine workers therefore never share a counter, and
// once runGCopssTrace() has returned (its workers joined) the totals are
// exact.

#include <array>
#include <cstdint>

namespace perfbench::allocs {

enum Window : int { kSetup = 0, kLoop = 1, kReport = 2, kWindows = 3 };

using Counts = std::array<std::uint64_t, kWindows>;

// Switch the window new allocations are charged to. Call from the thread
// that drives the run, while no worker is executing.
void setWindow(Window w);

// Zero every total (call between runs, with no other thread alive).
void reset();

// Totals per window: exited threads plus the calling thread.
Counts read();

}  // namespace perfbench::allocs
