#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "des/simulator.hpp"
#include "net/fault.hpp"
#include "world_fixture.hpp"

namespace gcopss::test {
namespace {

// ---------------------------------------------------------------------------
// Determinism regression: a chaos run is a pure function of (experiment,
// FaultPlan, seed). The whole point of the seeded fault stream is that a
// failure is replayed from its printed seed alone — so the same seed must
// produce a byte-identical event trace, and a different seed must not.
// ---------------------------------------------------------------------------

// Fold every delivery (receiver, seq, arrival time) plus the final fault and
// network counters into one order-sensitive hash of the run.
std::uint64_t runChaosTrace(std::uint64_t seed) {
  LineWorld w(6, {}, SimParams::largeScale(), /*ring=*/true);
  w.singleRootRp(2);

  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  const auto fold = [&h](std::uint64_t x) { h = mix64(h ^ x); };
  for (std::size_t i = 0; i < w.clients.size(); ++i) {
    w.clients[i]->setMulticastCallback(
        [&fold, i](const copss::MulticastPacket& m, SimTime now) {
          fold(i);
          fold(m.seq);
          fold(static_cast<std::uint64_t>(now));
        });
  }

  FaultPlan plan;
  plan.seed = seed;
  plan.loseEverywhere(0.03)
      .jitterEverywhere(us(400))
      .reorderEverywhere(0.05, us(800))
      .crash(w.routerIds[3], ms(150), ms(300));
  w.net->applyFaultPlan(plan);

  gc::GCopssClient::ReliableOptions opts;
  opts.ackTimeout = ms(30);
  opts.maxRetries = 6;
  w.clients[1]->enableReliablePublish(opts);

  w.sim->scheduleAt(0, [&]() {
    w.clients[0]->subscribe(Name());
    w.clients[5]->subscribe(Name::parse("/1"));
  });
  for (std::uint64_t s = 1; s <= 60; ++s) {
    w.sim->scheduleAt(ms(20) + ms(5) * static_cast<SimTime>(s - 1), [&w, s]() {
      w.clients[1]->publish(Name::parse("/1/1"), 15, s);
    });
  }
  w.sim->run();

  const FaultStats& fs = w.net->faultStats();
  fold(fs.randomLoss);
  fold(fs.linkDownLoss);
  fold(fs.jittered);
  fold(fs.reordered);
  fold(fs.crashes);
  fold(fs.restarts);
  fold(w.net->totalDrops());
  fold(w.net->totalLinkPackets());
  fold(w.sim->totalEventsExecuted());
  fold(static_cast<std::uint64_t>(w.sim->now()));
  return h;
}

TEST(Determinism, SameFaultSeedGivesByteIdenticalTrace) {
  const std::uint64_t a = runChaosTrace(42);
  const std::uint64_t b = runChaosTrace(42);
  EXPECT_EQ(a, b) << "a (plan, seed) pair must reproduce bit-for-bit";
}

TEST(Determinism, DifferentFaultSeedGivesDifferentTrace) {
  const std::uint64_t a = runChaosTrace(42);
  const std::uint64_t c = runChaosTrace(43);
  EXPECT_NE(a, c) << "the seed must actually steer the fault stream";
}

// ---------------------------------------------------------------------------
// Cross-implementation oracle: golden hashes captured under the original
// binary-heap `priority_queue<Event>` scheduler. Any replacement event
// engine (radix heap, event pool, inline handlers, ...) must reproduce
// both bit-identically — the (when, seq) FIFO-at-equal-timestamp contract is
// what makes a chaos seed replayable across engine rewrites.
// ---------------------------------------------------------------------------

// A pseudo-random self-rescheduling workload driven directly on the
// Simulator. Delays are drawn mod 5, deliberately piling many events onto
// equal timestamps so FIFO order does the tie-breaking. Each scheduled event
// is tagged with the id its schedule call had — these functions are the only
// schedulers, so the tag equals the engine's internal seq — and the
// execution order of (now, id) pairs is folded into one hash.
std::uint64_t runEventOrderTrace(std::uint64_t seed, std::uint64_t budgetStart) {
  Simulator sim;
  std::uint64_t h = 0x2545f4914f6cdd1dULL ^ seed;
  std::uint64_t nextId = 0;
  std::uint64_t budget = budgetStart;
  std::uint64_t state = mix64(seed | 1);

  std::function<void(std::uint64_t)> fire = [&](std::uint64_t id) {
    h = mix64(h ^ (static_cast<std::uint64_t>(sim.now()) << 20) ^ id);
    for (int k = 0; k < 2 && budget > 0; ++k) {
      --budget;
      state = mix64(state);
      const SimTime delay = static_cast<SimTime>(state % 5);
      const std::uint64_t child = nextId++;
      sim.schedule(delay, [&fire, child]() { fire(child); });
    }
  };
  for (std::uint64_t i = 0; i < 16; ++i) {
    const std::uint64_t id = nextId++;
    sim.scheduleAt(0, [&fire, id]() { fire(id); });
  }
  sim.run();
  h = mix64(h ^ sim.totalEventsExecuted());
  h = mix64(h ^ static_cast<std::uint64_t>(sim.now()));
  return h;
}

// The same workload replayed on a reference model: a plain
// std::priority_queue of (when, seq) with the documented comparator, no
// handlers or engine at all. Engine-independent ground truth for the pop
// order — survives any future scheduler rewrite.
std::uint64_t referenceEventOrderTrace(std::uint64_t seed, std::uint64_t budgetStart) {
  using WS = std::pair<SimTime, std::uint64_t>;  // (when, seq)
  const auto later = [](const WS& a, const WS& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second > b.second;
  };
  std::priority_queue<WS, std::vector<WS>, decltype(later)> queue(later);

  std::uint64_t h = 0x2545f4914f6cdd1dULL ^ seed;
  std::uint64_t nextId = 0;
  std::uint64_t budget = budgetStart;
  std::uint64_t state = mix64(seed | 1);
  std::uint64_t executed = 0;
  SimTime now = 0;

  for (std::uint64_t i = 0; i < 16; ++i) queue.push({0, nextId++});
  while (!queue.empty()) {
    const WS top = queue.top();
    queue.pop();
    now = top.first;
    ++executed;
    h = mix64(h ^ (static_cast<std::uint64_t>(now) << 20) ^ top.second);
    for (int k = 0; k < 2 && budget > 0; ++k) {
      --budget;
      state = mix64(state);
      queue.push({now + static_cast<SimTime>(state % 5), nextId++});
    }
  }
  h = mix64(h ^ executed);
  h = mix64(h ^ static_cast<std::uint64_t>(now));
  return h;
}

// Golden values recorded under the heap scheduler (commit c17e077 era).
constexpr std::uint64_t kGoldenChaos42 = 18070990695764977681ULL;
constexpr std::uint64_t kGoldenOrder7 = 11829419155451624234ULL;
constexpr std::uint64_t kOrderBudget = 20000;

TEST(DeterminismGolden, ChaosTraceMatchesHeapSchedulerGolden) {
  EXPECT_EQ(runChaosTrace(42), kGoldenChaos42)
      << "the event engine changed observable behaviour: a chaos seed no "
         "longer replays the trace the heap scheduler produced";
}

TEST(DeterminismGolden, EventOrderMatchesHeapSchedulerGolden) {
  EXPECT_EQ(runEventOrderTrace(7, kOrderBudget), kGoldenOrder7)
      << "(when, seq) execution order diverged from the heap scheduler";
}

TEST(DeterminismGolden, EventOrderMatchesReferenceModel) {
  // Oracle of the oracle: the engine against a from-scratch (when, seq)
  // priority queue, over several seeds.
  for (std::uint64_t seed : {7ULL, 11ULL, 1234567ULL}) {
    EXPECT_EQ(runEventOrderTrace(seed, kOrderBudget),
              referenceEventOrderTrace(seed, kOrderBudget))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace gcopss::test
