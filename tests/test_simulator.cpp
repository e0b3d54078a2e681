#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/hash.hpp"
#include "des/simulator.hpp"

namespace gcopss::test {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.scheduleAt(ms(30), [&]() { order.push_back(3); });
  sim.scheduleAt(ms(10), [&]() { order.push_back(1); });
  sim.scheduleAt(ms(20), [&]() { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), ms(30));
}

// A push below the pending minimum after a peek must still run first. Two
// ways to get there: (a) a push earlier than everything already pending,
// before the first pop; (b) a push into the gap between now() and the
// minimum a windowed run peeked at (the parallel engine's round merges do
// this every round).
TEST(Simulator, PushBelowThePeekedMinimumStaysOrdered) {
  {  // (a) before the first pop
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 40; ++i) {
      sim.scheduleAt(ms(20 + 5 * i), [&order, i]() { order.push_back(i); });
    }
    EXPECT_EQ(sim.nextEventWhen(), ms(20));
    sim.scheduleAt(ms(1), [&order]() { order.push_back(-1); });
    sim.run();
    ASSERT_EQ(order.size(), 41u);
    EXPECT_EQ(order.front(), -1);
    for (int i = 0; i < 40; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], i);
  }
  {  // (b) after a windowed run peeked at the next minimum
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 40; ++i) {
      sim.scheduleAt(ms(10) * (i + 1), [&order, i]() { order.push_back(i); });
    }
    (void)sim.runUntilBefore(ms(11));        // executes i=0, peeks i=1 at 20ms
    EXPECT_EQ(sim.nextEventWhen(), ms(20));
    sim.scheduleAt(ms(12), [&order]() { order.push_back(-1); });  // the gap
    sim.run();
    ASSERT_EQ(order.size(), 41u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], -1);
    EXPECT_EQ(order[2], 1);
  }
}

// Differential test: the Simulator against a reference model, a std::set of
// (when, seq) keys. Every push goes through scheduleAt, which numbers events
// in push order, so the model's seq is a push counter and each event knows
// the key it must run at; a handler checks that key against the model's
// minimum and the simulator's frontier. Random streams mix a dense 0-4 ns
// band (0 = a push at exactly now), 1-in-64 far-future pushes up to 2^40 ns,
// and pushes onto one shared burst time a little ahead, which straddle the
// redistributions that bring it down. Between runs, step() peeks, runs
// windows and then pushes below the peeked minimum, runs to a horizon, and
// advances the clock.
class QueueModel {
 public:
  explicit QueueModel(std::uint64_t seed) : state_(mix64(seed | 1)) {}

  void push(SimTime when) {
    const Simulator::Key key{when, nextSeq_++};
    model_.insert(key);
    sim_.scheduleAt(when, [this, key]() { fire(key); });
  }

  // One random step between runs.
  void step() {
    const SimTime now = sim_.now();
    const SimTime next = sim_.nextEventWhen();
    EXPECT_EQ(next, model_.empty() ? Simulator::kNoEvent : model_.begin()->when);
    EXPECT_EQ(sim_.pendingEvents(), model_.size());
    if (model_.empty()) {
      push(now + below(5));
      return;
    }
    switch (draw() % 4) {
      case 0: {  // a window, then a push below the minimum it peeked at
        (void)sim_.runUntilBefore(next + below(64));
        const SimTime min = sim_.nextEventWhen();
        if (min != Simulator::kNoEvent && min > sim_.now()) {
          push(sim_.now() + below(min - sim_.now()));
        }
        break;
      }
      case 1:  // advance the clock up to the minimum, then push there
        sim_.advanceTo(now + below(next - now + 1));
        push(sim_.now());
        break;
      case 2:
        (void)sim_.run(next + below(32));
        break;
      default:
        push(now);
        break;
    }
  }

  // Run everything left and check that every event fired at its model key.
  void drain() {
    budget_ = 0;
    (void)sim_.run();
    EXPECT_TRUE(model_.empty());
    EXPECT_EQ(mismatches_, 0u);
  }

  void setBudget(std::uint64_t pushes) { budget_ = pushes; }
  std::uint64_t fired() const { return fired_; }

 private:
  std::uint64_t draw() { return state_ = mix64(state_); }
  // A draw in [0, n), n > 0.
  SimTime below(SimTime n) {
    return static_cast<SimTime>(draw() % static_cast<std::uint64_t>(n));
  }

  void fire(Simulator::Key key) {
    ++fired_;
    if (model_.empty() || *model_.begin() != key || sim_.frontier() != key) ++mismatches_;
    model_.erase(key);
    // One child keeps the dense band alive; 1 in 64 goes far ahead instead
    // and 1 in 64 adds a second child, 1 in 16 joins the burst.
    const SimTime now = sim_.now();
    if (budget_ == 0) return;
    const std::uint64_t r = draw();
    if (burst_ <= now) burst_ = now + 64 + below(4096);
    if (r % 16 == 0) spawn(burst_);
    spawn(now + (r % 64 == 1 ? below(SimTime{1} << 40) : below(5)));
    if (r % 64 == 2) spawn(now + below(5));
  }

  void spawn(SimTime when) {
    if (budget_ == 0) return;
    --budget_;
    push(when);
  }

  Simulator sim_;
  std::set<Simulator::Key> model_;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t state_;
  std::uint64_t budget_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t mismatches_ = 0;
  SimTime burst_ = 0;
};

TEST(Simulator, RandomStreamsMatchAWhenSeqReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    QueueModel q(seed);
    q.setBudget(40'000);
    for (int i = 0; i < 16; ++i) q.push(0);
    for (int i = 0; i < 2'000; ++i) q.step();
    q.drain();
    EXPECT_GT(q.fired(), 40'000u);
  }
}

// hotspot_churn's shape, its player moves scheduled at world-ready: a few
// thousand timers seconds ahead beside a nanosecond-dense band.
TEST(Simulator, FarFutureTimersBesideADenseBandMatchTheReferenceModel) {
  QueueModel q(99);
  std::uint64_t x = 7;
  for (int i = 0; i < 3'000; ++i) {
    x = mix64(x);
    q.push(seconds(1) + static_cast<SimTime>(x % static_cast<std::uint64_t>(seconds(19))));
  }
  q.setBudget(60'000);
  for (int i = 0; i < 64; ++i) q.push(i);
  for (int i = 0; i < 2'000; ++i) q.step();
  q.drain();
  EXPECT_GT(q.fired(), 63'000u);
}

TEST(Simulator, SameTimestampIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.scheduleAt(ms(5), [&, i]() { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, HandlersCanScheduleMore) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&]() {
    ++ticks;
    if (ticks < 10) sim.schedule(ms(1), tick);
  };
  sim.schedule(0, tick);
  sim.run();
  EXPECT_EQ(ticks, 10);
  EXPECT_EQ(sim.now(), ms(9));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int ran = 0;
  sim.scheduleAt(ms(10), [&]() { ++ran; });
  sim.scheduleAt(ms(20), [&]() { ++ran; });
  sim.run(ms(15));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.pendingEvents(), 1u);
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, StopHaltsImmediately) {
  Simulator sim;
  int ran = 0;
  sim.scheduleAt(ms(1), [&]() {
    ++ran;
    sim.stop();
  });
  sim.scheduleAt(ms(2), [&]() { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 1);
  sim.run();  // resumes after stop
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, CountsEvents) {
  Simulator sim;
  for (int i = 0; i < 42; ++i) sim.scheduleAt(i, []() {});
  sim.run();
  EXPECT_EQ(sim.totalEventsExecuted(), 42u);
}

// run() clears a pending stop request on entry: a stop() issued outside any
// run() (or left over from a previous one) must never starve the next call.
TEST(Simulator, RunClearsStaleStopOnEntry) {
  Simulator sim;
  int ran = 0;
  sim.scheduleAt(ms(1), [&]() { ++ran; });
  sim.scheduleAt(ms(2), [&]() { ++ran; });
  sim.stop();  // stale: nothing is running
  EXPECT_TRUE(sim.stopRequested());
  EXPECT_EQ(sim.run(), 2u) << "the stale stop must not block progress";
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(sim.stopRequested());
}

// A stop/resume cycle is invisible to event ordering: events at equal
// timestamps stay FIFO across the boundary because the seq counter is never
// reset, even for events scheduled after the stop at the same timestamp.
TEST(Simulator, StopThenResumeKeepsEqualTimestampFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    sim.scheduleAt(ms(5), [&, i]() {
      order.push_back(i);
      if (i == 2) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.now(), ms(5));

  // Scheduling more work at the very same timestamp while paused: it must
  // run after the events that were already queued there.
  sim.scheduleAt(ms(5), [&]() { order.push_back(100); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 100}));
}

// scheduleAt at an equal timestamp from inside a handler also lands after
// everything already queued at that instant — scheduling order is the tie
// break, never insertion time or call site.
TEST(Simulator, EqualTimestampOrderingFromHandlers) {
  Simulator sim;
  std::vector<int> order;
  sim.scheduleAt(ms(3), [&]() {
    order.push_back(1);
    sim.scheduleAt(ms(3), [&]() { order.push_back(3); });
  });
  sim.scheduleAt(ms(3), [&]() { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace gcopss::test
