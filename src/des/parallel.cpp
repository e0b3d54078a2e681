#include "des/parallel.hpp"

#include <algorithm>

namespace gcopss {

thread_local std::size_t ParallelSimulator::tlsShard_ =
    ParallelSimulator::kNoShard;

ParallelSimulator::ParallelSimulator(Simulator& globalLane, Options opts)
    : global_(globalLane), lookahead_(opts.lookahead) {
  assert(opts.workers >= 1 && "need at least one worker shard");
  assert(lookahead_ > 0 && "zero lookahead cannot make progress");
  shards_.reserve(opts.workers);
  for (std::size_t i = 0; i < opts.workers; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  outbound_.resize(opts.workers * opts.workers);
  mergeByDst_.resize(opts.workers);
  errors_.resize(opts.workers);
  threads_.reserve(opts.workers - 1);
  for (std::size_t i = 1; i < opts.workers; ++i) {
    threads_.emplace_back([this, i] { workerLoop(i); });
  }
}

ParallelSimulator::~ParallelSimulator() {
  {
    MutexLock lk(mu_);
    exit_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ParallelSimulator::workerLoop(std::size_t self) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      // Plain while-wait (no predicate lambda): the guarded reads of exit_
      // and runs_ stay in a scope where -Wthread-safety can see CvLock's
      // capability; a lambda body is analyzed as a capability-free function.
      CvLock lk(mu_);
      while (!exit_ && runs_ == seen) cv_.wait(lk);
      if (exit_) return;
      seen = runs_;
    }
    runRounds(self);
  }
}

void ParallelSimulator::barrierArrive(bool planning) {
  const auto gen = barrierGen_.load(std::memory_order_acquire);
  const auto k = static_cast<std::uint32_t>(shards_.size());
  if (barrierArrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == k) {
    // Last arriver: every other thread is spinning below, so the shards are
    // quiescent and the plan can be written without a lock. Then reset the
    // counter for the next barrier and flip the generation to release the
    // spinners; threads only touch the counter again after observing the
    // new generation, so the reset cannot race.
    if (planning) {
      ++rounds_;
      moreRounds_ = plan() == Step::Round;
    }
    barrierArrived_.store(0, std::memory_order_relaxed);
    barrierGen_.fetch_add(1, std::memory_order_release);
  } else {
    // Spin briefly, then yield: the engine must stay usable when workers
    // outnumber cores (CI runners, sanitizer jobs, 1-core containers).
    int spins = 0;
    while (barrierGen_.load(std::memory_order_acquire) == gen) {
      if (++spins > 64) std::this_thread::yield();
    }
  }
}

void ParallelSimulator::runRounds(std::size_t self) {
  tlsShard_ = self;
  do {
    try {
      shards_[self]->runUntilBefore(window_);
    } catch (...) {
      if (!errors_[self]) errors_[self] = std::current_exception();
    }
    barrierArrive(false);  // every shard done executing; outbound buffers final
    try {
      mergeInbound(self);
    } catch (...) {
      if (!errors_[self]) errors_[self] = std::current_exception();
    }
    barrierArrive(true);  // every merge done; the next round is planned
  } while (moreRounds_);
  tlsShard_ = kNoShard;
}

void ParallelSimulator::mergeInbound(std::size_t dst) {
  auto& slots = mergeByDst_[dst];
  slots.clear();
  const std::size_t k = shards_.size();
  for (std::size_t src = 0; src < k; ++src) {
    for (Remote& r : outbound_[src * k + dst]) slots.push_back(Slot{r.when, r.key, &r});
  }
  // Deterministic admission order: the key is a pure function of the
  // workload ((src, seq) pairs are producer-unique), so the destination
  // shard assigns identical local seqs no matter how nodes were sharded.
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.key.sent != b.key.sent) return a.key.sent < b.key.sent;
    if (a.key.src != b.key.src) return a.key.src < b.key.src;
    return a.key.seq < b.key.seq;
  });
  Simulator& s = *shards_[dst];
  for (const Slot& slot : slots) {
    assert(slot.when >= window_ && "merged event lands inside the round it left");
    s.scheduleAt(slot.when, std::move(slot.remote->fn));
  }
  for (std::size_t src = 0; src < k; ++src) outbound_[src * k + dst].clear();
}

std::exception_ptr ParallelSimulator::firstError() const {
  for (const std::exception_ptr& e : errors_) {
    if (e) return e;
  }
  return nullptr;
}

ParallelSimulator::Step ParallelSimulator::plan() {
  if (firstError()) return Step::Done;
  const SimTime g = global_.nextEventWhen();
  SimTime sMin = Simulator::kNoEvent;
  for (auto& s : shards_) sMin = std::min(sMin, s->nextEventWhen());
  const SimTime next = std::min(g, sMin);
  if (next == Simulator::kNoEvent || next > until_) return Step::Done;
  if (g <= sMin) return Step::Global;
  // Parallel round over [sMin, W). W only depends on queue minima and the
  // lookahead — never on thread timing — so the round structure itself is
  // identical across runs and thread counts.
  const SimTime cap = (until_ == INT64_MAX) ? INT64_MAX : until_ + 1;
  const SimTime w = (sMin > INT64_MAX - lookahead_) ? INT64_MAX : sMin + lookahead_;
  window_ = std::min({w, g, cap});
  return Step::Round;
}

std::uint64_t ParallelSimulator::run(SimTime until) {
  const std::uint64_t before = totalEventsExecuted();
  until_ = until;
  for (Step step = plan(); step != Step::Done; step = plan()) {
    if (step == Step::Global) {
      // Sequential phase: the earliest pending event lives on the global
      // lane. Line every shard's clock up on it (legal: no shard event
      // precedes g) so the handler sees a consistent "now" everywhere, and
      // its frontier on (g, 0), before every shard event at g; then run all
      // global events at that timestamp with the workers parked.
      const SimTime g = global_.nextEventWhen();
      for (auto& s : shards_) s->advanceTo(g);
      global_.run(g);
      ++globalPhases_;
      continue;
    }
    // A run of rounds: wake the workers once; they stay in runRounds until
    // a planner ends the run.
    {
      MutexLock lk(mu_);
      ++runs_;
    }
    cv_.notify_all();
    runRounds(0);  // the calling thread is worker 0
  }
  if (const std::exception_ptr e = firstError()) std::rethrow_exception(e);
  // plan() found no event at or before `until` on any lane. A shard's last
  // round or advance left its frontier short of that; this run(until)
  // executes nothing and moves it up to `until`.
  for (auto& s : shards_) s->run(until);
  return totalEventsExecuted() - before;
}

std::uint64_t ParallelSimulator::totalEventsExecuted() const {
  std::uint64_t total = global_.totalEventsExecuted();
  for (const auto& s : shards_) total += s->totalEventsExecuted();
  return total;
}

}  // namespace gcopss
