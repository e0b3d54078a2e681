#pragma once

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/units.hpp"
#include "des/inline_handler.hpp"
#include "des/simulator.hpp"

namespace gcopss {

// Conservative parallel discrete-event engine. Nodes are partitioned into
// per-worker shards (the model layer — Network — decides the mapping); each
// shard is a complete serial Simulator executing its own (when, seq) order,
// and the engine advances all shards together in time-windowed rounds:
//
//   window = min(earliest pending event across shards + lookahead,
//                next global-lane event, until + 1)
//
// Inside a round every shard executes its events with when < window on its
// own worker thread. Anything a shard posts to the engine lands at least one
// lookahead after the event that posted it, so at when >= window: it cannot
// race the round, and is buffered in a per-pair SPSC queue and merged at the
// round barrier. (The network model posts only deliveries over links no
// shorter than the lookahead; shorter links never join two shards, so those
// deliveries stay on the sender's lane — Network::enableParallel.)
//
// Rounds run back to back: between two rounds of one run the workers do not
// park. The last thread to reach the merge barrier plans the next round —
// every shard is quiescent then — and the others read its decision when the
// barrier releases. Workers park on a condition variable only between runs
// of rounds: around global phases and when run() returns.
//
// Determinism contract (docs/ARCHITECTURE.md "Threading model"):
//   * Posted events carry a key (when, sentAt, srcNode, srcSeq) that is a
//     pure function of the workload — never of thread timing or of the
//     node->shard mapping. Each destination shard sorts its inbound buffers
//     by that key before admitting them, so the local (when, seq) order every
//     shard executes is bit-identical across thread counts, including 1.
//   * Whether an event is posted or scheduled on its own lane must not depend
//     on the node->shard mapping either (the network decides by link delay).
//   * Sequential ("global") events — anything scheduled on the global lane,
//     e.g. harness lambdas that touch several nodes, fault-plan crash hooks —
//     run with every worker parked, after all shard events strictly before
//     their timestamp and before shard events at the same timestamp.
// The serial engine resolves cross-node ties at identical (when, sentAt) by
// global scheduling order instead of (srcNode, srcSeq); tests/test_parallel
// pins that the two engines produce bit-identical per-node traces on the
// golden workloads (and the reference serial goldens police the rest).
class ParallelSimulator {
 public:
  static constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

  struct Options {
    std::size_t workers = 2;
    // Every posted event lands at least this far after the event that posts
    // it. Rounds advance at least this far per barrier. For a network, use
    // Topology::parallelLookahead(): Network::enableParallel keeps links
    // shorter than it inside one shard and posts only over the others.
    SimTime lookahead = ms(1);
  };

  // `globalLane` is the caller-owned sequential Simulator (the one the
  // harness already has); its events become the global phase described above.
  ParallelSimulator(Simulator& globalLane, Options opts);
  ~ParallelSimulator();
  ParallelSimulator(const ParallelSimulator&) = delete;
  ParallelSimulator& operator=(const ParallelSimulator&) = delete;

  std::size_t workerCount() const { return shards_.size(); }
  SimTime lookahead() const { return lookahead_; }
  Simulator& shard(std::size_t i) { return *shards_[i]; }
  Simulator& globalLane() { return global_; }

  // Shard index the calling thread is currently executing, or kNoShard when
  // no parallel round is in flight (setup, global phase, teardown).
  static std::size_t currentShard() { return tlsShard_; }

  // Deterministic tie-break key for a cross-shard event: `sent` is the
  // producing event's timestamp, (src, seq) a producer-unique id that does
  // not depend on the shard mapping (the network layer uses the sender
  // NodeId and a per-node send counter).
  struct RemoteKey {
    SimTime sent = 0;
    std::uint64_t src = 0;
    std::uint64_t seq = 0;
  };

  // Schedule `fn` at `when` on shard `dst`. From a worker thread this
  // buffers into the per-pair queue (merged at the round barrier; `when`
  // must be >= the current window end, which the lookahead guarantees for
  // the links the network posts over). From sequential context it pushes
  // directly — the caller is the only thread touching the engine then.
  template <typename F>
  void post(std::size_t dst, SimTime when, RemoteKey key, F&& fn) {
    const std::size_t cur = tlsShard_;
    if (cur == kNoShard) {
      shards_[dst]->scheduleAt(when, std::forward<F>(fn));
      return;
    }
    assert(when >= window_ && "cross-shard event inside the current window");
    outbound_[cur * shards_.size() + dst].push_back(
        Remote{when, key, InlineHandler(std::forward<F>(fn))});
  }

  // Run until every lane drains or the earliest pending event is past
  // `until` (inclusive, matching Simulator::run). Returns events executed by
  // this call across all lanes.
  std::uint64_t run(SimTime until = INT64_MAX);

  std::uint64_t totalEventsExecuted() const;

  // Instrumentation for the bench harness / EXPERIMENTS.md: how many
  // parallel rounds and sequential (global-lane) phases the run used.
  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t globalPhases() const { return globalPhases_; }

 private:
  struct Remote {
    SimTime when;
    RemoteKey key;
    InlineHandler fn;
  };
  // Merge scratch: a Remote's sort key and where it sits in its per-pair
  // buffer. The sort moves these, never the handlers.
  struct Slot {
    SimTime when;
    RemoteKey key;
    Remote* remote;
  };
  // What the engine does next: a parallel round over [.., window_), a
  // global phase, or nothing (drained, past `until`, or a shard threw).
  enum class Step { Round, Global, Done };

  void workerLoop(std::size_t self);
  void runRounds(std::size_t self);
  void mergeInbound(std::size_t dst);
  // The last arriver of a planning barrier counts the round and plans the
  // next one before it releases the others.
  void barrierArrive(bool planning);
  Step plan();
  // The lowest-numbered shard's recorded exception, or null.
  std::exception_ptr firstError() const;

  Simulator& global_;
  SimTime lookahead_;
  std::vector<std::unique_ptr<Simulator>> shards_;
  // Flattened [src][dst] buffers. A buffer is written only by worker `src`
  // during the execution phase and read only by worker `dst` during the
  // merge phase; the two barriers between the phases order every access.
  GCOPSS_SHARD_CONFINED std::vector<std::vector<Remote>> outbound_;
  // Per-destination merge scratch; only worker `dst` touches slot `dst`.
  GCOPSS_SHARD_CONFINED std::vector<std::vector<Slot>> mergeByDst_;

  // ---- round coordination (main thread acts as worker 0) ----
  // Workers park on `cv_` between runs of rounds; `runs_` is bumped (under
  // `mu_`) to start one, `exit_` to shut down. The two phase barriers inside
  // a round are sense-reversing and yield-friendly: this engine must behave
  // on oversubscribed hosts (CI runners, 1-core containers), so waiters spin
  // only briefly before yielding.
  Mutex mu_;
  std::condition_variable cv_;
  std::uint64_t runs_ GCOPSS_GUARDED_BY(mu_) = 0;
  bool exit_ GCOPSS_GUARDED_BY(mu_) = false;
  // The plan: written by run() before it starts a run of rounds (the cv
  // wakeup orders it for the workers) and by the last arriver of each merge
  // barrier (the barrier release orders it). Nobody writes them while a
  // worker executes or merges. (Deliberately not GUARDED_BY: the reads are
  // ordered by the round protocol, not the mutex.)
  SimTime until_ = 0;
  SimTime window_ = 0;
  bool moreRounds_ = false;
  std::atomic<std::uint32_t> barrierArrived_{0};
  std::atomic<std::uint32_t> barrierGen_{0};
  std::vector<std::thread> threads_;  // workers 1..k-1
  // The first exception each shard threw, written only by its own worker;
  // the round barriers order the planner's reads. run() rethrows the
  // lowest-numbered shard's, so a failed run reports the same error
  // whatever the thread timing.
  GCOPSS_SHARD_CONFINED std::vector<std::exception_ptr> errors_;
  std::uint64_t rounds_ = 0;  // written by each round's last arriver
  std::uint64_t globalPhases_ = 0;

  static thread_local std::size_t tlsShard_;
};

}  // namespace gcopss
