#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "des/parallel.hpp"
#include "game/map.hpp"
#include "game/objects.hpp"
#include "gcopss/experiment.hpp"
#include "net/fault.hpp"
#include "net/packet.hpp"
#include "trace/trace.hpp"
#include "world_fixture.hpp"

namespace gcopss::test {
namespace {

// ---------------------------------------------------------------------------
// Engine-level contracts: windowed rounds, deterministic merge, global-lane
// sequencing. These drive ParallelSimulator directly, no network on top.
// ---------------------------------------------------------------------------

TEST(ParallelSimulator, CrossShardMergeOrdersByKeyNotArrival) {
  Simulator global;
  ParallelSimulator::Options po;
  po.workers = 2;
  po.lookahead = ms(1);
  ParallelSimulator psim(global, po);

  // Both shards post into shard 0 at the same target time. The merge must
  // order by (sent, src, seq) regardless of which worker merged first.
  std::vector<int> order;
  psim.shard(0).scheduleAt(0, [&psim, &order]() {
    psim.post(0, ms(2), {0, /*src=*/5, /*seq=*/0}, [&order]() { order.push_back(5); });
  });
  psim.shard(1).scheduleAt(0, [&psim, &order]() {
    psim.post(0, ms(2), {0, /*src=*/3, /*seq=*/0}, [&order]() { order.push_back(3); });
    psim.post(0, ms(2), {0, /*src=*/3, /*seq=*/1}, [&order]() { order.push_back(4); });
  });
  psim.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 3);  // lower src first at equal (when, sent)
  EXPECT_EQ(order[1], 4);  // then its second send
  EXPECT_EQ(order[2], 5);
}

TEST(ParallelSimulator, GlobalLaneRunsBeforeShardEventsAtSameTime) {
  Simulator global;
  ParallelSimulator::Options po;
  po.workers = 2;
  ParallelSimulator psim(global, po);

  std::vector<int> order;
  psim.shard(0).scheduleAt(ms(5), [&order]() { order.push_back(1); });
  global.scheduleAt(ms(5), [&order]() { order.push_back(0); });
  psim.shard(1).scheduleAt(ms(3), [&order]() { order.push_back(-1); });
  psim.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], -1);  // earlier shard event
  EXPECT_EQ(order[1], 0);   // global phase wins the t=5ms tie
  EXPECT_EQ(order[2], 1);
}

TEST(ParallelSimulator, CountsEventsAcrossAllLanes) {
  Simulator global;
  ParallelSimulator::Options po;
  po.workers = 3;
  ParallelSimulator psim(global, po);
  for (std::size_t s = 0; s < 3; ++s) {
    for (int i = 0; i < 4; ++i) {
      psim.shard(s).scheduleAt(ms(1 + i), []() {});
    }
  }
  global.scheduleAt(ms(2), []() {});
  const std::uint64_t ran = psim.run();
  EXPECT_EQ(ran, 13u);
  EXPECT_EQ(psim.totalEventsExecuted(), 13u);
}

TEST(ParallelSimulator, WorkerExceptionPropagatesToRun) {
  Simulator global;
  ParallelSimulator::Options po;
  po.workers = 2;
  ParallelSimulator psim(global, po);
  psim.shard(1).scheduleAt(ms(1), []() { throw std::runtime_error("boom"); });
  EXPECT_THROW(psim.run(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Determinism goldens: the same G-COPSS workload must produce bit-identical
// per-client delivery traces on the serial engine and at threads {1, 2, 4}.
// Per-client streams are the right observable: each client's callback order
// is fully pinned by the merge contract, with no dependence on how shards
// interleave in wall-clock time.
// ---------------------------------------------------------------------------

struct TraceDigest {
  std::vector<std::uint64_t> perClient;  // order-sensitive per-client fold
  std::uint64_t deliveries = 0;
  std::uint64_t events = 0;
  std::uint64_t drops = 0;
  std::uint64_t linkPackets = 0;

  bool operator==(const TraceDigest& o) const {
    return perClient == o.perClient && deliveries == o.deliveries &&
           events == o.events && drops == o.drops && linkPackets == o.linkPackets;
  }

  friend std::ostream& operator<<(std::ostream& os, const TraceDigest& d) {
    os << "{deliveries=" << d.deliveries << " events=" << d.events
       << " drops=" << d.drops << " linkPackets=" << d.linkPackets << " perClient=[";
    for (std::size_t i = 0; i < d.perClient.size(); ++i) {
      os << (i ? "," : "") << std::hex << d.perClient[i] << std::dec;
    }
    return os << "]}";
  }
};

constexpr std::uint64_t kDigestSeed = 0x9e3779b97f4a7c15ULL;

// The sharded engine for `w` (threads == 0: none, the serial engine runs).
// Observers are serial-only, so the world's checker goes first.
std::unique_ptr<ParallelSimulator> shardedEngine(LineWorld& w, std::size_t threads) {
  if (threads == 0) return nullptr;
  w.checker.reset();
  ParallelSimulator::Options po;
  po.workers = threads;
  po.lookahead = w.topo->parallelLookahead();
  return std::make_unique<ParallelSimulator>(*w.sim, po);
}

// Folds every delivery's (seq, time) into its client's slot of `d`.
void foldDeliveries(LineWorld& w, TraceDigest& d) {
  d.perClient.assign(w.clients.size(), kDigestSeed);
  for (std::size_t i = 0; i < w.clients.size(); ++i) {
    std::uint64_t* h = &d.perClient[i];
    w.clients[i]->setMulticastCallback(
        [h](const copss::MulticastPacket& m, SimTime now) {
          *h = mix64(*h ^ m.seq);
          *h = mix64(*h ^ static_cast<std::uint64_t>(now));
        });
  }
}

// Runs `w` to completion on its engine and records the run's totals in `d`.
void runAndSeal(LineWorld& w, ParallelSimulator* psim, TraceDigest& d) {
  if (psim) {
    psim->run();
    d.events = psim->totalEventsExecuted();
  } else {
    w.sim->run();
    d.events = w.sim->totalEventsExecuted();
  }
  for (std::uint64_t h : d.perClient) d.deliveries += (h != kDigestSeed);
  d.drops = w.net->totalDrops();
  d.linkPackets = w.net->totalLinkPackets();
}

// One fixed workload over the 6-router ring: root + /1 subscribers, 60
// publishes from client 1. `threads == 0` = serial engine. With `chaos`,
// a loss/jitter/reorder plan (independent per-link streams) plus an RP
// crash with heartbeat failover runs underneath.
TraceDigest runWorld(std::size_t threads, bool chaos, std::uint64_t seed = 42) {
  LineWorld w(6, {}, SimParams::largeScale(), /*ring=*/true);
  w.singleRootRp(2);
  std::unique_ptr<ParallelSimulator> psim = shardedEngine(w, threads);

  if (chaos) {
    FaultPlan plan;
    plan.seed = seed;
    plan.loseEverywhere(0.03)
        .jitterEverywhere(us(400))
        .reorderEverywhere(0.05, us(800))
        .crash(w.routerIds[2], ms(150), ms(400))
        .withIndependentStreams();
    w.net->applyFaultPlan(plan);
  }

  if (psim) w.net->enableParallel(*psim);

  TraceDigest d;
  foldDeliveries(w, d);

  if (chaos) {
    gc::GCopssClient::ReliableOptions opts;
    opts.ackTimeout = ms(30);
    opts.maxRetries = 6;
    w.clients[1]->enableReliablePublish(opts);
  }

  w.sim->scheduleAt(0, [&w, chaos]() {
    w.clients[0]->subscribe(Name());
    w.clients[5]->subscribe(Name::parse("/1"));
    if (chaos) {
      // RP (router 2) heartbeats to standby router 4; the crash at 150ms
      // triggers a failover, the restart at 400ms a reclaim/demote.
      w.routers[2]->startRpHeartbeats(w.routerIds[4], ms(10), ms(600));
      w.routers[4]->watchRpLiveness(w.routerIds[2], ms(25), ms(600));
    }
  });
  for (std::uint64_t s = 1; s <= 60; ++s) {
    const SimTime at = ms(20) + ms(5) * static_cast<SimTime>(s - 1);
    if (psim) {
      // Publish on the client's own shard, as the harness does.
      w.net->nodeSim(w.clientIds[1]).scheduleAt(at, [&w, s]() {
        w.clients[1]->publish(Name::parse("/1/1"), 15, s);
      });
    } else {
      w.sim->scheduleAt(at, [&w, s]() {
        w.clients[1]->publish(Name::parse("/1/1"), 15, s);
      });
    }
  }

  runAndSeal(w, psim.get(), d);
  return d;
}

TEST(ParallelDeterminism, FaultFreeTraceIdenticalAcrossThreadCounts) {
  const TraceDigest serial = runWorld(0, /*chaos=*/false);
  for (std::size_t threads : {1u, 2u, 4u}) {
    const TraceDigest par = runWorld(threads, /*chaos=*/false);
    EXPECT_EQ(par, serial) << "threads=" << threads
                           << ": per-client delivery traces must be "
                              "bit-identical to the serial engine";
  }
}

TEST(ParallelDeterminism, ChaosWithFailoverSeedStableAcrossThreadCounts) {
  const TraceDigest serial = runWorld(0, /*chaos=*/true);
  EXPECT_GT(serial.drops, 0u) << "the plan must actually inject faults";
  for (std::size_t threads : {1u, 2u, 4u}) {
    const TraceDigest par = runWorld(threads, /*chaos=*/true);
    EXPECT_EQ(par, serial) << "threads=" << threads
                           << ": chaos runs must be seed-stable across "
                              "thread counts";
  }
}

TEST(ParallelDeterminism, RepeatedRunsAtFourThreadsAreIdentical) {
  const TraceDigest a = runWorld(4, /*chaos=*/true);
  const TraceDigest b = runWorld(4, /*chaos=*/true);
  EXPECT_EQ(a, b) << "thread scheduling must not leak into results";
}

TEST(ParallelDeterminism, DifferentSeedsDiverge) {
  const TraceDigest a = runWorld(2, /*chaos=*/true, 42);
  const TraceDigest b = runWorld(2, /*chaos=*/true, 43);
  EXPECT_FALSE(a == b) << "the seed must steer the per-link fault lanes";
}

// autoBalance on the parallel engine. Routers 1 and 4 of the 6-ring are RPs
// for /a and /b; their neighbours' clients (0 and 5, mirror images) overload
// them with the same stream at the same instants, so both split at the same
// simulated time — in one round, on different shards (node id % workers: 1
// vs 0 at 2 and at 4 workers). Each split mints a migration txn id; those
// ids come from the router, not from state the two shards would race on.
struct SplitRun {
  TraceDigest digest;
  std::vector<SimTime> firstSplitAt;  // per router; -1 = never split
  std::vector<Name> firstMoved;       // per router: first CD of its first split
  std::vector<std::uint64_t> splits;  // per router
  std::vector<std::size_t> shard;     // per router
};

// `internCds` interns the published CDs at setup, as every harness does:
// the splits route them on worker lanes.
SplitRun runTwoHotRps(std::size_t threads, bool internCds = true) {
  copss::CopssRouter::Options opts;
  opts.autoBalance = true;
  opts.balance.backlogThreshold = ms(20);
  opts.balance.windowSize = 64;
  opts.balance.cooldown = seconds(10);
  LineWorld w(6, opts, SimParams::largeScale(), /*ring=*/true);
  if (internCds) {
    w.internCds({Name::parse("/a/1"), Name::parse("/a/2"), Name::parse("/b/1"),
                 Name::parse("/b/2")});
  }
  copss::RpAssignment a;
  a.prefixToRp[Name::parse("/a")] = w.routerIds[1];
  a.prefixToRp[Name::parse("/b")] = w.routerIds[4];
  w.installAssignment(a);
  std::unique_ptr<ParallelSimulator> psim = shardedEngine(w, threads);
  if (psim) w.net->enableParallel(*psim);

  SplitRun r;
  r.firstSplitAt.assign(w.routers.size(), -1);
  r.firstMoved.assign(w.routers.size(), Name());
  r.splits.assign(w.routers.size(), 0);
  for (std::size_t i = 0; i < w.routers.size(); ++i) {
    r.shard.push_back(w.net->shardOf(w.routerIds[i]));
    // Fires on the splitting router's shard: each writes only its own slot.
    Simulator* sim = &w.net->nodeSim(w.routerIds[i]);
    SimTime* first = &r.firstSplitAt[i];
    Name* moved = &r.firstMoved[i];
    w.routers[i]->onRpSplit = [sim, first, moved](NodeId, const std::vector<Name>& cds) {
      if (*first >= 0) return;
      *first = sim->now();
      *moved = cds.front();
    };
  }
  foldDeliveries(w, r.digest);

  w.sim->scheduleAt(0, [&w]() {
    for (std::size_t i : {1u, 2u, 3u, 4u}) w.clients[i]->subscribe(Name());
  });
  // 1 ms apart against the RP's 3.3 ms service time: the backlog crosses
  // the 20 ms threshold after ~9 publications.
  for (std::uint64_t s = 0; s < 120; ++s) {
    const SimTime at = ms(20) + ms(1) * static_cast<SimTime>(s);
    for (const std::size_t c : {0u, 5u}) {
      const std::uint64_t seq = 2 * s + (c == 0 ? 1 : 2);
      const Name cd = Name::parse(std::string(c == 0 ? "/a/" : "/b/") + (s % 2 ? "1" : "2"));
      w.net->nodeSim(w.clientIds[c]).scheduleAt(at, [&w, c, cd, seq]() {
        w.clients[c]->publish(cd, 15, seq);
      });
    }
  }

  runAndSeal(w, psim.get(), r.digest);
  for (std::size_t i = 0; i < w.routers.size(); ++i) {
    r.splits[i] = w.routers[i]->splitsInitiated();
  }
  return r;
}

TEST(ParallelDeterminism, AutoBalanceSplitsIdenticalAcrossThreadCounts) {
  const SplitRun serial = runTwoHotRps(0);
  ASSERT_GE(serial.splits[1], 1u) << "RP /a must split";
  ASSERT_GE(serial.splits[4], 1u) << "RP /b must split";
  EXPECT_EQ(serial.firstSplitAt[1], serial.firstSplitAt[4])
      << "both RPs must split at the same instant (one round)";
  for (std::size_t threads : {2u, 4u}) {
    const SplitRun par = runTwoHotRps(threads);
    EXPECT_NE(par.shard[1], par.shard[4]) << "threads=" << threads;
    EXPECT_EQ(par.digest, serial.digest)
        << "threads=" << threads << ": per-client delivery traces must match serial";
    EXPECT_EQ(par.splits, serial.splits) << "threads=" << threads;
    EXPECT_EQ(par.firstSplitAt, serial.firstSplitAt) << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, SplitRoutingAnUninternedCdOnAWorkerLaneThrows) {
  // Without setup interning the first split would grow the world's
  // NameTable inside a round, racing the other shard's lookups. Both RPs
  // split in one round, on different shards, and each throws; the run
  // reports the lower shard's error whatever the thread timing. That
  // split moves the same CDs as in the interned run.
  const SplitRun interned = runTwoHotRps(2);
  ASSERT_NE(interned.shard[1], interned.shard[4]);
  const std::size_t lower = interned.shard[1] < interned.shard[4] ? 1 : 4;
  const std::string expected = "route for " + interned.firstMoved[lower].toString() +
                               " added inside a parallel round, but the world never "
                               "interned that prefix: intern it at setup";
  try {
    runTwoHotRps(2, /*internCds=*/false);
    ADD_FAILURE() << "the split routed an uninterned CD inside a round";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
}

// Two worlds share no state: each owns its names, engine and recorders, so
// two different worlds may run at once in one process, each on its own
// parallel engine, and reproduce the digests they give alone.
TEST(ParallelWorlds, TwoWorldsOnTwoThreadsReproduceTheirSoloDigests) {
  const TraceDigest chaosAlone = runWorld(2, /*chaos=*/true);
  const SplitRun splitAlone = runTwoHotRps(2);
  TraceDigest chaos;
  SplitRun split;
  std::thread a([&chaos]() { chaos = runWorld(2, /*chaos=*/true); });
  std::thread b([&split]() { split = runTwoHotRps(2); });
  a.join();
  b.join();
  EXPECT_EQ(chaos, chaosAlone);
  EXPECT_EQ(split.digest, splitAlone.digest);
  EXPECT_EQ(split.splits, splitAlone.splits);
  EXPECT_EQ(split.firstSplitAt, splitAlone.firstSplitAt);
}

// Two senders' deliveries tie at one receiver: same send time, same arrival
// time, over links no shorter than the lookahead. B sends first in execution
// order, but the merge admits by key, so A (the lower node id) reaches the
// receiver's CPU first — whether or not a sender shares the receiver's
// shard. A shortcut for co-sharded deliveries would admit B first at one
// shard and A first at three.
class TieNode : public Node {
 public:
  TieNode(NodeId id, Network& net) : Node(id, net) {}
  void handle(NodeId from, const PacketPtr&) override { arrivals.emplace_back(from, sim().now()); }
  SimTime serviceTime(const PacketPtr&) const override { return ms(1); }
  void emit(NodeId to) { send(to, makePacket<Packet>(Packet::Kind::IpUnicast, Bytes{100})); }

  std::vector<std::pair<NodeId, SimTime>> arrivals;
};

std::vector<std::pair<NodeId, SimTime>> runTiedSenders(std::size_t threads) {
  Simulator sim;
  Topology topo;
  const NodeId r = topo.addNode(), a = topo.addNode(), b = topo.addNode();
  topo.addLink(a, r, ms(5));
  topo.addLink(b, r, ms(5));
  Network net(sim, topo, SimParams::largeScale());
  auto& rx = net.emplaceNode<TieNode>(r, net);
  auto& txA = net.emplaceNode<TieNode>(a, net);
  auto& txB = net.emplaceNode<TieNode>(b, net);
  ParallelSimulator::Options po;
  po.workers = threads;
  po.lookahead = topo.parallelLookahead();
  ParallelSimulator psim(sim, po);
  net.enableParallel(psim);
  net.nodeSim(b).scheduleAt(ms(1), [&txB, r]() { txB.emit(r); });
  net.nodeSim(a).scheduleAt(ms(1), [&txA, r]() { txA.emit(r); });
  psim.run();
  return rx.arrivals;
}

TEST(ParallelDeterminism, TiedDeliveriesMergeByKeyWhetherOrNotCoSharded) {
  const auto one = runTiedSenders(1);  // every node on one shard
  ASSERT_EQ(one.size(), 2u);
  EXPECT_EQ(one[0].first, 1) << "the lower sender id wins the tie";
  EXPECT_EQ(one[1].first, 2);
  EXPECT_EQ(runTiedSenders(2), one) << "sender 2 shares the receiver's shard";
  EXPECT_EQ(runTiedSenders(3), one) << "every node on its own shard";
}

// The Rocketfuel world mixes link delays (hosts 1 ms, edge uplinks 5 ms,
// core 1-20 ms), so its lookahead exceeds its shortest link: deliveries over
// the shorter links stay on their component's lane and skip the merge. The
// LineWorld runs above never reach that path (every link there is 1 ms).
struct RocketfuelRun {
  gc::RunSummary summary;
  std::size_t shortLinks = 0;  // links with delay < lookahead
  std::size_t longLinks = 0;
};

RocketfuelRun runRocketfuel(std::size_t threads, bool autoBalance) {
  const game::GameMap map{std::vector<std::size_t>{2, 2}};
  const game::ObjectDatabase db{map, {6, 12, 24}};
  trace::CsTraceConfig tcfg;
  tcfg.players = 40;
  tcfg.totalUpdates = 1500;
  tcfg.meanInterArrival = ms(2);  // a single root RP backs up past 50 ms
  tcfg.seed = 7;
  const auto trace = trace::generateCsTrace(map, db, tcfg);

  gc::GCopssRunConfig cfg;
  cfg.topo = gc::TopoKind::Rocketfuel;
  cfg.threads = threads;
  if (autoBalance) {
    cfg.autoBalance = true;
    cfg.balance.backlogThreshold = ms(50);
    cfg.balance.cooldown = seconds(1);
  }
  RocketfuelRun r;
  cfg.onWorldReady = [&r, threads](const gc::GCopssRunConfig::WorldView& w) {
    const Topology& topo = w.net.topology();
    const SimTime lookahead = topo.parallelLookahead();
    if (threads > 0) {
      EXPECT_EQ(w.net.parallel()->lookahead(), lookahead);
    }
    for (const Topology::Link& l : topo.links()) {
      if (l.delay >= lookahead) {
        ++r.longLinks;
        continue;
      }
      ++r.shortLinks;
      EXPECT_EQ(w.net.shardOf(l.a), w.net.shardOf(l.b))
          << "threads=" << threads << ": link " << l.a << "-" << l.b << " ("
          << l.delay << " ns) is shorter than the lookahead but joins two shards";
    }
  };
  r.summary = gc::runGCopssTrace(map, trace, cfg);
  return r;
}

TEST(ParallelDeterminism, RocketfuelShortLinkComponentsIdenticalAcrossThreadCounts) {
  for (const bool autoBalance : {false, true}) {
    const RocketfuelRun serial = runRocketfuel(0, autoBalance);
    EXPECT_GT(serial.shortLinks, 0u) << "the lookahead must exceed the shortest link";
    EXPECT_GT(serial.longLinks, 0u);
    EXPECT_GT(serial.summary.deliveries, 0u);
    if (autoBalance) {
      EXPECT_GE(serial.summary.rpSplits, 1u) << "the root RP must split";
    }
    for (const std::size_t threads : {1u, 2u, 4u}) {
      const gc::RunSummary par = runRocketfuel(threads, autoBalance).summary;
      const gc::RunSummary& ref = serial.summary;
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " autoBalance=" << autoBalance);
      EXPECT_EQ(par.deliveries, ref.deliveries);
      EXPECT_EQ(par.eventsExecuted, ref.eventsExecuted);
      EXPECT_EQ(par.linkPackets, ref.linkPackets);
      EXPECT_EQ(par.drops, ref.drops);
      EXPECT_EQ(par.rpSplits, ref.rpSplits);
      EXPECT_EQ(par.p50Ms, ref.p50Ms);
      EXPECT_EQ(par.p99Ms, ref.p99Ms);
      EXPECT_EQ(par.latencyCdfMs, ref.latencyCdfMs);
    }
  }
}

// ---------------------------------------------------------------------------
// Shared-structure hammers (primarily TSan targets).
// ---------------------------------------------------------------------------

TEST(ParallelShared, PacketRefCountSurvivesConcurrentRetainRelease) {
  auto base = makePacket<Packet>(Packet::Kind::Multicast, Bytes{64});
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&base]() {
      for (int i = 0; i < kIters; ++i) {
        PacketPtr copy = base;        // retain
        PacketPtr second = copy;      // retain
        copy.reset();                 // release
        // `second` releases at scope end
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(base->size, Bytes{64});  // object alive and intact
}

TEST(ParallelShared, FaultLanesAreSeedStablePerLink) {
  // Two injectors over the same plan must agree even if one interleaves
  // draws across links differently: each directed link owns its stream.
  FaultPlan plan;
  plan.seed = 7;
  plan.loseEverywhere(0.2).jitterEverywhere(us(500)).withIndependentStreams();
  const std::vector<std::pair<NodeId, NodeId>> links = {{0, 1}, {1, 0}, {1, 2}, {2, 1}};

  FaultInjector a(plan);
  a.prepareLanes(links);
  FaultInjector b(plan);
  b.prepareLanes(links);

  // a: draw link (0,1) x3 then (1,2) x3. b: interleaved. Same per-link
  // verdict sequences either way.
  std::vector<SimTime> a01, a12, b01, b12;
  for (int i = 0; i < 3; ++i) {
    auto v = a.onTransmit(0, 1, ms(i));
    a01.push_back(v.drop ? -1 : v.extraDelay);
  }
  for (int i = 0; i < 3; ++i) {
    auto v = a.onTransmit(1, 2, ms(i));
    a12.push_back(v.drop ? -1 : v.extraDelay);
  }
  for (int i = 0; i < 3; ++i) {
    auto v = b.onTransmit(1, 2, ms(i));
    b12.push_back(v.drop ? -1 : v.extraDelay);
    v = b.onTransmit(0, 1, ms(i));
    b01.push_back(v.drop ? -1 : v.extraDelay);
  }
  EXPECT_EQ(a01, b01);
  EXPECT_EQ(a12, b12);
}

}  // namespace
}  // namespace gcopss::test
