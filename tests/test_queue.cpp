#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "des/parallel.hpp"
#include "des/simulator.hpp"
#include "net/network.hpp"
#include "net/queue.hpp"
#include "world_fixture.hpp"

namespace gcopss::test {
namespace {

// ---------------------------------------------------------------------------
// FaceQueue: DropTail caps, lazy serialization, occupancy, sojourn accounting.
// ---------------------------------------------------------------------------

FaceQueue makeQueue(Simulator& sim, double bps, Bytes capBytes = 1 << 20,
                    std::size_t capPackets = 1024) {
  return FaceQueue(0, 1, bps, capBytes, capPackets, sim);
}

TEST(DropTail, ByteCapRefusesTheOverflowingPacket) {
  Simulator sim;
  FaceQueue q = makeQueue(sim, 1e6, /*capBytes=*/1000, /*capPackets=*/100);
  ASSERT_TRUE(q.admit(900).admitted);
  EXPECT_FALSE(q.admit(101).admitted);  // one byte over
  EXPECT_TRUE(q.admit(100).admitted);   // lands exactly on the cap
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(q.stats().bytesQueued, 1000u);
}

TEST(DropTail, PacketCapRefusesIndependentlyOfBytes) {
  Simulator sim;
  FaceQueue q = makeQueue(sim, 1e6, /*capBytes=*/1 << 20, /*capPackets=*/4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.admit(1).admitted);
  EXPECT_FALSE(q.admit(1).admitted);
  EXPECT_EQ(q.stats().dropped, 1u);
  // The first packet's last bit leaves after one serialization time, which
  // frees one slot.
  sim.run(q.txTime(1));
  EXPECT_EQ(q.stats().packetsQueued, 3u);
  EXPECT_TRUE(q.admit(1).admitted);
  EXPECT_FALSE(q.admit(1).admitted);
}

TEST(FaceQueue, BackToBackAdmitsSerializeInOrder) {
  // 1 Mbps, 1000-byte packets: 8 ms on the wire each.
  Simulator sim;
  FaceQueue q = makeQueue(sim, 1e6);
  const auto a = q.admit(1000);
  const auto b = q.admit(1000);
  const auto c = q.admit(1000);
  ASSERT_TRUE(a.admitted && b.admitted && c.admitted);
  EXPECT_EQ(a.txDone, ms(8));
  EXPECT_EQ(b.txDone, ms(16));
  EXPECT_EQ(c.txDone, ms(24));
  EXPECT_EQ(q.backlog(0), ms(24));
  EXPECT_EQ(q.stats().bytesQueued, 3000u);
  EXPECT_EQ(q.stats().packetsQueued, 3u);
  EXPECT_EQ(q.stats().peakBytesQueued, 3000u);
  // Sojourn = admit -> last bit out: 8, 16, 24 ms.
  EXPECT_EQ(q.stats().maxSojourn, ms(24));
  EXPECT_EQ(q.stats().sojournSum, ms(48));

  // No event marks a departure: once the run is past a's last bit, the read
  // settles it.
  sim.run(ms(8));
  EXPECT_EQ(q.stats().bytesQueued, 2000u);
  EXPECT_EQ(q.stats().departed, 1u);
  EXPECT_EQ(q.stats().peakBytesQueued, 3000u) << "peak is a high-water mark";
}

TEST(FaceQueue, IdleFaceRestartsFromNow) {
  Simulator sim;
  FaceQueue q = makeQueue(sim, 1e6);
  (void)q.admit(1000);
  FaceQueue::Admission a;
  sim.scheduleAt(ms(50), [&]() {
    EXPECT_EQ(q.backlog(ms(50)), 0) << "idle after the only packet departed";
    EXPECT_EQ(q.stats().packetsQueued, 0u);
    a = q.admit(1000);
  });
  sim.run();
  EXPECT_EQ(a.txDone, ms(58)) << "serialization restarts at `now`, not freeAt";
  EXPECT_EQ(q.stats().departed, 2u);
}

TEST(FaceQueue, RefusalCountsADropAndLeavesOccupancyAlone) {
  Simulator sim;
  FaceQueue q = makeQueue(sim, 1e6, /*capBytes=*/1500);
  ASSERT_TRUE(q.admit(1000).admitted);
  const auto refused = q.admit(1000);
  EXPECT_FALSE(refused.admitted);
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(q.stats().bytesQueued, 1000u);
  EXPECT_EQ(q.stats().enqueued, 1u);
}

// ---------------------------------------------------------------------------
// Network integration (serial engine).
// ---------------------------------------------------------------------------

// Minimal endpoint: records arrival times, can emit fixed-size packets.
class SinkNode : public Node {
 public:
  SinkNode(NodeId id, Network& net, SimTime service)
      : Node(id, net), service_(service) {}
  void handle(NodeId from, const PacketPtr&) override {
    arrivals.push_back({from, sim().now()});
  }
  SimTime serviceTime(const PacketPtr&) const override { return service_; }
  void emit(NodeId to, Bytes size) {
    send(to, makePacket<Packet>(Packet::Kind::IpUnicast, size));
  }
  SimTime queueBacklog() { return faceQueueBacklog(); }

  std::vector<std::pair<NodeId, SimTime>> arrivals;

 private:
  SimTime service_;
};

struct TwoNodes {
  Simulator sim;
  Topology topo;
  NodeId a, b;
  std::unique_ptr<Network> net;
  SinkNode* na = nullptr;
  SinkNode* nb = nullptr;

  explicit TwoNodes(double bw = 1e6) {
    a = topo.addNode("a");
    b = topo.addNode("b");
    topo.addLink(a, b, ms(10), bw);
    net = std::make_unique<Network>(sim, topo);
    na = &net->emplaceNode<SinkNode>(a, *net, ms(1));
    nb = &net->emplaceNode<SinkNode>(b, *net, ms(1));
  }
};

TEST(NetworkQueues, UncontendedTimingMatchesTheLegacyPath) {
  // One packet at a time: the queued path must reproduce the legacy
  // propagation + transmission + service latency exactly.
  TwoNodes legacy(1e6);
  legacy.sim.scheduleAt(0, [&]() { legacy.na->emit(legacy.b, 1000); });
  legacy.sim.run();

  TwoNodes queued(1e6);
  queued.net->enableLinkQueues(LinkQueueConfig::dropTail(1 << 20));
  queued.sim.scheduleAt(0, [&]() { queued.na->emit(queued.b, 1000); });
  queued.sim.run();

  ASSERT_EQ(legacy.nb->arrivals.size(), 1u);
  ASSERT_EQ(queued.nb->arrivals.size(), 1u);
  EXPECT_EQ(queued.nb->arrivals[0].second, legacy.nb->arrivals[0].second);
  EXPECT_EQ(queued.nb->arrivals[0].second, ms(10) + ms(8) + ms(1));
}

TEST(NetworkQueues, SaturationSerializesThenDrops) {
  // 1 Mbps face, byte cap = 3 packets. A burst of 10 x 1000B: every admitted
  // packet serializes back-to-back; the overflow is dropped and accounted.
  TwoNodes w(1e6);
  w.net->enableLinkQueues(LinkQueueConfig::dropTail(/*capBytes=*/3000));
  w.sim.scheduleAt(0, [&]() {
    for (int i = 0; i < 10; ++i) w.na->emit(w.b, 1000);
  });
  // While the burst drains, the sender's worst face backlog is visible.
  w.sim.scheduleAt(ms(1), [&]() { EXPECT_GT(w.na->queueBacklog(), ms(10)); });
  w.sim.run();

  EXPECT_EQ(w.nb->arrivals.size(), 3u);
  EXPECT_EQ(w.net->totalQueueDrops(), 7u);
  EXPECT_EQ(w.net->totalDrops(), 7u) << "queue drops roll into the drop meter";
  // Successive arrivals are spaced by exactly one serialization time.
  EXPECT_EQ(w.nb->arrivals[1].second - w.nb->arrivals[0].second, ms(8));
  EXPECT_EQ(w.nb->arrivals[2].second - w.nb->arrivals[1].second, ms(8));

  const FaceQueueStats& s = w.net->faceQueue(w.a, w.b).stats();
  EXPECT_EQ(s.enqueued, 3u);
  EXPECT_EQ(s.departed, 3u);
  EXPECT_EQ(s.dropped, 7u);
  EXPECT_EQ(s.bytesQueued, 0u) << "fully drained";
  const QueueAggregate agg = w.net->queueAggregate();
  EXPECT_EQ(agg.dropped, 7u);
  EXPECT_GT(agg.maxSojournMs(), 0.0);
}

// A departure at exactly `txDone` sits where a departure event scheduled at
// admission would: after the events at that instant scheduled before the
// packet was admitted, before the ones scheduled after it.
TEST(NetworkQueues, DepartureTiesFollowEventOrder) {
  TwoNodes w(1e6);
  w.net->enableLinkQueues(LinkQueueConfig::dropTail(/*capBytes=*/1000));
  w.sim.scheduleAt(0, [&]() {
    w.na->emit(w.b, 1000);  // P: 8 ms on the wire, txDone = 8 ms
    // Scheduled after P's admission: P has left by the time this runs.
    w.sim.scheduleAt(ms(8), [&]() { w.na->emit(w.b, 998); });
  });
  // Scheduled before P's admission: P still fills the queue.
  w.sim.scheduleAt(ms(8), [&]() { w.na->emit(w.b, 999); });
  w.sim.run();

  const FaceQueueStats& s = w.net->faceQueue(w.a, w.b).stats();
  EXPECT_EQ(s.dropped, 1u) << "the 999-B send meets P still queued";
  EXPECT_EQ(s.enqueued, 2u);
  EXPECT_EQ(s.departed, 2u);
  EXPECT_EQ(s.bytesQueued, 0u);
  EXPECT_EQ(s.packetsQueued, 0u);
  ASSERT_EQ(w.nb->arrivals.size(), 2u);
  // 10 ms propagation + 1 ms service after the last bit: P at 8 ms, the
  // 998-B packet at 8 + 7.984 ms.
  EXPECT_EQ(w.nb->arrivals[0].second, ms(19));
  EXPECT_EQ(w.nb->arrivals[1].second, us(26984));
}

// Satellite bugfix pin: resetLoadMeter() must clear the drop counters too,
// not just bytes/packets — a warmup that saturates a queue must not bleed
// drops into the measured window.
TEST(NetworkQueues, ResetLoadMeterClearsDropCounters) {
  TwoNodes w(1e6);
  w.net->enableLinkQueues(LinkQueueConfig::dropTail(/*capBytes=*/1000));
  w.sim.scheduleAt(0, [&]() {
    for (int i = 0; i < 5; ++i) w.na->emit(w.b, 1000);
  });
  w.sim.run();
  ASSERT_GT(w.net->totalDrops(), 0u);
  ASSERT_GT(w.net->totalQueueDrops(), 0u);
  ASSERT_GT(w.net->totalLinkBytes(), 0u);

  w.net->resetLoadMeter();
  EXPECT_EQ(w.net->totalDrops(), 0u);
  EXPECT_EQ(w.net->totalQueueDrops(), 0u);
  EXPECT_EQ(w.net->totalLinkBytes(), 0u);
  EXPECT_EQ(w.net->totalLinkPackets(), 0u);
}

// ---------------------------------------------------------------------------
// Conservation: the invariant ledger must account every queue drop, so a
// saturated world still audits clean (LineWorld runs the conservation
// checker at teardown).
// ---------------------------------------------------------------------------

TEST(NetworkQueues, ConservationLedgerAccountsQueueDrops) {
  LineWorld w(3);
  w.topo->setAllBandwidths(2e5);  // 200 kbps everywhere: ~40 ms per kB
  w.net->enableLinkQueues(LinkQueueConfig::dropTail(/*capBytes=*/4096));
  w.sim->scheduleAt(0, [&]() { w.clients[0]->subscribe(Name()); });
  for (int i = 1; i <= 40; ++i) {
    w.sim->scheduleAt(ms(10) * i, [&w, i]() {
      w.clients[2]->publish(Name::parse("/1/1"), 1000,
                            static_cast<std::uint64_t>(i));
    });
  }
  w.sim->run();
  EXPECT_GT(w.net->totalQueueDrops(), 0u) << "the run must actually saturate";
  // Teardown runs the conservation audit; a QueueDrop that was not folded
  // into the ledger would fail the test here.
}

// ---------------------------------------------------------------------------
// Determinism: a saturated DropTail world produces bit-identical per-client
// delivery folds on the serial engine and at 1/2/4 threads.
// ---------------------------------------------------------------------------

struct SatDigest {
  std::vector<std::uint64_t> perClient;
  std::uint64_t queueDrops = 0;
  std::uint64_t linkPackets = 0;
  // Client 1's uplink counters as the global-lane send at `tie` saw them.
  std::uint64_t enqueuedAtTie = 0;
  std::uint64_t departedAtTie = 0;
  bool operator==(const SatDigest& o) const {
    return perClient == o.perClient && queueDrops == o.queueDrops &&
           linkPackets == o.linkPackets && enqueuedAtTie == o.enqueuedAtTie &&
           departedAtTie == o.departedAtTie;
  }
};

SatDigest runSaturated(std::size_t threads) {
  LineWorld w(6, {}, SimParams::largeScale(), /*ring=*/true);
  w.singleRootRp(2);
  w.topo->setAllBandwidths(4e5);  // 400 kbps: the RP's egress faces back up
  w.net->enableLinkQueues(LinkQueueConfig::dropTail(/*capBytes=*/6000));

  std::unique_ptr<ParallelSimulator> psim;
  if (threads > 0) {
    w.checker.reset();  // observers are serial-only
    ParallelSimulator::Options po;
    po.workers = threads;
    po.lookahead = w.topo->parallelLookahead();
    psim = std::make_unique<ParallelSimulator>(*w.sim, po);
    w.net->enableParallel(*psim);
  }

  SatDigest d;
  d.perClient.assign(w.clients.size(), 0x9e3779b97f4a7c15ULL);
  for (std::size_t i = 0; i < w.clients.size(); ++i) {
    std::uint64_t* h = &d.perClient[i];
    w.clients[i]->setMulticastCallback(
        [h](const copss::MulticastPacket& m, SimTime now) {
          *h = mix64(*h ^ m.seq);
          *h = mix64(*h ^ static_cast<std::uint64_t>(now));
        });
  }
  w.sim->scheduleAt(0, [&w]() {
    w.clients[0]->subscribe(Name());
    w.clients[5]->subscribe(Name::parse("/1"));
  });
  for (std::uint64_t s = 1; s <= 80; ++s) {
    const SimTime at = ms(10) + ms(2) * static_cast<SimTime>(s - 1);
    if (psim) {
      w.net->nodeSim(w.clientIds[1]).scheduleAt(at, [&w, s]() {
        w.clients[1]->publish(Name::parse("/1/1"), 800, s);
      });
    } else {
      w.sim->scheduleAt(at, [&w, s]() {
        w.clients[1]->publish(Name::parse("/1/1"), 800, s);
      });
    }
  }
  // A send from a global-lane event at the exact txDone of client 1's first
  // publication (admitted at 10 ms on an idle face). Parallel: the face
  // queue lives on client 1's shard, and the global phase runs before that
  // shard's events at `tie`. Serial: this event was scheduled before the
  // packet's admission. Either way the packet has not yet left.
  const NodeId c1 = w.clientIds[1];
  const NodeId r1 = w.routerIds[1];
  const SimTime tie =
      ms(10) + w.net->faceQueue(c1, r1).txTime(copss::kMulticastHeaderBytes + 800);
  w.sim->scheduleAt(tie, [&w, &d, c1, r1]() {
    const FaceQueueStats& s = w.net->faceQueue(c1, r1).stats();
    d.enqueuedAtTie = s.enqueued;
    d.departedAtTie = s.departed;
    w.clients[1]->publish(Name::parse("/1/1"), 800, 1000);
  });
  if (psim) {
    psim->run();
  } else {
    w.sim->run();
  }
  d.queueDrops = w.net->totalQueueDrops();
  d.linkPackets = w.net->totalLinkPackets();
  for (const Topology::Link& l : w.topo->links()) {
    for (const auto& [from, to] : {std::pair{l.a, l.b}, std::pair{l.b, l.a}}) {
      const FaceQueueStats& s = w.net->faceQueue(from, to).stats();
      EXPECT_EQ(s.departed, s.enqueued) << "threads=" << threads << " face " << from
                                        << "->" << to << ": drained";
      EXPECT_EQ(s.bytesQueued, 0u) << "threads=" << threads << " face " << from
                                   << "->" << to;
    }
  }
  return d;
}

TEST(QueueDeterminism, SaturatedDropTailRunIdenticalAcrossThreadCounts) {
  const SatDigest serial = runSaturated(0);
  EXPECT_GT(serial.queueDrops, 0u) << "the workload must actually overflow";
  EXPECT_GT(serial.enqueuedAtTie, 1u);
  EXPECT_EQ(serial.departedAtTie, 0u) << "the packet leaving at `tie` is still queued";
  for (std::size_t threads : {1u, 2u, 4u}) {
    const SatDigest par = runSaturated(threads);
    EXPECT_EQ(par, serial) << "threads=" << threads
                           << ": saturated runs must fold bit-identically";
  }
}

// A 1500-B packet sent at 0 leaves at 12 ms and arrives at 22 ms. With the
// 10 ms lookahead the parallel engine's first round ends at 10 ms, and no
// shard event runs between then and 22 ms. Returns the face's departures as
// a global-lane event at `readAt` saw them (if readAt >= 0) and after a
// run up to 15 ms.
std::pair<std::uint64_t, std::uint64_t> departedSeen(std::size_t threads,
                                                     SimTime readAt) {
  TwoNodes w(1e6);
  w.net->enableLinkQueues(LinkQueueConfig::dropTail(1 << 20));
  std::unique_ptr<ParallelSimulator> psim;
  if (threads > 0) {
    ParallelSimulator::Options po;
    po.workers = threads;
    po.lookahead = w.topo.parallelLookahead();
    psim = std::make_unique<ParallelSimulator>(w.sim, po);
    w.net->enableParallel(*psim);
  }
  std::uint64_t atRead = 0;
  if (readAt >= 0) {
    w.sim.scheduleAt(readAt, [&w, &atRead]() {
      atRead = w.net->faceQueue(w.a, w.b).stats().departed;
    });
  }
  w.net->nodeSim(w.a).scheduleAt(0, [&w]() { w.na->emit(w.b, 1500); });
  if (psim) {
    psim->run(ms(15));
  } else {
    w.sim.run(ms(15));
  }
  EXPECT_TRUE(w.nb->arrivals.empty()) << "threads=" << threads;
  return {atRead, w.net->faceQueue(w.a, w.b).stats().departed};
}

TEST(QueueDeterminism, ReadsSettleDeparturesTheSameOnEveryEngine) {
  for (std::size_t threads : {0u, 1u, 2u}) {
    EXPECT_EQ(departedSeen(threads, -1).second, 1u)
        << "threads=" << threads << ": run(15 ms) is past the 12 ms departure";
    EXPECT_EQ(departedSeen(threads, ms(12)).first, 0u)
        << "threads=" << threads << ": a global event at txDone runs first";
    EXPECT_EQ(departedSeen(threads, ms(13)).first, 1u)
        << "threads=" << threads << ": a global event after txDone sees it left";
  }
}

// ---------------------------------------------------------------------------
// RP load balancing off face-queue backlog (Section IV-B): a split fires
// when the RP's uplink is saturated even though its CPU is idle — and does
// not fire on the identical workload with queues disabled.
// ---------------------------------------------------------------------------

std::uint64_t splitsWithQueues(bool enableQueues) {
  copss::CopssRouter::Options opts;
  opts.autoBalance = true;
  opts.balance.backlogThreshold = ms(20);
  opts.balance.windowSize = 64;
  opts.balance.minDistinctCds = 2;
  // Near-free CPU: any split decision must come from the link, not the CPU.
  SimParams cheap;
  cheap.rpProcessCost = us(1);
  cheap.copssForwardCost = us(1);
  LineWorld w(3, opts, cheap);
  w.singleRootRp(1);
  w.internCds({Name::parse("/a/1"), Name::parse("/b/1")});
  if (enableQueues) {
    // Only the RP's router-to-router egress links are slow (100 kbps).
    w.topo->setLinkBandwidth(w.routerIds[1], w.routerIds[0], 1e5);
    w.topo->setLinkBandwidth(w.routerIds[1], w.routerIds[2], 1e5);
    w.net->enableLinkQueues(LinkQueueConfig::dropTail(/*capBytes=*/1 << 20));
  }
  w.sim->scheduleAt(0, [&w]() {
    w.clients[0]->subscribe(Name());
    w.clients[2]->subscribe(Name());
  });
  for (int i = 1; i <= 30; ++i) {
    w.sim->scheduleAt(ms(2) * i, [&w, i]() {
      const char* cd = (i % 2 == 0) ? "/a/1" : "/b/1";
      w.clients[1]->publish(Name::parse(cd), 1000,
                            static_cast<std::uint64_t>(i));
    });
  }
  w.sim->run();
  return w.routers[1]->splitsInitiated();
}

TEST(QueueBalancer, SplitFiresFromFaceQueueBacklogWithAnIdleCpu) {
  EXPECT_GE(splitsWithQueues(true), 1u)
      << "saturated egress faces must trip the balancer";
}

TEST(QueueBalancer, NoSplitOnTheSameWorkloadWithoutLinkQueues) {
  EXPECT_EQ(splitsWithQueues(false), 0u)
      << "with infinite links and a near-free CPU nothing is congested";
}

}  // namespace
}  // namespace gcopss::test
