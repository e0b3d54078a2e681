#include <gtest/gtest.h>

#include "copss/deploy.hpp"
#include "gcopss/broker.hpp"
#include "world_fixture.hpp"

namespace gcopss::test {
namespace {

using gc::GameUpdatePacket;
using gc::SnapshotBroker;
using gc::SnapshotObjectPacket;

// A line world where router index `brokerIdx` is replaced by a broker.
struct BrokerWorld {
  game::GameMap map{std::vector<std::size_t>{2, 2}};
  game::ObjectDatabase db{map, {2, 4, 8}};
  Simulator sim;
  Topology topo;
  std::vector<NodeId> routerIds, clientIds;
  std::unique_ptr<Network> net;
  std::vector<copss::CopssRouter*> routers;
  std::vector<gc::GCopssClient*> clients;
  SnapshotBroker* broker = nullptr;

  BrokerWorld() {
    for (int i = 0; i < 4; ++i) {
      routerIds.push_back(topo.addNode("R" + std::to_string(i)));
      if (i > 0) topo.addLink(routerIds[i - 1], routerIds[i], ms(1));
    }
    for (int i = 0; i < 4; ++i) {
      clientIds.push_back(topo.addNode("C" + std::to_string(i)));
      topo.addLink(clientIds[i], routerIds[i], ms(1));
    }
    net = std::make_unique<Network>(sim, topo, SimParams::largeScale());
    // Router 3 is the broker, serving every leaf CD.
    for (int i = 0; i < 3; ++i) {
      routers.push_back(&net->emplaceNode<copss::CopssRouter>(routerIds[i], *net));
    }
    broker = &net->emplaceNode<SnapshotBroker>(routerIds[3], *net,
                                               copss::CopssRouter::Options{}, map, db,
                                               map.leafCds(),
                                               SnapshotBroker::BrokerOptions{});
    routers.push_back(broker);
    for (int i = 0; i < 4; ++i) {
      clients.push_back(&net->emplaceNode<gc::GCopssClient>(clientIds[i], *net, routerIds[i]));
      routers[static_cast<std::size_t>(i)]->markHostFace(clientIds[i]);
    }
    // Game CDs served by router 0; /snap groups by the broker; QR prefix to
    // the broker.
    copss::RpAssignment a;
    a.prefixToRp[Name()] = routerIds[0];
    for (const Name& leaf : map.leafCds()) {
      a.prefixToRp[SnapshotBroker::snapGroupCd(leaf)] = routerIds[3];
    }
    // The root game assignment conflicts with /snap prefixes; use per-leaf.
    a.prefixToRp.erase(Name());
    for (const Name& leaf : map.leafCds()) a.prefixToRp[leaf] = routerIds[0];
    copss::installAssignment(*net, routerIds, a);
    for (NodeId r : routerIds) {
      auto& router = dynamic_cast<copss::CopssRouter&>(net->node(r));
      for (const Name& leaf : map.leafCds()) {
        const Name prefix = SnapshotBroker::qrPrefix(leaf);
        if (r == routerIds[3]) {
          router.ndnEngine().fib().insert(prefix, ndn::kLocalFace);
        } else {
          router.ndnEngine().fib().insert(prefix, topo.nextHop(r, routerIds[3]));
        }
      }
    }
    sim.scheduleAt(0, [this]() { broker->start(); });
  }
};

TEST(Broker, MaintainsSnapshotsFromLiveUpdates) {
  BrokerWorld w;
  const Name zone = Name::parse("/1/1");
  const game::ObjectId obj = w.db.objectsIn(zone).front();
  w.sim.scheduleAt(ms(100), [&]() { w.clients[0]->publish(zone, 120, 1, obj); });
  w.sim.scheduleAt(ms(200), [&]() { w.clients[0]->publish(zone, 80, 2, obj); });
  w.sim.run();
  EXPECT_EQ(w.broker->gameUpdatesApplied(), 2u);
  // Eq. 1: 0.95*120 + 80 = 194.
  EXPECT_EQ(w.broker->snapshotDb().object(obj).snapshotBytes(), 194u);
}

TEST(Broker, QrServesCurrentObjectSize) {
  BrokerWorld w;
  const Name zone = Name::parse("/2/1");
  const game::ObjectId obj = w.db.objectsIn(zone).front();
  Bytes got = 0;
  w.clients[1]->setDataCallback(
      [&](const ndn::DataPacketPtr& d, SimTime) {
        got = d->payloadSize;
      });
  w.sim.scheduleAt(ms(100), [&]() { w.clients[0]->publish(zone, 200, 1, obj); });
  w.sim.scheduleAt(ms(300), [&]() {
    w.clients[1]->expressInterest(SnapshotBroker::qrName(zone, obj));
  });
  w.sim.run();
  EXPECT_EQ(got, 200u);
  EXPECT_EQ(w.broker->qrQueriesServed(), 1u);
}

TEST(Broker, QrUnchangedObjectCostsAlmostNothing) {
  BrokerWorld w;
  const Name zone = Name::parse("/2/2");
  const game::ObjectId obj = w.db.objectsIn(zone).front();
  Bytes got = 1;
  w.clients[2]->setDataCallback(
      [&](const ndn::DataPacketPtr& d, SimTime) {
        got = d->payloadSize;
      });
  w.sim.scheduleAt(ms(100), [&]() {
    w.clients[2]->expressInterest(SnapshotBroker::qrName(zone, obj));
  });
  w.sim.run();
  EXPECT_EQ(got, 8u);  // header-only for version-0 objects
}

// A broker numbers its own snapshots from 1, so a second world built in the
// same process replays the first one's seqs.
TEST(Broker, SnapshotSeqsRestartWithEveryBroker) {
  std::vector<std::vector<std::uint64_t>> runs;
  for (int run = 0; run < 2; ++run) {
    BrokerWorld w;
    const Name group = SnapshotBroker::snapGroupCd(Name::parse("/1/2"));
    std::vector<std::uint64_t> seqs;
    w.clients[1]->setMulticastCallback([&](const copss::MulticastPacket& m, SimTime) {
      if (!dynamic_cast<const SnapshotObjectPacket*>(&m) || seqs.size() == 3) return;
      seqs.push_back(m.seq);
      if (seqs.size() == 3) w.clients[1]->unsubscribe(group);
    });
    w.sim.scheduleAt(ms(100), [&]() { w.clients[1]->subscribe(group); });
    w.sim.run();
    runs.push_back(seqs);
  }
  EXPECT_EQ(runs[0], (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(runs[1], runs[0]);
}

TEST(Broker, CyclicStartsOnSubscribeAndStopsOnUnsubscribe) {
  BrokerWorld w;
  const Name zone = Name::parse("/1/2");
  const Name group = SnapshotBroker::snapGroupCd(zone);
  std::set<game::ObjectId> got;
  std::uint32_t cycleLen = 0;
  w.clients[1]->setMulticastCallback([&](const copss::MulticastPacket& m, SimTime) {
    if (const auto* snap = dynamic_cast<const SnapshotObjectPacket*>(&m)) {
      got.insert(snap->objectId);
      cycleLen = snap->cycleLength;
      if (got.size() == snap->cycleLength) w.clients[1]->unsubscribe(group);
    }
  });
  w.sim.scheduleAt(ms(100), [&]() { w.clients[1]->subscribe(group); });
  w.sim.run();  // must terminate: the cycle stops after the unsubscribe
  EXPECT_EQ(cycleLen, w.db.objectsIn(zone).size());
  EXPECT_EQ(got.size(), cycleLen);
  // Bounded waste: at most ~one extra cycle after the unsubscribe.
  EXPECT_LE(w.broker->cyclicObjectsSent(), 3u * cycleLen);
}

TEST(Broker, CyclicSharedByConcurrentSubscribers) {
  BrokerWorld w;
  const Name zone = Name::parse("/1/1");
  const Name group = SnapshotBroker::snapGroupCd(zone);
  std::map<int, std::set<game::ObjectId>> got;
  for (int c : {0, 1}) {
    w.clients[static_cast<std::size_t>(c)]->setMulticastCallback(
        [&, c](const copss::MulticastPacket& m, SimTime) {
          if (const auto* snap = dynamic_cast<const SnapshotObjectPacket*>(&m)) {
            got[c].insert(snap->objectId);
            if (got[c].size() == snap->cycleLength) {
              w.clients[static_cast<std::size_t>(c)]->unsubscribe(group);
            }
          }
        });
  }
  w.sim.scheduleAt(ms(100), [&]() {
    w.clients[0]->subscribe(group);
    w.clients[1]->subscribe(group);
  });
  w.sim.run();
  const std::size_t need = w.db.objectsIn(zone).size();
  EXPECT_EQ(got[0].size(), need);
  EXPECT_EQ(got[1].size(), need);
  // One shared cycle serves both: the broker sent far fewer than 2x.
  EXPECT_LE(w.broker->cyclicObjectsSent(), need + need / 2 + 4);
}

}  // namespace
}  // namespace gcopss::test
