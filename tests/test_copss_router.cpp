#include <gtest/gtest.h>

#include "world_fixture.hpp"

namespace gcopss::test {
namespace {

using copss::RpAssignment;

TEST(CopssRouter, SubscriberReceivesPublication) {
  LineWorld w(3);
  w.singleRootRp(1);
  DeliveryLog log;
  log.attach(w);

  w.sim->scheduleAt(0, [&]() { w.clients[2]->subscribe(Name::parse("/1/2")); });
  w.sim->scheduleAt(ms(100), [&]() { w.clients[0]->publish(Name::parse("/1/2"), 100, 1); });
  w.sim->run();

  EXPECT_TRUE(log.got(2, 1));
  EXPECT_FALSE(log.got(1, 1));
  EXPECT_FALSE(log.got(0, 1));  // publisher is not subscribed
}

TEST(CopssRouter, HierarchicalSubscriptionSeesDescendantPublications) {
  LineWorld w(3);
  w.singleRootRp(0);
  DeliveryLog log;
  log.attach(w);

  // Subscribing to /1 must deliver publications to /1/2 and /1/_, not /2/1.
  w.sim->scheduleAt(0, [&]() { w.clients[2]->subscribe(Name::parse("/1")); });
  w.sim->scheduleAt(ms(100), [&]() {
    w.clients[0]->publish(Name::parse("/1/2"), 100, 1);
    w.clients[0]->publish(Name::parse("/1/_"), 100, 2);
    w.clients[0]->publish(Name::parse("/2/1"), 100, 3);
  });
  w.sim->run();

  EXPECT_TRUE(log.got(2, 1));
  EXPECT_TRUE(log.got(2, 2));
  EXPECT_FALSE(log.got(2, 3));
}

TEST(CopssRouter, RootSubscriptionSeesEverything) {
  LineWorld w(2);
  w.singleRootRp(0);
  DeliveryLog log;
  log.attach(w);

  w.sim->scheduleAt(0, [&]() { w.clients[1]->subscribe(Name()); });
  w.sim->scheduleAt(ms(100), [&]() {
    w.clients[0]->publish(Name::parse("/_"), 10, 1);
    w.clients[0]->publish(Name::parse("/3/4"), 10, 2);
  });
  w.sim->run();

  EXPECT_TRUE(log.got(1, 1));
  EXPECT_TRUE(log.got(1, 2));
}

TEST(CopssRouter, SiblingZoneIsNotDelivered) {
  LineWorld w(2);
  w.singleRootRp(0);
  DeliveryLog log;
  log.attach(w);

  // A soldier in /1/2 (subs /_, /1/_, /1/2) must not see /1/3 updates.
  w.sim->scheduleAt(0, [&]() {
    w.clients[1]->subscribe(Name::parse("/_"));
    w.clients[1]->subscribe(Name::parse("/1/_"));
    w.clients[1]->subscribe(Name::parse("/1/2"));
  });
  w.sim->scheduleAt(ms(100), [&]() {
    w.clients[0]->publish(Name::parse("/1/3"), 10, 1);
    w.clients[0]->publish(Name::parse("/1/_"), 10, 2);
    w.clients[0]->publish(Name::parse("/_"), 10, 3);
    w.clients[0]->publish(Name::parse("/1/2"), 10, 4);
  });
  w.sim->run();

  EXPECT_FALSE(log.got(1, 1));
  EXPECT_TRUE(log.got(1, 2));
  EXPECT_TRUE(log.got(1, 3));
  EXPECT_TRUE(log.got(1, 4));
}

TEST(CopssRouter, PrefixFreeRoutingPicksTheRightRp) {
  // RP for /1 at router 0, RP for /2 at router 4.
  LineWorld w(5);
  RpAssignment a;
  a.prefixToRp[Name::parse("/1")] = w.routerIds[0];
  a.prefixToRp[Name::parse("/2")] = w.routerIds[4];
  w.installAssignment(a);
  DeliveryLog log;
  log.attach(w);

  w.sim->scheduleAt(0, [&]() {
    w.clients[2]->subscribe(Name::parse("/1"));
    w.clients[2]->subscribe(Name::parse("/2"));
  });
  w.sim->scheduleAt(ms(100), [&]() {
    w.clients[1]->publish(Name::parse("/1/1"), 10, 1);
    w.clients[3]->publish(Name::parse("/2/5"), 10, 2);
  });
  w.sim->run();

  EXPECT_TRUE(log.got(2, 1));
  EXPECT_TRUE(log.got(2, 2));
  EXPECT_EQ(w.routers[0]->rpDecapsulations(), 1u);
  EXPECT_EQ(w.routers[4]->rpDecapsulations(), 1u);
}

TEST(CopssRouter, SubscriptionToMiddleLevelReachesAllCoveringRps) {
  // /1/1 served by router 0, /1/2 served by router 3: a subscription to /1
  // must reach both RPs (Section III-B).
  LineWorld w(4);
  RpAssignment a;
  a.prefixToRp[Name::parse("/1/1")] = w.routerIds[0];
  a.prefixToRp[Name::parse("/1/2")] = w.routerIds[3];
  w.installAssignment(a);
  DeliveryLog log;
  log.attach(w);

  w.sim->scheduleAt(0, [&]() { w.clients[1]->subscribe(Name::parse("/1")); });
  w.sim->scheduleAt(ms(100), [&]() {
    w.clients[2]->publish(Name::parse("/1/1"), 10, 1);
    w.clients[2]->publish(Name::parse("/1/2"), 10, 2);
  });
  w.sim->run();

  EXPECT_TRUE(log.got(1, 1));
  EXPECT_TRUE(log.got(1, 2));
}

TEST(CopssRouter, UnsubscribeStopsDelivery) {
  LineWorld w(3);
  w.singleRootRp(1);
  DeliveryLog log;
  log.attach(w);

  w.sim->scheduleAt(0, [&]() { w.clients[2]->subscribe(Name::parse("/1")); });
  w.sim->scheduleAt(ms(100), [&]() { w.clients[0]->publish(Name::parse("/1/1"), 10, 1); });
  w.sim->scheduleAt(ms(200), [&]() { w.clients[2]->unsubscribe(Name::parse("/1")); });
  w.sim->scheduleAt(ms(300), [&]() { w.clients[0]->publish(Name::parse("/1/1"), 10, 2); });
  w.sim->run();

  EXPECT_TRUE(log.got(2, 1));
  EXPECT_FALSE(log.got(2, 2));
}

TEST(CopssRouter, MultipleSubscribersShareTheMulticastTree) {
  LineWorld w(4);
  w.singleRootRp(0);
  DeliveryLog log;
  log.attach(w);

  w.sim->scheduleAt(0, [&]() {
    for (std::size_t i = 1; i < 4; ++i) w.clients[i]->subscribe(Name::parse("/1"));
  });
  w.sim->scheduleAt(ms(100), [&]() { w.clients[0]->publish(Name::parse("/1/1"), 10, 1); });
  w.sim->run();

  for (std::size_t i = 1; i < 4; ++i) EXPECT_TRUE(log.got(i, 1)) << i;
  // The multicast traverses the line once; each router forwards it at most
  // twice (downstream + its own client).
  std::uint64_t forwards = 0;
  for (auto* r : w.routers) forwards += r->multicastsForwarded();
  EXPECT_LE(forwards, 2u * 4u);
}

TEST(CopssRouter, PublisherAlsoSubscribedGetsNoSelfEcho) {
  LineWorld w(2);
  w.singleRootRp(1);
  DeliveryLog log;
  log.attach(w);

  w.sim->scheduleAt(0, [&]() { w.clients[0]->subscribe(Name::parse("/1")); });
  w.sim->scheduleAt(ms(100), [&]() { w.clients[0]->publish(Name::parse("/1/1"), 10, 1); });
  w.sim->run();

  EXPECT_FALSE(log.got(0, 1));  // clients drop their own publications
}

// Each publisher numbers its own publications, so two publishers' seqs 1-10
// are twenty distinct publications. Routers and hosts dedup on (publisher,
// seq), and so does the audit's delivery ledger.
TEST(CopssRouter, TwoPublishersReusingSeqsAreBothDelivered) {
  LineWorld w(4);
  check::InvariantChecker::Options opts;
  opts.checkDelivery = true;
  auto& checker = w.enableFullAudit(opts);
  w.singleRootRp(0);
  std::uint64_t received = 0;
  w.clients[0]->setMulticastCallback(
      [&received](const copss::MulticastPacket&, SimTime) { ++received; });

  w.sim->scheduleAt(0, [&]() { w.clients[0]->subscribe(Name()); });
  for (std::uint64_t s = 1; s <= 10; ++s) {
    w.sim->scheduleAt(ms(50) + ms(2) * static_cast<SimTime>(s), [&w, s]() {
      w.clients[1]->publish(Name::parse("/1/1"), 20, s);
      w.clients[3]->publish(Name::parse("/1/2"), 20, s);
    });
  }
  w.sim->run();
  checker.finalAudit();

  EXPECT_EQ(received, 20u);
  EXPECT_TRUE(checker.ok()) << checker.reportText();
  EXPECT_EQ(checker.stats().publicationsTracked, 20u);
}

// A face that delivered a publication counts as served with it: when a
// second copy arrives over another face, the router does not send it back
// over the first one.
TEST(CopssRouter, ArrivalFaceCountsAsServed) {
  LineWorld w(3);
  w.singleRootRp(1);
  DeliveryLog log;
  log.attach(w);
  w.sim->scheduleAt(0, [&]() {
    w.clients[0]->subscribe(Name::parse("/1"));
    w.clients[2]->subscribe(Name::parse("/1"));
  });
  const PacketPtr pub = makePacket<copss::MulticastPacket>(
      std::vector<Name>{Name::parse("/1/1")}, 20, ms(100), 1, w.clientIds[1]);
  // The same publication reaches router 1 from router 0, then from router 2.
  w.sim->scheduleAt(ms(100), [&]() { w.routers[1]->handle(w.routerIds[0], pub); });
  w.sim->scheduleAt(ms(200), [&]() { w.routers[1]->handle(w.routerIds[2], pub); });
  w.sim->run();

  EXPECT_EQ(w.routers[1]->multicastsForwarded(), 1u);  // to router 2 only
  EXPECT_EQ(w.routers[1]->duplicatesSuppressed(), 1u);
  EXPECT_TRUE(log.got(2, 1));
  EXPECT_FALSE(log.got(0, 1));
}

// A face the router starts using after it served a publication gets a
// fresh window, and every face already served keeps its record: a repeat
// copy goes out only on the new face. Router 1 hears two publishers, so the
// new face widens rows that already hold windows, the second one included.
TEST(CopssRouter, RepeatAfterNewFaceIsSuppressedPerFace) {
  LineWorld w(4);
  w.singleRootRp(0);
  const auto pubFrom = [&w](std::size_t client) {
    return makePacket<copss::MulticastPacket>(std::vector<Name>{Name::parse("/1/1")}, 20,
                                              ms(100), 1, w.clientIds[client]);
  };
  const PacketPtr first = pubFrom(0);
  const PacketPtr second = pubFrom(3);
  // Router 1 serves both publications on its host face, then router 2
  // subscribes through it, and both copies arrive again from router 0.
  w.sim->scheduleAt(0, [&]() { w.clients[1]->subscribe(Name::parse("/1")); });
  w.sim->scheduleAt(ms(100), [&]() { w.routers[1]->handle(w.routerIds[0], first); });
  w.sim->scheduleAt(ms(110), [&]() { w.routers[1]->handle(w.routerIds[0], second); });
  w.sim->scheduleAt(ms(150), [&]() { w.clients[2]->subscribe(Name::parse("/1")); });
  w.sim->scheduleAt(ms(200), [&]() {
    EXPECT_EQ(w.routers[1]->multicastsForwarded(), 2u);  // both to client 1
    w.routers[1]->handle(w.routerIds[0], second);
  });
  w.sim->scheduleAt(ms(210), [&]() { w.routers[1]->handle(w.routerIds[0], first); });
  w.sim->run();

  EXPECT_EQ(w.routers[1]->multicastsForwarded(), 4u);  // + each once to router 2
  EXPECT_EQ(w.routers[1]->duplicatesSuppressed(), 2u);  // client 1's face, twice
  EXPECT_EQ(w.clients[1]->received(), 2u);
  EXPECT_EQ(w.clients[2]->received(), 2u);
}

TEST(CopssRouter, UnroutablePublicationIsCountedNotCrashed) {
  LineWorld w(2);
  // No assignment at all: the CD FIB is empty everywhere.
  DeliveryLog log;
  log.attach(w);
  w.sim->scheduleAt(0, [&]() { w.clients[0]->publish(Name::parse("/1/1"), 10, 1); });
  w.sim->run();
  EXPECT_EQ(w.routers[0]->unroutablePublications(), 1u);
  EXPECT_TRUE(log.delivered.empty());
}

}  // namespace
}  // namespace gcopss::test
