#include <gtest/gtest.h>

#include "net/fault.hpp"
#include "world_fixture.hpp"

namespace gcopss::test {
namespace {

// Failure injection: a crashed RP blackholes publications; a surviving
// router assumes the role in-protocol (FIB flood + join/confirm re-homing),
// bounding the loss window without touching any client.
TEST(FailureRecovery, RpCrashThenAssumeRpRestoresDelivery) {
  // Ring: surviving routers stay connected around the failed one.
  LineWorld w(6, {}, SimParams::largeScale(), /*ring=*/true);
  w.singleRootRp(2);
  DeliveryLog log;
  log.attach(w);

  w.sim->scheduleAt(0, [&]() {
    w.clients[0]->subscribe(Name());
    w.clients[5]->subscribe(Name::parse("/1"));
  });

  std::uint64_t seq = 0;
  for (int i = 0; i < 200; ++i) {
    ++seq;
    w.sim->scheduleAt(ms(20) + ms(5) * i,
                      [&, s = seq]() { w.clients[1]->publish(Name::parse("/1/1"), 15, s); });
  }
  const std::uint64_t total = seq;

  // Crash the RP at 300 ms; router 4 assumes its prefixes at 500 ms.
  w.sim->scheduleAt(ms(300), [&]() { w.net->setNodeFailed(w.routerIds[2], true); });
  w.sim->scheduleAt(ms(500), [&]() { w.routers[4]->assumeRp({Name()}); });
  w.sim->run();

  // Before the crash (~seq 56) and well after the recovery (~seq 110+),
  // everything is delivered; in between there is a bounded loss window.
  std::size_t lostAfterRecovery = 0;
  for (std::uint64_t s = 1; s <= 50; ++s) {
    EXPECT_TRUE(log.got(0, s)) << "pre-crash loss at " << s;
    EXPECT_TRUE(log.got(5, s)) << "pre-crash loss at " << s;
  }
  for (std::uint64_t s = 120; s <= total; ++s) {
    lostAfterRecovery += !log.got(0, s);
    lostAfterRecovery += !log.got(5, s);
  }
  EXPECT_EQ(lostAfterRecovery, 0u) << "recovery must fully restore delivery";
  // The outage really did lose something (the window is not free).
  std::size_t lostDuring = 0;
  for (std::uint64_t s = 57; s <= 96; ++s) lostDuring += !log.got(0, s);
  EXPECT_GT(lostDuring, 0u);
  EXPECT_GT(w.net->totalDrops(), 0u);
  EXPECT_TRUE(w.routers[4]->isRpFor(Name::parse("/1/1")));
}

TEST(FailureRecovery, NewSubscribersJoinTheReplacementRp) {
  LineWorld w(5, {}, SimParams::largeScale(), /*ring=*/true);
  w.singleRootRp(1);
  DeliveryLog log;
  log.attach(w);

  w.sim->scheduleAt(ms(10), [&]() { w.net->setNodeFailed(w.routerIds[1], true); });
  w.sim->scheduleAt(ms(20), [&]() { w.routers[3]->assumeRp({Name()}); });
  // Subscribe only after the recovery: the route must already point at R3.
  w.sim->scheduleAt(ms(200), [&]() { w.clients[4]->subscribe(Name::parse("/2")); });
  w.sim->scheduleAt(ms(400), [&]() { w.clients[0]->publish(Name::parse("/2/2"), 10, 1); });
  w.sim->run();

  EXPECT_TRUE(log.got(4, 1));
  EXPECT_EQ(w.routers[3]->rpDecapsulations(), 1u);
}

TEST(FailureRecovery, RevivedNodeStaysOutOfThePath) {
  // After recovery, reviving the crashed router must not re-capture traffic:
  // the flood re-pointed every FIB at the replacement.
  LineWorld w(4, {}, SimParams::largeScale(), /*ring=*/true);
  w.singleRootRp(1);
  DeliveryLog log;
  log.attach(w);
  w.sim->scheduleAt(0, [&]() { w.clients[3]->subscribe(Name()); });
  w.sim->scheduleAt(ms(50), [&]() { w.net->setNodeFailed(w.routerIds[1], true); });
  w.sim->scheduleAt(ms(100), [&]() { w.routers[2]->assumeRp({Name()}); });
  w.sim->scheduleAt(ms(300), [&]() { w.net->setNodeFailed(w.routerIds[1], false); });
  w.sim->scheduleAt(ms(400), [&]() { w.clients[0]->publish(Name::parse("/1/1"), 10, 9); });
  w.sim->run();
  EXPECT_TRUE(log.got(3, 9));
  EXPECT_EQ(w.routers[2]->rpDecapsulations(), 1u);
  EXPECT_EQ(w.routers[1]->rpDecapsulations(), 0u);
}

// The split-brain regression the ownership epochs resolve: the primary RP
// crashes, the standby assumes the role at a higher epoch, and then the
// primary restarts with its persisted claim. The reclaim handshake must
// demote the stale owner so exactly one live claim remains, and traffic must
// flow through the survivor.
TEST(FailureRecovery, RestartedPrimaryIsDemotedAfterStandbyTakeover) {
  LineWorld w(6, {}, SimParams::largeScale(), /*ring=*/true);
  auto& checker = w.enableFullAudit();
  w.singleRootRp(2);
  DeliveryLog log;
  log.attach(w);

  FaultPlan plan;
  plan.crash(w.routerIds[2], ms(200), ms(450));
  w.net->applyFaultPlan(plan);

  w.sim->scheduleAt(0, [&]() {
    w.clients[0]->subscribe(Name());
    w.routers[2]->startRpHeartbeats(w.routerIds[4], ms(10), ms(600));
    w.routers[4]->watchRpLiveness(w.routerIds[2], ms(25), ms(600));
  });
  // Published after the dust settles: the demoted primary must not capture it.
  w.sim->scheduleAt(ms(600), [&]() { w.clients[1]->publish(Name::parse("/1/1"), 10, 7); });
  w.sim->scheduleAt(ms(700), [&]() { checker.auditNow(); });
  w.sim->run();

  // Exactly one live claim: the standby owns the root at epoch 2.
  EXPECT_EQ(w.routers[4]->failovers(), 1u);
  EXPECT_TRUE(w.routers[4]->isRpFor(Name::parse("/1/1")));
  EXPECT_EQ(w.routers[4]->claimEpoch(Name()), 2u);
  EXPECT_FALSE(w.routers[2]->isRpFor(Name::parse("/1/1")));
  EXPECT_TRUE(w.routers[2]->rpPrefixes().empty());
  EXPECT_GE(w.routers[2]->reclaimsSent(), 1u);
  EXPECT_EQ(w.routers[2]->demotions(), 1u);
  EXPECT_EQ(w.routers[4]->demotions(), 0u);
  // Delivery goes through the survivor, never the revived primary.
  EXPECT_TRUE(log.got(0, 7));
  EXPECT_EQ(w.routers[4]->rpDecapsulations(), 1u);
  EXPECT_EQ(w.routers[2]->rpDecapsulations(), 0u);
  EXPECT_TRUE(checker.ok()) << checker.reportText();
}

TEST(FailureInjection, FailedHostSimplyStopsReceiving) {
  LineWorld w(3);
  w.singleRootRp(0);
  DeliveryLog log;
  log.attach(w);
  w.sim->scheduleAt(0, [&]() { w.clients[2]->subscribe(Name()); });
  w.sim->scheduleAt(ms(100), [&]() { w.clients[1]->publish(Name::parse("/a"), 10, 1); });
  w.sim->scheduleAt(ms(200), [&]() { w.net->setNodeFailed(w.clientIds[2], true); });
  w.sim->scheduleAt(ms(300), [&]() { w.clients[1]->publish(Name::parse("/a"), 10, 2); });
  w.sim->run();
  EXPECT_TRUE(log.got(2, 1));
  EXPECT_FALSE(log.got(2, 2));
}

}  // namespace
}  // namespace gcopss::test
