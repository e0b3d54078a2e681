#include <gtest/gtest.h>

#include "world_fixture.hpp"

namespace gcopss::test {
namespace {

// The Section IV-B property the paper argues: "no packets would be missed
// during the dissemination" while an RP hands CDs to a new RP. We publish
// continuously through a forced split and assert every subscriber received
// every publication it was entitled to.
TEST(RpMigration, NoLossDuringForcedSplit) {
  LineWorld w(6);
  w.singleRootRp(0);
  DeliveryLog log;
  log.attach(w);

  const auto cds = {Name::parse("/1/1"), Name::parse("/1/2"), Name::parse("/2/1"),
                    Name::parse("/2/2")};
  w.internCds(cds);

  w.sim->scheduleAt(0, [&]() {
    w.clients[2]->subscribe(Name());            // sees everything
    w.clients[3]->subscribe(Name::parse("/1"));  // sees /1/*
    w.clients[4]->subscribe(Name::parse("/2/1"));
    w.clients[5]->subscribe(Name::parse("/2"));
  });

  // Publish one update per CD every 4 ms from client 1, seqs 1..200.
  std::uint64_t seq = 0;
  std::vector<Name> cdList(cds);
  for (int i = 0; i < 50; ++i) {
    for (const Name& cd : cdList) {
      ++seq;
      w.sim->scheduleAt(ms(50) + ms(4) * static_cast<SimTime>(seq),
                        [&, cd, s = seq]() { w.clients[1]->publish(cd, 20, s); });
    }
  }
  const std::uint64_t totalSeqs = seq;

  // Force the split mid-stream (RP at router 0 migrates half its CDs).
  bool splitHappened = false;
  w.sim->scheduleAt(ms(50) + ms(4) * 100, [&]() {
    splitHappened = w.routers[0]->forceSplit();
  });

  w.sim->run();
  ASSERT_TRUE(splitHappened);
  EXPECT_EQ(w.routers[0]->splitsInitiated(), 1u);

  // Every publication must reach the root subscriber.
  for (std::uint64_t s = 1; s <= totalSeqs; ++s) {
    EXPECT_TRUE(log.got(2, s)) << "root subscriber missed seq " << s;
  }
  // /1 subscriber gets exactly the /1/* publications (odd batch positions).
  std::uint64_t s = 0;
  for (int i = 0; i < 50; ++i) {
    for (const Name& cd : cdList) {
      ++s;
      const bool in1 = Name::parse("/1").isPrefixOf(cd);
      const bool in21 = cd == Name::parse("/2/1");
      const bool in2 = Name::parse("/2").isPrefixOf(cd);
      EXPECT_EQ(log.got(3, s), in1) << cd.toString() << " seq " << s;
      EXPECT_EQ(log.got(4, s), in21) << cd.toString() << " seq " << s;
      EXPECT_EQ(log.got(5, s), in2) << cd.toString() << " seq " << s;
    }
  }
}

// After the migration settles, the moved CDs are decapsulated at the new RP
// and the old RP no longer serves them.
TEST(RpMigration, TrafficMovesToTheNewRp) {
  LineWorld w(4);
  w.singleRootRp(0);
  w.internCds({Name::parse("/1/1"), Name::parse("/2/2")});
  DeliveryLog log;
  log.attach(w);

  w.sim->scheduleAt(0, [&]() { w.clients[3]->subscribe(Name()); });
  // Two CDs with traffic so the balancer can split them apart.
  for (int i = 0; i < 20; ++i) {
    w.sim->scheduleAt(ms(10) * (i + 1), [&, i]() {
      w.clients[1]->publish(Name::parse("/1/1"), 10, static_cast<std::uint64_t>(2 * i + 1));
      w.clients[1]->publish(Name::parse("/2/2"), 10, static_cast<std::uint64_t>(2 * i + 2));
    });
  }
  w.sim->scheduleAt(ms(300), [&]() { ASSERT_TRUE(w.routers[0]->forceSplit()); });

  // Let the migration settle, then publish again.
  const std::uint64_t lateSeqBase = 1000;
  w.sim->scheduleAt(seconds(2), [&]() {
    w.clients[1]->publish(Name::parse("/1/1"), 10, lateSeqBase + 1);
    w.clients[1]->publish(Name::parse("/2/2"), 10, lateSeqBase + 2);
  });
  w.sim->run();

  EXPECT_TRUE(log.got(3, lateSeqBase + 1));
  EXPECT_TRUE(log.got(3, lateSeqBase + 2));

  // Exactly one of the two CDs moved; the new RP must have decapsulated the
  // late publication for it.
  const Name moved = w.routers[0]->isRpFor(Name::parse("/1/1")) ? Name::parse("/2/2")
                                                                : Name::parse("/1/1");
  bool someoneElseIsRp = false;
  for (std::size_t r = 1; r < w.routers.size(); ++r) {
    if (w.routers[r]->isRpFor(moved)) {
      someoneElseIsRp = true;
      EXPECT_GT(w.routers[r]->rpDecapsulations(), 0u);
    }
  }
  EXPECT_TRUE(someoneElseIsRp);
  EXPECT_FALSE(w.routers[0]->isRpFor(moved));
}

// Two successive splits (the auto-balancing path exercised by Fig. 5c).
TEST(RpMigration, TwoSuccessiveSplitsStillDeliverEverything) {
  LineWorld w(6);
  w.singleRootRp(2);
  DeliveryLog log;
  log.attach(w);

  w.sim->scheduleAt(0, [&]() { w.clients[5]->subscribe(Name()); });

  std::uint64_t seq = 0;
  const std::vector<Name> cdList = {Name::parse("/1/1"), Name::parse("/2/1"),
                                    Name::parse("/3/1"), Name::parse("/4/1")};
  w.internCds(cdList);
  for (int i = 0; i < 100; ++i) {
    for (const Name& cd : cdList) {
      ++seq;
      w.sim->scheduleAt(ms(20) + ms(3) * static_cast<SimTime>(seq),
                        [&, cd, s = seq]() { w.clients[1]->publish(cd, 20, s); });
    }
  }
  const std::uint64_t total = seq;

  w.sim->scheduleAt(ms(400), [&]() { ASSERT_TRUE(w.routers[2]->forceSplit()); });
  w.sim->scheduleAt(ms(800), [&]() { w.routers[2]->forceSplit(); });

  w.sim->run();

  for (std::uint64_t s = 1; s <= total; ++s) {
    EXPECT_TRUE(log.got(5, s)) << "missed seq " << s;
  }
}

}  // namespace
}  // namespace gcopss::test
