#include <gtest/gtest.h>

#include "world_fixture.hpp"

namespace gcopss::test {
namespace {

// The "delete RPs" half of Section IV-B: an RP retires and hands everything
// to another router without losing in-flight publications.
TEST(RpRetirement, NoLossWhenAnRpRetires) {
  LineWorld w(5);
  w.singleRootRp(2);
  DeliveryLog log;
  log.attach(w);

  w.sim->scheduleAt(0, [&]() {
    w.clients[0]->subscribe(Name());
    w.clients[4]->subscribe(Name::parse("/1"));
  });
  std::uint64_t seq = 0;
  for (int i = 0; i < 120; ++i) {
    ++seq;
    w.sim->scheduleAt(ms(20) + ms(4) * i,
                      [&, s = seq]() { w.clients[1]->publish(Name::parse("/1/1"), 15, s); });
  }
  const std::uint64_t total = seq;

  w.sim->scheduleAt(ms(250), [&]() { ASSERT_TRUE(w.routers[2]->retireTo(w.routerIds[4])); });
  w.sim->run();

  for (std::uint64_t s = 1; s <= total; ++s) {
    EXPECT_TRUE(log.got(0, s)) << "root subscriber missed " << s;
    EXPECT_TRUE(log.got(4, s)) << "/1 subscriber missed " << s;
  }
  // The new RP now serves the whole hierarchy; the old one serves nothing.
  EXPECT_TRUE(w.routers[4]->isRpFor(Name::parse("/1/1")));
  EXPECT_FALSE(w.routers[2]->isRpFor(Name::parse("/1/1")));
  EXPECT_GT(w.routers[4]->rpDecapsulations(), 0u);
}

TEST(RpRetirement, RefusesNonsense) {
  LineWorld w(3);
  w.singleRootRp(0);
  EXPECT_FALSE(w.routers[0]->retireTo(w.routerIds[0]));  // to itself
  EXPECT_FALSE(w.routers[1]->retireTo(w.routerIds[2]));  // not an RP
}

TEST(RpRetirement, SplitThenRetireComposes) {
  LineWorld w(6);
  w.singleRootRp(0);
  DeliveryLog log;
  log.attach(w);

  w.sim->scheduleAt(0, [&]() { w.clients[5]->subscribe(Name()); });
  std::uint64_t seq = 0;
  const std::vector<Name> cds = {Name::parse("/1/1"), Name::parse("/2/1")};
  w.internCds(cds);
  for (int i = 0; i < 150; ++i) {
    for (const Name& cd : cds) {
      ++seq;
      w.sim->scheduleAt(ms(20) + ms(3) * static_cast<SimTime>(seq),
                        [&, cd, s = seq]() { w.clients[1]->publish(cd, 15, s); });
    }
  }
  const std::uint64_t total = seq;

  // Split at 200 ms, then the NEW RP retires back at 600 ms.
  NodeId newRp = kInvalidNode;
  w.routers[0]->onRpSplit = [&](NodeId rp, const std::vector<Name>&) { newRp = rp; };
  w.sim->scheduleAt(ms(200), [&]() { ASSERT_TRUE(w.routers[0]->forceSplit()); });
  w.sim->scheduleAt(ms(600), [&]() {
    ASSERT_NE(newRp, kInvalidNode);
    auto& router = dynamic_cast<copss::CopssRouter&>(w.net->node(newRp));
    ASSERT_TRUE(router.retireTo(w.routerIds[0]));
  });
  w.sim->run();

  for (std::uint64_t s = 1; s <= total; ++s) {
    EXPECT_TRUE(log.got(5, s)) << "missed " << s;
  }
  // Everything is back on router 0.
  for (const Name& cd : cds) EXPECT_TRUE(w.routers[0]->isRpFor(cd));
}

}  // namespace
}  // namespace gcopss::test
