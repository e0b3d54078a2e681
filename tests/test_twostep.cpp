#include <gtest/gtest.h>

#include "gcopss/experiment.hpp"
#include "world_fixture.hpp"

namespace gcopss::test {
namespace {

TEST(TwoStep, AnnouncementTriggersPullAndDelivery) {
  LineWorld w(3);
  w.singleRootRp(1);
  // NDN routes back to client 0's content prefix.
  const Name prefix = gc::GCopssClient::contentPrefixFor(w.clientIds[0]);
  for (std::size_t r = 0; r < w.routerIds.size(); ++r) {
    w.routers[r]->ndnEngine().fib().insert(
        prefix, w.topo->nextHop(w.routerIds[r], w.clientIds[0]));
  }

  std::vector<std::pair<std::uint64_t, Bytes>> got;
  w.clients[2]->setDataCallback(
      [&](const ndn::DataPacketPtr& d, SimTime) {
        got.emplace_back(d->seq, d->payloadSize);
      });

  w.sim->scheduleAt(0, [&]() { w.clients[2]->subscribe(Name::parse("/1")); });
  w.sim->scheduleAt(ms(100),
                    [&]() { w.clients[0]->publishTwoStep(Name::parse("/1/2"), 5000, 9); });
  w.sim->run();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 9u);
  EXPECT_EQ(got[0].second, 5000u);
  EXPECT_EQ(w.clients[2]->twoStepFetchesIssued(), 1u);
  EXPECT_EQ(w.clients[0]->twoStepServed(), 1u);
}

TEST(TwoStep, NonSubscribersNeverPull) {
  LineWorld w(3);
  w.singleRootRp(1);
  const Name prefix = gc::GCopssClient::contentPrefixFor(w.clientIds[0]);
  for (std::size_t r = 0; r < w.routerIds.size(); ++r) {
    w.routers[r]->ndnEngine().fib().insert(
        prefix, w.topo->nextHop(w.routerIds[r], w.clientIds[0]));
  }
  w.sim->scheduleAt(0, [&]() { w.clients[2]->subscribe(Name::parse("/9")); });
  w.sim->scheduleAt(ms(100),
                    [&]() { w.clients[0]->publishTwoStep(Name::parse("/1/2"), 500, 1); });
  w.sim->run();
  EXPECT_EQ(w.clients[2]->twoStepFetchesIssued(), 0u);
  EXPECT_EQ(w.clients[0]->twoStepServed(), 0u);
}

TEST(TwoStep, ConcurrentPullsAggregateInTheNetwork) {
  // Two subscribers behind the same path: the publisher serves once; PIT
  // aggregation / CS caching fans the Data out.
  LineWorld w(4);
  w.singleRootRp(1);
  const Name prefix = gc::GCopssClient::contentPrefixFor(w.clientIds[0]);
  for (std::size_t r = 0; r < w.routerIds.size(); ++r) {
    w.routers[r]->ndnEngine().fib().insert(
        prefix, w.topo->nextHop(w.routerIds[r], w.clientIds[0]));
  }
  std::size_t deliveries = 0;
  for (std::size_t c : {2u, 3u}) {
    w.clients[c]->setDataCallback(
        [&](const ndn::DataPacketPtr&, SimTime) { ++deliveries; });
  }
  w.sim->scheduleAt(0, [&]() {
    w.clients[2]->subscribe(Name::parse("/1"));
    w.clients[3]->subscribe(Name::parse("/1"));
  });
  w.sim->scheduleAt(ms(100),
                    [&]() { w.clients[0]->publishTwoStep(Name::parse("/1/2"), 800, 1); });
  w.sim->run();
  EXPECT_EQ(deliveries, 2u);
  // The publisher answered at most... both interests can race ahead of the
  // PIT merge point, but never more than one per subscriber.
  EXPECT_LE(w.clients[0]->twoStepServed(), 2u);
  EXPECT_GE(w.clients[0]->twoStepServed(), 1u);
}

TEST(TwoStep, HarnessModeDeliversSameAudienceAtHigherCost) {
  game::GameMap map({2, 2});
  game::ObjectDatabase db(map, {6, 12, 24});
  trace::CsTraceConfig tcfg;
  tcfg.players = 14;
  tcfg.totalUpdates = 400;
  tcfg.meanInterArrival = ms(5);
  tcfg.playersPerAreaMin = 2;
  tcfg.playersPerAreaMax = 2;
  const auto trace = trace::generateCsTrace(map, db, tcfg);

  gc::GCopssRunConfig one;
  one.numRps = 2;
  gc::GCopssRunConfig two = one;
  two.twoStep = true;
  // Each publication has a content name of its own; fetching it interns
  // nothing (the Interests resolve it to the routed publisher prefix).
  std::size_t namesAtReady = 0;
  std::size_t namesAtDrained = 0;
  two.onWorldReady = [&](const gc::GCopssRunConfig::WorldView& v) {
    namesAtReady = v.net.names().size();
  };
  two.onRunDrained = [&](const gc::GCopssRunConfig::WorldView& v) {
    namesAtDrained = v.net.names().size();
  };

  const auto r1 = gc::runGCopssTrace(map, trace, one);
  const auto r2 = gc::runGCopssTrace(map, trace, two);
  EXPECT_EQ(r1.deliveries, r2.deliveries) << "same audience either way";
  EXPECT_GT(r2.meanMs, r1.meanMs) << "two-step pays at least one extra RTT";
  EXPECT_EQ(namesAtDrained, namesAtReady);
}

}  // namespace
}  // namespace gcopss::test
