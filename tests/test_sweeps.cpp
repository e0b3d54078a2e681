#include <gtest/gtest.h>

#include "game/map.hpp"
#include "game/objects.hpp"
#include "gcopss/experiment.hpp"
#include "world_fixture.hpp"

namespace gcopss::test {
namespace {

// ---------------------------------------------------------------------------
// Map-shape sweeps: the structural invariants of Section III-A hold for any
// layer configuration, not just the paper's {5,5}.
// ---------------------------------------------------------------------------

class MapShape : public ::testing::TestWithParam<std::vector<std::size_t>> {};

TEST_P(MapShape, EveryAreaHasExactlyOneLeafCd) {
  game::GameMap map(GetParam());
  // The paper's "/" trick makes leaf CDs and areas bijective.
  EXPECT_EQ(map.areas().size(), map.leafCds().size());
  std::set<Name> leaves(map.leafCds().begin(), map.leafCds().end());
  EXPECT_EQ(leaves.size(), map.leafCds().size()) << "leaf CDs are distinct";
  for (const Name& area : map.areas()) {
    EXPECT_TRUE(leaves.count(map.leafCdOf(area))) << area.toString();
  }
}

TEST_P(MapShape, LeafCdsAreMutuallyPrefixFree) {
  game::GameMap map(GetParam());
  const auto& leaves = map.leafCds();
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    for (std::size_t j = 0; j < leaves.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(leaves[i].isPrefixOf(leaves[j]))
          << leaves[i].toString() << " vs " << leaves[j].toString();
    }
  }
}

TEST_P(MapShape, VisibilityIsMonotoneUpTheHierarchy) {
  game::GameMap map(GetParam());
  // Anything a player sees from area A, it also sees from A's parent.
  for (const Name& area : map.areas()) {
    if (area.empty()) continue;
    const auto below = map.visibleLeafCds(game::Position{area});
    const auto above = map.visibleLeafCds(game::Position{area.parent()});
    const std::set<Name> aboveSet(above.begin(), above.end());
    for (const Name& leaf : below) {
      // Exception: the ancestors' own airspace leaves swap for the subtree.
      if (leaf.isAboveLeaf() && leaf.size() == area.size()) continue;
      EXPECT_TRUE(aboveSet.count(leaf))
          << "from " << area.toString() << ", parent loses " << leaf.toString();
    }
  }
}

TEST_P(MapShape, SubscriptionsExpandToExactlyTheVisibleSet) {
  game::GameMap map(GetParam());
  for (const Name& area : map.areas()) {
    const game::Position pos{area};
    const auto visible = map.visibleLeafCds(pos);
    // sees() and the subscription expansion must agree on every leaf.
    std::size_t count = 0;
    for (const Name& leaf : map.leafCds()) count += map.sees(pos, leaf);
    EXPECT_EQ(count, visible.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MapShape,
                         ::testing::Values(std::vector<std::size_t>{2},
                                           std::vector<std::size_t>{5, 5},
                                           std::vector<std::size_t>{2, 2, 2},
                                           std::vector<std::size_t>{3, 1, 4},
                                           std::vector<std::size_t>{1, 1, 1, 1}));

// ---------------------------------------------------------------------------
// Hybrid group-count sweep: delivery is exact for any aliasing degree; waste
// shrinks as groups grow.
// ---------------------------------------------------------------------------

class HybridGroups : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HybridGroups, ExactDeliveryAtAnyAliasingDegree) {
  game::GameMap map({3, 2});
  game::ObjectDatabase db(map, {6, 12, 18});
  trace::CsTraceConfig tcfg;
  tcfg.players = 20;
  tcfg.totalUpdates = 400;
  tcfg.meanInterArrival = ms(4);
  tcfg.playersPerAreaMin = 2;
  tcfg.playersPerAreaMax = 2;
  const auto trace = trace::generateCsTrace(map, db, tcfg);

  std::size_t expected = 0;
  for (const auto& rec : trace.records) {
    for (std::size_t p = 0; p < trace.playerPositions.size(); ++p) {
      if (p != rec.playerId && map.sees(trace.playerPositions[p], rec.cd)) ++expected;
    }
  }
  gc::GCopssRunConfig cfg;
  cfg.hybrid = true;
  cfg.hybridGroups = GetParam();
  const auto r = gc::runGCopssTrace(map, trace, cfg);
  EXPECT_EQ(r.deliveries, expected);
}

INSTANTIATE_TEST_SUITE_P(Degrees, HybridGroups, ::testing::Values(1, 2, 4, 8));

TEST(HybridGroups, MoreGroupsMeansLessAliasingWaste) {
  game::GameMap map({3, 2});
  game::ObjectDatabase db(map, {6, 12, 18});
  trace::CsTraceConfig tcfg;
  tcfg.players = 20;
  tcfg.totalUpdates = 600;
  tcfg.meanInterArrival = ms(4);
  tcfg.playersPerAreaMin = 2;
  tcfg.playersPerAreaMax = 2;
  const auto trace = trace::generateCsTrace(map, db, tcfg);

  gc::GCopssRunConfig one;
  one.hybrid = true;
  one.hybridGroups = 1;  // everything aliases onto a single group
  gc::GCopssRunConfig many = one;
  many.hybridGroups = 8;
  const auto r1 = gc::runGCopssTrace(map, trace, one);
  const auto r8 = gc::runGCopssTrace(map, trace, many);
  EXPECT_GT(r1.unwantedAtEdges + r1.filteredAtHosts,
            r8.unwantedAtEdges + r8.filteredAtHosts);
  EXPECT_GE(r1.networkGB, r8.networkGB);
}

// ---------------------------------------------------------------------------
// Edge cases.
// ---------------------------------------------------------------------------

TEST(EdgeCases, EmptyTraceRunsCleanly) {
  game::GameMap map({2, 2});
  trace::Trace empty;
  empty.playerPositions = {game::Position{Name::parse("/1/1")},
                           game::Position{Name::parse("/2/1")}};
  empty.duration = seconds(1);
  gc::GCopssRunConfig cfg;
  cfg.numRps = 1;
  const auto r = gc::runGCopssTrace(map, empty, cfg);
  EXPECT_EQ(r.deliveries, 0u);
}

TEST(EdgeCases, SubscribeUnsubscribeChurnLeavesCleanTables) {
  LineWorld w(3);
  w.singleRootRp(1);
  w.sim->scheduleAt(0, [&]() {
    for (int i = 0; i < 50; ++i) {
      w.clients[2]->subscribe(Name::parse("/1"));
      w.clients[2]->unsubscribe(Name::parse("/1"));
    }
  });
  w.sim->run();
  // All routers end with empty subscription state.
  for (auto* r : w.routers) EXPECT_EQ(r->st().entryCount(), 0u);
}

TEST(EdgeCases, PublishWithNoSubscribersCostsOnlyThePathToTheRp) {
  LineWorld w(4);
  w.singleRootRp(3);
  w.sim->scheduleAt(0, [&]() { w.clients[0]->publish(Name::parse("/1/1"), 100, 1); });
  w.sim->run();
  // host->R0 + three router hops = 4 link traversals, nothing multicast.
  EXPECT_EQ(w.net->totalLinkPackets(), 4u);
  EXPECT_EQ(w.routers[3]->rpDecapsulations(), 1u);
  EXPECT_EQ(w.routers[3]->multicastsForwarded(), 0u);
}

TEST(EdgeCases, ResubscribeIsIdempotent) {
  LineWorld w(2);
  w.singleRootRp(0);
  w.sim->scheduleAt(0, [&]() {
    w.clients[1]->resubscribe({Name::parse("/1"), Name::parse("/2")});
    w.clients[1]->resubscribe({Name::parse("/1"), Name::parse("/2")});
    w.clients[1]->resubscribe({Name::parse("/2")});
  });
  w.sim->run();
  EXPECT_EQ(w.clients[1]->subscriptions().size(), 1u);
  EXPECT_EQ(w.routers[1]->st().cdsOnFace(w.clientIds[1]).size(), 1u);
}

}  // namespace
}  // namespace gcopss::test
