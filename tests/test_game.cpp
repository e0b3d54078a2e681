#include <gtest/gtest.h>

#include "game/map.hpp"
#include "game/movement.hpp"
#include "game/objects.hpp"

namespace gcopss::test {
namespace {

using namespace gcopss::game;

// ---------------- GameMap ----------------

TEST(GameMap, PaperMapHas31LeafCds) {
  GameMap map({5, 5});
  EXPECT_EQ(map.areas().size(), 31u);    // 1 + 5 + 25
  EXPECT_EQ(map.leafCds().size(), 31u);  // 25 zones + 5 region-air + 1 world-air
  EXPECT_EQ(map.layerCount(), 3u);
}

TEST(GameMap, LeafCdOfEachLayer) {
  GameMap map({5, 5});
  EXPECT_EQ(map.leafCdOf(Name::parse("/1/2")), Name::parse("/1/2"));
  EXPECT_EQ(map.leafCdOf(Name::parse("/1")), Name::parse("/1/_"));
  EXPECT_EQ(map.leafCdOf(Name()), Name::parse("/_"));
}

TEST(GameMap, SubscriptionsMatchThePaperExamples) {
  GameMap map({5, 5});
  // "a player standing on 1/2 should subscribe to /, /1/ ... and /1/2".
  const auto soldier = map.subscriptionsFor(Position{Name::parse("/1/2")});
  EXPECT_EQ(soldier, (std::vector<Name>{Name::parse("/_"), Name::parse("/1/_"),
                                        Name::parse("/1/2")}));
  // "the player can therefore subscribe to / ... and /1".
  const auto plane = map.subscriptionsFor(Position{Name::parse("/1")});
  EXPECT_EQ(plane, (std::vector<Name>{Name::parse("/_"), Name::parse("/1")}));
}

TEST(GameMap, VisibilityRules) {
  GameMap map({5, 5});
  const Position soldier{Name::parse("/1/2")};
  EXPECT_TRUE(map.sees(soldier, Name::parse("/1/2")));   // own zone
  EXPECT_TRUE(map.sees(soldier, Name::parse("/1/_")));   // plane overhead
  EXPECT_TRUE(map.sees(soldier, Name::parse("/_")));     // satellite
  EXPECT_FALSE(map.sees(soldier, Name::parse("/1/3")));  // sibling zone
  EXPECT_FALSE(map.sees(soldier, Name::parse("/2/_")));  // other region's air

  const Position plane{Name::parse("/1")};
  EXPECT_TRUE(map.sees(plane, Name::parse("/1/3")));   // all zones below
  EXPECT_TRUE(map.sees(plane, Name::parse("/1/_")));   // own layer
  EXPECT_FALSE(map.sees(plane, Name::parse("/2/3")));  // other region

  const Position satellite{Name()};
  for (const Name& leaf : map.leafCds()) {
    EXPECT_TRUE(map.sees(satellite, leaf)) << leaf.toString();
  }
}

TEST(GameMap, VisibleLeafCountsPerLayer) {
  GameMap map({5, 5});
  EXPECT_EQ(map.visibleLeafCds(Position{Name::parse("/1/2")}).size(), 3u);
  EXPECT_EQ(map.visibleLeafCds(Position{Name::parse("/1")}).size(), 7u);  // 5+1+1
  EXPECT_EQ(map.visibleLeafCds(Position{Name()}).size(), 31u);
}

TEST(GameMap, ArbitraryLayerCounts) {
  GameMap deep({2, 3, 2});  // 4 layers
  EXPECT_EQ(deep.layerCount(), 4u);
  // areas: 1 + 2 + 6 + 12 = 21; leaves: 12 bottom + 9 airspace = 21.
  EXPECT_EQ(deep.areas().size(), 21u);
  EXPECT_EQ(deep.leafCds().size(), 21u);
  // A player at depth 2 subscribes to 2 airspace leaves + its subtree.
  const auto subs = deep.subscriptionsFor(Position{Name::parse("/1/2")});
  EXPECT_EQ(subs.size(), 3u);
}

// ---------------- Objects / Eq. 1 ----------------

TEST(Objects, PaperDistribution) {
  GameMap map({5, 5});
  ObjectDatabase db(map, ObjectDatabase::paperLayerCounts());
  EXPECT_EQ(db.totalObjects(), 3197u);
  EXPECT_EQ(db.objectsIn(Name::parse("/_")).size(), 87u);
  // 483 middle-layer objects over 5 region-air leaves: 96 or 97 each.
  const auto r1 = db.objectsIn(Name::parse("/1/_")).size();
  EXPECT_TRUE(r1 == 96 || r1 == 97) << r1;
  // 2627 bottom objects over 25 zones: 105 or 106 each.
  const auto z = db.objectsIn(Name::parse("/3/4")).size();
  EXPECT_TRUE(z == 105 || z == 106) << z;
}

TEST(Objects, Eq1SnapshotSizeRecurrence) {
  GameMap map({2, 2});
  ObjectDatabase db(map, {1, 2, 4}, /*lambda=*/0.95);
  const ObjectId id = db.objectsIn(Name::parse("/_")).front();
  EXPECT_EQ(db.object(id).snapshotBytes(), 0u);  // version 0 ships with the map
  db.applyUpdate(id, 100);
  EXPECT_EQ(db.object(id).snapshotBytes(), 100u);
  db.applyUpdate(id, 100);
  // size = 0.95*100 + 100 = 195
  EXPECT_EQ(db.object(id).snapshotBytes(), 195u);
  db.applyUpdate(id, 200);
  // size = 0.95*195 + 200 = 385.25
  EXPECT_EQ(db.object(id).snapshotBytes(), 385u);
  EXPECT_EQ(db.object(id).version, 3u);
}

TEST(Objects, Eq1ConvergesToGeometricLimit) {
  GameMap map({2, 2});
  ObjectDatabase db(map, {1, 0, 0}, 0.95);
  const ObjectId id = db.objectsIn(Name::parse("/_")).front();
  for (int i = 0; i < 2000; ++i) db.applyUpdate(id, 100);
  // Limit = 100 / (1 - 0.95) = 2000.
  EXPECT_NEAR(static_cast<double>(db.object(id).snapshotBytes()), 2000.0, 2.0);
}

TEST(Objects, VisibleObjectsFollowVisibility) {
  GameMap map({5, 5});
  ObjectDatabase db(map, ObjectDatabase::paperLayerCounts());
  const auto soldierSees = db.visibleObjects(map, Position{Name::parse("/1/2")});
  // own zone (~105) + region air (~97) + world (87)
  EXPECT_NEAR(static_cast<double>(soldierSees.size()), 289.0, 3.0);
  const auto satSees = db.visibleObjects(map, Position{Name()});
  EXPECT_EQ(satSees.size(), 3197u);
}

// ---------------- Movement classification (Table III) ----------------

// `name` is what GoogleTest prints for the case, and so what CTest names the
// test. Without PrintTo it would print a byte dump of the struct, whose string
// pointers change from run to run.
struct MoveCase {
  const char* name;
  const char* from;
  const char* to;
  MoveType type;
  std::size_t downloads;
};

void PrintTo(const MoveCase& c, std::ostream* os) { *os << c.name; }

class MoveClassification : public ::testing::TestWithParam<MoveCase> {};

TEST_P(MoveClassification, MatchesTableIII) {
  GameMap map({5, 5});
  const auto& c = GetParam();
  const Position from{Name::parse(c.from)};
  const Position to{Name::parse(c.to)};
  EXPECT_EQ(classifyMove(map, from, to), c.type);
  EXPECT_EQ(snapshotCdsNeeded(map, from, to).size(), c.downloads);
}

// The download counts are the paper's own (Table III, "# of Leaf CDs").
INSTANTIATE_TEST_SUITE_P(
    TableIII, MoveClassification,
    ::testing::Values(
        MoveCase{"PlaneLanding", "/1", "/1/1", MoveType::ToLowerLayer, 0},
        MoveCase{"SatelliteDescends", "/", "/1", MoveType::ToLowerLayer, 0},
        // take-off: /1/2../1/5
        MoveCase{"TakeOff", "/1/1", "/1", MoveType::ZoneToRegion, 4},
        MoveCase{"SatelliteLaunch", "/1", "/", MoveType::RegionToWorld, 24},
        MoveCase{"ZoneSameRegion", "/1/1", "/1/2", MoveType::ZoneSameRegion, 1},
        // /3/_ and /3/2
        MoveCase{"ZoneDiffRegion", "/2/3", "/3/2", MoveType::ZoneDiffRegion, 2},
        // /2/_ + 5 zones
        MoveCase{"RegionToRegion", "/1", "/2", MoveType::RegionToRegion, 6}));

TEST(Movement, RandomMoveRespectsProbabilities) {
  GameMap map({5, 5});
  Rng rng(77);
  int up = 0, down = 0, lateral = 0;
  const Position zone{Name::parse("/3/3")};
  for (int i = 0; i < 5000; ++i) {
    const Position next = randomMove(map, rng, zone);
    if (next.area.size() < 2) ++up;
    else if (next.area != zone.area) ++lateral;
  }
  EXPECT_NEAR(up / 5000.0, 0.10, 0.02);
  // From the bottom layer "down" is impossible; the rest is lateral.
  EXPECT_NEAR(lateral / 5000.0, 0.90, 0.02);
  (void)down;
}

TEST(Movement, GeneratedTimelineIsConsistent) {
  GameMap map({5, 5});
  Rng rng(13);
  std::vector<Position> starts(40, Position{Name::parse("/2/2")});
  const auto moves = generateMovements(map, rng, starts, minutes(120));
  ASSERT_FALSE(moves.empty());
  // Sorted by time; per-player chains are positionally consistent.
  std::map<std::uint32_t, Position> cur;
  SimTime last = 0;
  for (const auto& m : moves) {
    EXPECT_GE(m.at, last);
    last = m.at;
    const auto it = cur.find(m.playerId);
    const Position expectFrom = it == cur.end() ? starts[m.playerId] : it->second;
    EXPECT_EQ(m.from.area, expectFrom.area);
    EXPECT_NE(m.from.area, m.to.area);
    cur[m.playerId] = m.to;
  }
}

TEST(Movement, GroupMovesPullNeighboursAlong) {
  GameMap map({5, 5});
  Rng rng(14);
  std::vector<Position> starts(30, Position{Name::parse("/1/1")});
  MovementConfig cfg;
  cfg.minInterval = seconds(30);
  cfg.maxInterval = seconds(60);
  cfg.groupFollowProb = 1.0;
  cfg.maxFollowers = 4;
  const auto moves = generateMovements(map, rng, starts, minutes(5), cfg);
  // The first move must drag maxFollowers others to the same destination
  // within the follower spread (other players' own moves may interleave).
  ASSERT_GE(moves.size(), 5u);
  std::size_t herd = 0;
  for (const auto& m : moves) {
    if (m.at > moves[0].at + cfg.followerSpread) break;
    if (m.to.area == moves[0].to.area) ++herd;
  }
  EXPECT_GE(herd, 1u + cfg.maxFollowers);
}

}  // namespace
}  // namespace gcopss::test
