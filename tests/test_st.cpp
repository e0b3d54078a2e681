#include <gtest/gtest.h>

#include "copss/packets.hpp"
#include "copss/st.hpp"
#include "st_oracle.hpp"

namespace gcopss::test {
namespace {

using copss::MulticastPacket;
using copss::SubscriptionTable;

std::vector<NodeId> match(const SubscriptionTable& st, const char* cd,
                          NodeId exclude = kInvalidNode) {
  return st.matchFaces({Name::parse(cd)}, exclude);
}

TEST(SubscriptionTable, PrefixWalkMatchesEveryLevel) {
  SubscriptionTable st;
  st.subscribe(1, Name::parse("/sports"));
  st.subscribe(2, Name::parse("/sports/football"));
  st.subscribe(3, Name::parse("/politics"));

  // "/sports/football" must reach /sports and /sports/football subscribers.
  const auto faces = match(st, "/sports/football");
  EXPECT_EQ(faces, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(match(st, "/sports/tennis"), (std::vector<NodeId>{1}));
  EXPECT_EQ(match(st, "/politics"), (std::vector<NodeId>{3}));
  EXPECT_TRUE(match(st, "/weather").empty());
}

TEST(SubscriptionTable, SubscribeReportsFirstGlobal) {
  SubscriptionTable st;
  EXPECT_TRUE(st.subscribe(1, Name::parse("/a")));
  EXPECT_FALSE(st.subscribe(2, Name::parse("/a")));
  EXPECT_FALSE(st.unsubscribe(1, Name::parse("/a")));
  EXPECT_TRUE(st.unsubscribe(2, Name::parse("/a")));  // last one out
}

TEST(SubscriptionTable, RefcountedPerFace) {
  SubscriptionTable st;
  st.subscribe(1, Name::parse("/a"));
  st.subscribe(1, Name::parse("/a"));  // second ref on the same face
  st.unsubscribe(1, Name::parse("/a"));
  EXPECT_EQ(match(st, "/a"), (std::vector<NodeId>{1}));
  st.unsubscribe(1, Name::parse("/a"));
  EXPECT_TRUE(match(st, "/a").empty());
}

TEST(SubscriptionTable, ExcludeFaceSkipsArrival) {
  SubscriptionTable st;
  st.subscribe(1, Name::parse("/a"));
  st.subscribe(2, Name::parse("/a"));
  EXPECT_EQ(match(st, "/a/x", 1), (std::vector<NodeId>{2}));
}

TEST(SubscriptionTable, PruneStopsOneCdOnly) {
  SubscriptionTable st;
  st.subscribe(1, Name::parse("/1"));
  st.prune(1, Name::parse("/1/2"));
  EXPECT_TRUE(st.isPruned(1, Name::parse("/1/2")));
  EXPECT_TRUE(match(st, "/1/2").empty()) << "pruned leaf is silenced";
  EXPECT_EQ(match(st, "/1/3"), (std::vector<NodeId>{1})) << "siblings unaffected";
}

TEST(SubscriptionTable, ResubscribeClearsPrunes) {
  SubscriptionTable st;
  st.subscribe(1, Name::parse("/1"));
  st.prune(1, Name::parse("/1/2"));
  st.subscribe(1, Name::parse("/1"));  // fresh subscription of an ancestor
  EXPECT_FALSE(st.isPruned(1, Name::parse("/1/2")));
  EXPECT_EQ(match(st, "/1/2"), (std::vector<NodeId>{1}));
}

TEST(SubscriptionTable, ExactModeHasNoFalsePositives) {
  SubscriptionTable::Options opts;
  opts.useBloom = false;
  SubscriptionTable st(opts);
  for (int i = 0; i < 200; ++i) st.subscribe(1, Name::parse("/in/" + std::to_string(i)));
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(match(st, ("/out/" + std::to_string(i)).c_str()).empty());
  }
  EXPECT_EQ(st.bloomFalsePositives(), 0u);
}

TEST(SubscriptionTable, TinyBloomLeaksButNeverMisses) {
  SubscriptionTable::Options opts;
  opts.bloomBits = 32;  // absurdly small: false positives guaranteed
  opts.bloomHashes = 2;
  SubscriptionTable st(opts);
  for (int i = 0; i < 50; ++i) st.subscribe(1, Name::parse("/in/" + std::to_string(i)));
  // Every genuine subscription still matches (no false negatives)...
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(match(st, ("/in/" + std::to_string(i)).c_str()), (std::vector<NodeId>{1}));
  }
  // ...and the saturated filter leaks on foreign CDs.
  std::size_t leaks = 0;
  for (int i = 0; i < 100; ++i) {
    if (!match(st, ("/no/" + std::to_string(i)).c_str()).empty()) ++leaks;
  }
  EXPECT_GT(leaks, 0u);
  EXPECT_GT(st.bloomFalsePositives(), 0u);
}

TEST(SubscriptionTable, HashedAndTextualPathsAgree) {
  // The packet's first-hop hashes, the control-plane wrapper's own hashing
  // of the Names, and the oracle's textual prefix walk must all agree.
  SubscriptionTable st;
  st.subscribe(1, Name::parse("/1"));
  st.subscribe(2, Name::parse("/1/2"));
  st.subscribe(3, Name());
  st.prune(1, Name::parse("/1/3"));
  for (const char* cd : {"/1/2", "/1/3", "/2/1", "/_"}) {
    const MulticastPacket pkt({Name::parse(cd)}, 10, 0, 1, 0);
    std::vector<NodeId> hashed;
    st.matchFacesHashedInto(pkt.cds, pkt.prefixHashes, pkt.matchKey, kInvalidNode, hashed);
    EXPECT_EQ(hashed, oracleMatch(st, pkt.cds, kInvalidNode).faces) << cd;
    EXPECT_EQ(st.matchFaces(pkt.cds), hashed) << cd;
  }
}

TEST(SubscriptionTable, IntersectionQueryForMigration) {
  SubscriptionTable st;
  st.subscribe(1, Name::parse("/1"));
  EXPECT_TRUE(st.hasIntersectingSubscription(Name::parse("/1/2")));   // descendant
  EXPECT_TRUE(st.hasIntersectingSubscription(Name()));                // ancestor
  EXPECT_FALSE(st.hasIntersectingSubscription(Name::parse("/2/1")));  // disjoint
}

TEST(SubscriptionTable, EntryAndFaceCounts) {
  SubscriptionTable st;
  st.subscribe(1, Name::parse("/a"));
  st.subscribe(1, Name::parse("/b"));
  st.subscribe(2, Name::parse("/a"));
  EXPECT_EQ(st.entryCount(), 3u);
  EXPECT_EQ(st.faceCount(), 2u);
  EXPECT_EQ(st.cdsOnFace(1).size(), 2u);
  EXPECT_TRUE(st.faceSubscribed(2, Name::parse("/a")));
  EXPECT_FALSE(st.faceSubscribed(2, Name::parse("/b")));
}

}  // namespace
}  // namespace gcopss::test
