#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "common/rng.hpp"
#include "ndn/content_store.hpp"
#include "ndn/fib.hpp"
#include "ndn/forwarder.hpp"
#include "ndn/pit.hpp"

namespace gcopss::test {
namespace {

using namespace gcopss::ndn;

// ---------------- FIB ----------------

TEST(Fib, LongestPrefixMatchWins) {
  NameTable names;
  Fib fib(names);
  fib.insert(Name::parse("/a"), 1);
  fib.insert(Name::parse("/a/b"), 2);
  EXPECT_EQ(fib.lpm(Name::parse("/a/b/c")), (std::vector<NodeId>{2}));
  EXPECT_EQ(fib.lpm(Name::parse("/a/x")), (std::vector<NodeId>{1}));
  EXPECT_TRUE(fib.lpm(Name::parse("/z")).empty());
}

TEST(Fib, RootEntryCatchesEverything) {
  NameTable names;
  Fib fib(names);
  fib.insert(Name(), 7);
  EXPECT_EQ(fib.lpm(Name::parse("/anything/at/all")), (std::vector<NodeId>{7}));
}

TEST(Fib, MultipleFacesPerPrefix) {
  NameTable names;
  Fib fib(names);
  fib.insert(Name::parse("/m"), 1);
  fib.insert(Name::parse("/m"), 2);
  fib.insert(Name::parse("/m"), 1);  // a repeated pair is one entry
  EXPECT_EQ(fib.lpm(Name::parse("/m/x")), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(fib.entryCount(), 2u);
}

TEST(Fib, RemovePrefixClearsAllFaces) {
  NameTable names;
  Fib fib(names);
  fib.insert(Name::parse("/p"), 1);
  fib.insert(Name::parse("/p"), 2);
  fib.removePrefix(Name::parse("/p"));
  EXPECT_TRUE(fib.lpm(Name::parse("/p/q")).empty());
  EXPECT_EQ(fib.entryCount(), 0u);
}

TEST(Fib, IntersectingFindsAncestorsAndDescendants) {
  NameTable names;
  Fib fib(names);
  fib.insert(Name::parse("/1/1"), 1);
  fib.insert(Name::parse("/1/2"), 2);
  fib.insert(Name::parse("/2"), 3);
  fib.insert(Name(), 4);

  // /1 intersects its descendants /1/1, /1/2 and its ancestor root.
  std::set<std::string> prefixes;
  for (const Name& p : fib.intersecting(Name::parse("/1"))) prefixes.insert(p.toString());
  EXPECT_EQ(prefixes, (std::set<std::string>{"/", "/1/1", "/1/2"}));
}

TEST(Fib, IntersectingOrderIsDeterministic) {
  // The route table is keyed by NameId, whose order is first-intern order,
  // but intersecting() feeds Subscribe propagation, so its output order must
  // be a pure function of the FIB's contents: sorted by Name, i.e. ancestors
  // root-down, then descendants in sorted preorder — whatever the insertion
  // (and so interning) order was.
  const std::vector<std::string> prefixes = {"/1/9", "/1/2", "/1/5/a",
                                             "/1/5", "/1/11", "/"};
  std::vector<std::string> insertionOrder = prefixes;
  std::vector<std::string> expected;
  {
    NameTable names;
    Fib fib(names);
    NodeId face = 1;
    for (const auto& p : insertionOrder) fib.insert(Name::parse(p), face++);
    for (const Name& name : fib.intersecting(Name::parse("/1"))) {
      expected.push_back(name.toString());
    }
  }
  EXPECT_EQ(expected, (std::vector<std::string>{"/", "/1/11", "/1/2", "/1/5",
                                                "/1/5/a", "/1/9"}));
  // Every insertion order yields the identical sequence.
  std::sort(insertionOrder.begin(), insertionOrder.end());
  do {
    NameTable names;
    Fib fib(names);
    NodeId face = 1;
    for (const auto& p : insertionOrder) fib.insert(Name::parse(p), face++);
    std::vector<std::string> got;
    for (const Name& name : fib.intersecting(Name::parse("/1"))) {
      got.push_back(name.toString());
    }
    EXPECT_EQ(got, expected) << "insertion order changed intersecting() order";
  } while (std::next_permutation(insertionOrder.begin(), insertionOrder.end()));
}

TEST(Fib, LpmMatchesRouteModelUnderChurn) {
  // The one LPM — lpmFaces over the interner's parent chain, and lpm(Name)
  // on top of it — against a model: the faces of the longest prefix in the
  // test's own live (prefix, face) list, under inserts and removePrefix
  // (the one removal routers use).
  NameTable names;
  Fib fib(names);
  Rng rng(23);
  // Hierarchical CD universe: /g<a>, /g<a>/r<b>, /g<a>/r<b>/c<c>.
  const auto below = [&rng](std::uint64_t n) { return rng.next() % n; };
  const auto randomCd = [&below] {
    Name n = Name::parse("/g" + std::to_string(below(8)));
    if (below(3) != 0) {
      n = n.append("r" + std::to_string(below(4)));
      if (below(2) != 0) n = n.append("c" + std::to_string(below(3)));
    }
    return n;
  };
  std::vector<std::pair<Name, NodeId>> live;  // no duplicate pairs
  const auto modelLpm = [&live](const Name& name) {
    const Name* longest = nullptr;
    for (const auto& [prefix, face] : live) {
      (void)face;
      if (prefix.isPrefixOf(name) && (!longest || prefix.size() > longest->size())) {
        longest = &prefix;
      }
    }
    std::set<NodeId> faces;
    for (const auto& [prefix, face] : live) {
      if (longest && prefix == *longest) faces.insert(face);
    }
    return std::vector<NodeId>(faces.begin(), faces.end());
  };
  const auto expectLpm = [&](const Name& name) {
    const auto expected = modelLpm(name);
    // lpm(Name) first: a name deeper than any route may not be interned yet.
    EXPECT_EQ(fib.lpm(name), expected) << name.toString();
    const auto* faces = fib.lpmFaces(names.intern(name));
    EXPECT_EQ(faces ? std::vector<NodeId>(faces->begin(), faces->end()) : std::vector<NodeId>{},
              expected)
        << name.toString();
  };

  for (int round = 0; round < 30; ++round) {
    for (int op = 0; op < 15; ++op) {
      if (live.empty() || below(3) != 0) {
        std::pair<Name, NodeId> route{randomCd(), static_cast<NodeId>(below(10))};
        fib.insert(route.first, route.second);
        if (std::find(live.begin(), live.end(), route) == live.end()) {
          live.push_back(std::move(route));
        }
      } else {
        const Name prefix = live[below(live.size())].first;
        fib.removePrefix(prefix);
        std::erase_if(live, [&prefix](const auto& route) { return route.first == prefix; });
      }
    }
    ASSERT_EQ(fib.entryCount(), live.size());
    for (int q = 0; q < 20; ++q) {
      // Query names one level deeper than any route too, some never seen.
      Name name = randomCd();
      if (below(2) == 0) {
        name = name.append("deep" + std::to_string(round) + "-" + std::to_string(q));
      }
      expectLpm(name);
    }
  }
  // Drain: removePrefix clears every face of exactly that prefix.
  while (!live.empty()) {
    const Name prefix = live.front().first;
    fib.removePrefix(prefix);
    std::erase_if(live, [&prefix](const auto& route) { return route.first == prefix; });
    ASSERT_EQ(fib.entryCount(), live.size());
    expectLpm(prefix);
  }
  EXPECT_TRUE(fib.lpm(Name::parse("/g1/r1")).empty());
}

TEST(Fib, LookupsNeverIntern) {
  NameTable names;
  Fib fib(names);
  fib.insert(Name(), 1);
  fib.insert(Name::parse("/1"), 2);
  fib.insert(Name::parse("/1/z"), 3);
  const Name unseen = Name::parse("/1/q");
  ASSERT_LT(names.depth(names.deepest(unseen)), unseen.size());
  const std::size_t interned = names.size();

  EXPECT_EQ(fib.lpm(unseen), (std::vector<NodeId>{2}));
  EXPECT_EQ(fib.lpm(unseen.append("deeper")), (std::vector<NodeId>{2}));
  // Only the routed ancestors of a never-interned name intersect it: the
  // sibling route /1/z is not under /1/q.
  EXPECT_EQ(fib.intersecting(unseen), (std::vector<Name>{Name(), Name::parse("/1")}));
  fib.removePrefix(unseen);
  EXPECT_EQ(names.size(), interned);
  EXPECT_EQ(fib.entryCount(), 3u);
}

// ---------------- PIT ----------------

TEST(Pit, AggregatesDistinctFaces) {
  Pit pit;
  EXPECT_EQ(pit.insert(Name::parse("/n"), 1, 100, 0), Pit::InsertResult::Forward);
  EXPECT_EQ(pit.insert(Name::parse("/n"), 2, 101, 0), Pit::InsertResult::Aggregated);
  const auto faces = pit.consume(Name::parse("/n"), 0);
  EXPECT_EQ(faces.size(), 2u);
  EXPECT_TRUE(pit.consume(Name::parse("/n"), 0).empty());  // consumed once
}

TEST(Pit, DuplicateNonceIsALoop) {
  Pit pit;
  pit.insert(Name::parse("/n"), 1, 42, 0);
  EXPECT_EQ(pit.insert(Name::parse("/n"), 3, 42, 0), Pit::InsertResult::DuplicateNonce);
}

TEST(Pit, SameFaceRetransmissionForwardsAgain) {
  // A consumer retransmission (same face, fresh nonce) must be re-forwarded,
  // or the consumer livelocks refreshing its own stale entry.
  Pit pit;
  pit.insert(Name::parse("/n"), 1, 100, 0);
  EXPECT_EQ(pit.insert(Name::parse("/n"), 1, 101, ms(10)), Pit::InsertResult::Forward);
}

TEST(Pit, ExpiryRemovesEntries) {
  Pit pit(ms(100));
  pit.insert(Name::parse("/live"), 1, 1, 0);
  pit.insert(Name::parse("/n"), 1, 2, 0);
  // Before its expiry an entry returns its faces to the Data.
  EXPECT_EQ(pit.consume(Name::parse("/live"), ms(50)), (std::vector<NodeId>{1}));
  // After it, the entry returns nothing and is removed all the same.
  EXPECT_TRUE(pit.consume(Name::parse("/n"), ms(150)).empty());
  EXPECT_EQ(pit.size(), 0u);
  // A fresh Interest after expiry forwards again instead of aggregating.
  EXPECT_EQ(pit.insert(Name::parse("/m"), 1, 3, 0), Pit::InsertResult::Forward);
  EXPECT_EQ(pit.insert(Name::parse("/m"), 2, 4, ms(200)), Pit::InsertResult::Forward);
}

// ---------------- Content Store ----------------

TEST(ContentStore, LruEvictsOldest) {
  ContentStore cs(2);
  auto mk = [](const char* n) {
    return makePacket<DataPacket>(Name::parse(n), 10, 0, 0);
  };
  cs.insert(mk("/a"), 0);
  cs.insert(mk("/b"), 0);
  EXPECT_NE(cs.find(Name::parse("/a"), 0), nullptr);  // touch /a: /b is LRU now
  cs.insert(mk("/c"), 0);                             // evicts /b
  EXPECT_EQ(cs.find(Name::parse("/b"), 0), nullptr);
  EXPECT_NE(cs.find(Name::parse("/a"), 0), nullptr);
  EXPECT_NE(cs.find(Name::parse("/c"), 0), nullptr);
}

TEST(ContentStore, FreshnessAgesContentOut) {
  ContentStore cs(8, ms(100));
  cs.insert(makePacket<DataPacket>(Name::parse("/f"), 10, 0, 0), 0);
  EXPECT_NE(cs.find(Name::parse("/f"), ms(50)), nullptr);
  EXPECT_EQ(cs.find(Name::parse("/f"), ms(200)), nullptr) << "stale entries vanish";
}

TEST(ContentStore, ZeroCapacityNeverStores) {
  ContentStore cs(0);
  cs.insert(makePacket<DataPacket>(Name::parse("/x"), 10, 0, 0), 0);
  EXPECT_EQ(cs.find(Name::parse("/x"), 0), nullptr);
}

// ---------------- Forwarder (table-level, no network) ----------------

struct ForwarderHarness {
  std::vector<std::pair<NodeId, PacketPtr>> sent;
  std::vector<Name> localData;
  SimTime now = 0;
  NameTable names;
  Forwarder fwd;

  ForwarderHarness()
      : fwd(Forwarder::Hooks{
                [this](NodeId f, PacketPtr p) { sent.emplace_back(f, std::move(p)); },
                nullptr,
                [this](const DataPacketPtr& d) {
                  localData.push_back(d->name);
                }},
            Forwarder::Options{}, [this]() { return now; }, names) {}
};

TEST(Forwarder, InterestFollowsFibAndDataFollowsPit) {
  ForwarderHarness h;
  h.fwd.fib().insert(Name::parse("/src"), 5);
  h.fwd.onInterest(1, makePacket<InterestPacket>(h.names, Name::parse("/src/x"), 1));
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].first, 5);

  h.fwd.onData(5, makePacket<DataPacket>(Name::parse("/src/x"), 10, 0, 0));
  ASSERT_EQ(h.sent.size(), 2u);
  EXPECT_EQ(h.sent[1].first, 1);  // reverse path
}

TEST(Forwarder, CacheHitAnswersWithoutForwarding) {
  ForwarderHarness h;
  h.fwd.fib().insert(Name::parse("/src"), 5);
  h.fwd.onInterest(1, makePacket<InterestPacket>(h.names, Name::parse("/src/x"), 1));
  h.fwd.onData(5, makePacket<DataPacket>(Name::parse("/src/x"), 10, 0, 0));
  h.sent.clear();
  // Second Interest for the same name: served from the CS on face 2.
  h.fwd.onInterest(2, makePacket<InterestPacket>(h.names, Name::parse("/src/x"), 2));
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].first, 2);
  EXPECT_EQ(h.fwd.contentStore().hits(), 1u);
}

TEST(Forwarder, NoRouteCountsDrop) {
  ForwarderHarness h;
  h.fwd.onInterest(1, makePacket<InterestPacket>(h.names, Name::parse("/nowhere"), 1));
  EXPECT_TRUE(h.sent.empty());
  EXPECT_EQ(h.fwd.noRouteDrops(), 1u);
}

TEST(Forwarder, UninternedNameTakesItsRoutedPrefixAndInternsNothing) {
  ForwarderHarness h;
  h.fwd.fib().insert(Name::parse("/src"), 5);
  h.fwd.fib().insert(Name::parse("/other/deep"), 6);
  const std::size_t interned = h.names.size();
  const auto interest = makePacket<InterestPacket>(h.names, Name::parse("/src/never/seen"), 1);
  EXPECT_EQ(h.names.name(interest->nameId), Name::parse("/src"));
  h.fwd.onInterest(1, interest);
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].first, 5);
  EXPECT_EQ(h.names.size(), interned);
}

TEST(Forwarder, UnsolicitedDataDropped) {
  ForwarderHarness h;
  h.fwd.onData(3, makePacket<DataPacket>(Name::parse("/ghost"), 10, 0, 0));
  EXPECT_TRUE(h.sent.empty());
  EXPECT_EQ(h.fwd.unsolicitedDataDrops(), 1u);
}

TEST(Forwarder, LocalExpressAndSatisfy) {
  ForwarderHarness h;
  h.fwd.fib().insert(Name::parse("/p"), 4);
  h.fwd.expressInterest(makePacket<InterestPacket>(h.names, Name::parse("/p/d"), 9));
  ASSERT_EQ(h.sent.size(), 1u);
  h.fwd.onData(4, makePacket<DataPacket>(Name::parse("/p/d"), 10, 0, 0));
  ASSERT_EQ(h.localData.size(), 1u);
  EXPECT_EQ(h.localData[0], Name::parse("/p/d"));
}

}  // namespace
}  // namespace gcopss::test
