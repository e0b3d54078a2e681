#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/name.hpp"
#include "common/name_table.hpp"
#include "common/rng.hpp"
#include "common/seq_window.hpp"
#include "copss/packets.hpp"
#include "ndn/packets.hpp"

namespace gcopss::test {
namespace {

TEST(Name, ParseBasics) {
  EXPECT_TRUE(Name::parse("/").empty());
  EXPECT_TRUE(Name::parse("").empty());
  const Name n = Name::parse("/1/2");
  ASSERT_EQ(n.size(), 2u);
  EXPECT_EQ(n.at(0), "1");
  EXPECT_EQ(n.at(1), "2");
  EXPECT_EQ(n.toString(), "/1/2");
}

TEST(Name, TrailingSlashIsTheAboveLeaf) {
  // The paper writes the airspace above region 1 as "/1/".
  const Name n = Name::parse("/1/");
  ASSERT_EQ(n.size(), 2u);
  EXPECT_EQ(n.at(1), Name::kAboveComponent);
  EXPECT_TRUE(n.isAboveLeaf());
  EXPECT_EQ(n, Name::parse("/1").aboveLeaf());
}

TEST(Name, RootToString) { EXPECT_EQ(Name().toString(), "/"); }

TEST(Name, PrefixRelations) {
  const Name root;
  const Name r1 = Name::parse("/1");
  const Name z12 = Name::parse("/1/2");
  EXPECT_TRUE(root.isPrefixOf(z12));
  EXPECT_TRUE(r1.isPrefixOf(z12));
  EXPECT_TRUE(z12.isPrefixOf(z12));
  EXPECT_FALSE(z12.isPrefixOf(r1));
  EXPECT_TRUE(r1.isStrictPrefixOf(z12));
  EXPECT_FALSE(z12.isStrictPrefixOf(z12));
  EXPECT_FALSE(Name::parse("/2").isPrefixOf(z12));
  // Component-wise, not textual: /1 is not a prefix of /11.
  EXPECT_FALSE(Name::parse("/1").isPrefixOf(Name::parse("/11")));
}

TEST(Name, ParentAndPrefix) {
  const Name n = Name::parse("/a/b/c");
  EXPECT_EQ(n.parent(), Name::parse("/a/b"));
  EXPECT_EQ(n.prefix(0), Name());
  EXPECT_EQ(n.prefix(2), Name::parse("/a/b"));
  EXPECT_EQ(n.prefix(3), n);
}

TEST(Name, AppendRoundTrips) {
  const Name n = Name::parse("/x").append("y").append(Name::parse("/z/w"));
  EXPECT_EQ(n.toString(), "/x/y/z/w");
}

TEST(Name, HashDistinguishesHierarchy) {
  // The hash must separate names that concatenate to the same string.
  EXPECT_NE(Name::parse("/ab/c").hash(), Name::parse("/a/bc").hash());
  EXPECT_NE(Name::parse("/1").hash(), Name::parse("/1/").hash());
  EXPECT_EQ(Name::parse("/1/2").hash(), Name::parse("/1/2").hash());
}

TEST(Name, OrderingIsComponentWise) {
  EXPECT_LT(Name::parse("/1"), Name::parse("/1/1"));
  EXPECT_LT(Name::parse("/1/9"), Name::parse("/2"));
}

// Property sweep: parse(toString(n)) == n over a generated name universe.
class NameRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(NameRoundTrip, ParsePrintParse) {
  const Name n = Name::parse(GetParam());
  EXPECT_EQ(Name::parse(n.toString()), n) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Names, NameRoundTrip,
                         ::testing::Values("/", "/1", "/1/2", "/1/", "/1/2/3/4/5",
                                           "/sports/football", "/_", "/1/_",
                                           "/snapshot/1/2/o/17"));

// ---------------------------------------------------------------------------
// NameTable: the interner must agree with the string-based Name on every
// observable — same id for equal names, and the same parent / prefix
// relations — over a generated name universe.
// ---------------------------------------------------------------------------

std::vector<Name> nameUniverse() {
  std::vector<Name> out{Name()};
  for (const char* s : {"/1", "/2", "/1/1", "/1/2", "/1/2/3", "/1/", "/1/2/",
                        "/sports", "/sports/football", "/sports/football/fr",
                        "/snapshot/1/2/o/17", "/_", "/1/_"}) {
    out.push_back(Name::parse(s));
  }
  return out;
}

TEST(NameTable, InternRoundTripsThroughParse) {
  NameTable table;
  for (const Name& n : nameUniverse()) {
    const NameId id = table.intern(n);
    EXPECT_EQ(table.intern(Name::parse(n.toString())), id) << n.toString();
    EXPECT_EQ(table.name(id), n) << n.toString();
  }
}

TEST(NameTable, InterningIsIdempotentAndInjective) {
  NameTable table;
  const auto universe = nameUniverse();
  std::unordered_map<NameId, Name> seen;
  for (const Name& n : universe) {
    const NameId id = table.intern(n);
    EXPECT_EQ(table.intern(n), id);
    const auto [it, fresh] = seen.emplace(id, n);
    if (!fresh) {
      EXPECT_EQ(it->second, n) << "two names share id " << id;
    }
  }
}

TEST(NameTable, ParentAndDepthMatchStringPrefixes) {
  NameTable table;
  for (const Name& n : nameUniverse()) {
    const NameId id = table.intern(n);
    EXPECT_EQ(table.depth(id), n.size()) << n.toString();
    if (!n.empty()) {
      EXPECT_EQ(table.parent(id), table.intern(n.prefix(n.size() - 1))) << n.toString();
    }
    // Every prefix resolves to itself, and a never-interned extension to n.
    for (std::size_t len = 0; len <= n.size(); ++len) {
      EXPECT_EQ(table.deepest(n.prefix(len)), table.intern(n.prefix(len))) << n.toString();
    }
    const std::size_t interned = table.size();
    EXPECT_EQ(table.deepest(n.append("unseen").append("x")), id) << n.toString();
    EXPECT_EQ(table.size(), interned);
  }
}

TEST(NameTable, IsPrefixOfAgreesWithName) {
  NameTable table;
  const auto universe = nameUniverse();
  for (const Name& a : universe) {
    for (const Name& b : universe) {
      EXPECT_EQ(table.isPrefixOf(table.intern(a), table.intern(b)), a.isPrefixOf(b))
          << a.toString() << " vs " << b.toString();
    }
  }
}

// The first hop's prefix hashes are each level's Name::hash(): Subscription
// Tables key their Bloom bits by Name::hash(), and publications are matched
// by these.
TEST(PrefixHashes, MatchNameHashAtEveryLevel) {
  for (const Name& cd : nameUniverse()) {
    std::vector<std::uint64_t> hashes{42};  // appends after what is there
    copss::appendPrefixHashes(cd, hashes);
    ASSERT_EQ(hashes.size(), cd.size() + 2) << cd.toString();
    EXPECT_EQ(hashes[0], 42u);
    for (std::size_t len = 0; len <= cd.size(); ++len) {
      EXPECT_EQ(hashes[len + 1], cd.prefix(len).hash()) << cd.toString() << " @" << len;
    }
  }
}

// ---------------------------------------------------------------------------
// SeqWindow: randomized equivalence against a std container reference. It
// sits on dedup paths whose decisions are pinned by the golden chaos trace,
// so any behavioral drift is a protocol change.
// ---------------------------------------------------------------------------

// Windows reached through SeqWindowRows, each checked against an exact
// std::set of the seqs it reported new. Keys are (publisher, face) pairs,
// the kInvalidNode publisher and the kLocalFace slot among them, and every
// op goes to two layouts: rows numbered by first use, as a router keeps
// them, and rows indexed by denseNodeIndex, as a host does. Publishers and
// faces are unlocked one by one over the first half of the run, so rows are
// added and widened while older windows hold state. Seqs mix reordering
// inside the span, jumps past it, and arrivals exactly at its inner and
// outer edges.
TEST(SeqWindow, MatchesSetReferenceWithinSpan) {
  constexpr std::uint64_t kSpan = SeqWindow::kSpan;
  struct Ref {
    std::uint64_t top = 0;
    std::set<std::uint64_t> reportedNew;
  };
  // In unlock order. Neighbouring ids catch a row map that merges them.
  const std::vector<NodeId> publishers = {5,  kInvalidNode, 0,  6,    1,   300, 2,  4,
                                          64, 63,           65, 4097, 7,   3,   8,  1000};
  const std::vector<NodeId> faces = {3, ndn::kLocalFace, 0, 4, 1, 2, 40, 1023};
  std::map<std::pair<std::size_t, std::size_t>, Ref> refs;
  FirstUseIndex rowOf;
  FirstUseIndex slotOf;
  SeqWindowRows routerRows;
  SeqWindowRows directRows;
  Rng rng(6479);
  const auto draw = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return static_cast<std::uint64_t>(
        rng.uniformInt(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  };
  constexpr int kOps = 200000;
  for (int i = 0; i < kOps; ++i) {
    const auto live = [i](std::size_t n) {
      return std::min(n, 1 + n * static_cast<std::size_t>(i) / (kOps / 2));
    };
    const std::size_t p = draw(0, live(publishers.size()) - 1);
    const std::size_t f = draw(0, live(faces.size()) - 1);
    Ref& ref = refs[{p, f}];
    // `back(d)`: d below the highest seq seen, floored at seq 1.
    const auto back = [&ref](std::uint64_t d) { return ref.top > d ? ref.top - d : 1; };
    std::uint64_t seq = 0;
    switch (rng.uniformInt(0, 6)) {
      case 0: seq = ref.top + draw(1, 4); break;                  // advance
      case 1: seq = ref.top + draw(5, kSpan - 1); break;          // advance within the span
      case 2: seq = ref.top + draw(kSpan, 2 * kSpan); break;      // jump past the span
      case 3: seq = back(kSpan - 1); break;                       // oldest tracked
      case 4: seq = back(kSpan); break;                           // first untracked
      default: seq = back(draw(0, kSpan + 8)); break;             // reordered
    }
    const bool tracked = seq > ref.top || ref.top - seq < kSpan;
    const bool expectSeen = !tracked || ref.reportedNew.count(seq) > 0;
    const std::uint32_t slot = slotOf.of(faces[f]);
    ASSERT_EQ(routerRows.at(rowOf.of(publishers[p]), slot).checkAndInsert(seq), expectSeen)
        << "publisher " << publishers[p] << " face " << faces[f] << " seq " << seq << " top "
        << ref.top << " step " << i;
    ASSERT_EQ(directRows.at(denseNodeIndex(publishers[p]), slot).checkAndInsert(seq), expectSeen)
        << "direct rows: publisher " << publishers[p] << " face " << faces[f] << " step " << i;
    if (!expectSeen) {
      ASSERT_TRUE(ref.reportedNew.insert(seq).second) << "seq " << seq << " reported new twice";
      ref.top = std::max(ref.top, seq);
    }
  }
  // The contract's edges on a bare window: seq 200 tracks 73..200 exactly.
  SeqWindow win;
  EXPECT_TRUE(win.empty());
  EXPECT_FALSE(win.checkAndInsert(200));
  EXPECT_FALSE(win.empty());
  EXPECT_FALSE(win.checkAndInsert(200 - (kSpan - 1)));  // just inside: new
  EXPECT_TRUE(win.checkAndInsert(200 - (kSpan - 1)));   // and now seen
  EXPECT_TRUE(win.checkAndInsert(200 - kSpan));         // just outside: seen
  EXPECT_FALSE(win.checkAndInsert(200 + kSpan));        // jump: new
  EXPECT_TRUE(win.checkAndInsert(200));                 // fell out of the span
  EXPECT_FALSE(win.checkAndInsert(201));                // never seen, inside
}

}  // namespace
}  // namespace gcopss::test
