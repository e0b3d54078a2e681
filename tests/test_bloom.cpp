// A Subscription Table face's Bloom filter, through the table's public API.
// Each test subscribes its CDs on one face beside an anchor CD that keeps
// the face alive, so "everything removed" means the face's filter must
// equal one that only ever held the anchor (st_oracle.hpp's model).

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.hpp"
#include "copss/st.hpp"
#include "st_oracle.hpp"

namespace gcopss::test {
namespace {

using copss::SubscriptionTable;

constexpr NodeId kFace = 1;

SubscriptionTable anchoredFace(std::size_t bits, unsigned k) {
  SubscriptionTable::Options opts;
  opts.bloomBits = bits;
  opts.bloomHashes = k;
  SubscriptionTable st(opts);
  st.subscribe(kFace, Name::parse("/anchor"));
  return st;
}

// The face holds only the anchor, and its filter answers each of `names`
// exactly as a filter holding only the anchor would.
void expectOnlyAnchorLeft(const SubscriptionTable& st, const std::vector<Name>& names) {
  ASSERT_EQ(st.cdsOnFace(kFace), std::vector<Name>{Name::parse("/anchor")});
  for (const Name& n : names) {
    EXPECT_EQ(st.bloomMightContain(kFace, n), modelMightContain(st, kFace, n))
        << n.toString();
  }
}

TEST(Bloom, AddContainsRemove) {
  SubscriptionTable st = anchoredFace(1024, 5);
  const Name cd = Name::parse("/1/2");
  EXPECT_FALSE(st.bloomMightContain(kFace, cd));
  st.subscribe(kFace, cd);
  EXPECT_TRUE(st.bloomMightContain(kFace, cd));
  st.unsubscribe(kFace, cd);
  EXPECT_FALSE(st.bloomMightContain(kFace, cd));
}

TEST(Bloom, CountingSupportsMultiplicity) {
  SubscriptionTable st = anchoredFace(1024, 5);
  const Name cd = Name::parse("/x");
  st.subscribe(kFace, cd);
  st.subscribe(kFace, cd);
  st.unsubscribe(kFace, cd);
  EXPECT_TRUE(st.bloomMightContain(kFace, cd)) << "one reference must remain";
  st.unsubscribe(kFace, cd);
  EXPECT_FALSE(st.bloomMightContain(kFace, cd));
}

TEST(Bloom, NoFalseNegativesEver) {
  SubscriptionTable st = anchoredFace(1 << 12, 7);
  std::vector<Name> added;
  for (int i = 0; i < 500; ++i) {
    added.push_back(Name::parse("/a/" + std::to_string(i)));
    st.subscribe(kFace, added.back());
  }
  for (const Name& n : added) EXPECT_TRUE(st.bloomMightContain(kFace, n));
}

TEST(Bloom, FalsePositiveRateNearPrediction) {
  SubscriptionTable st = anchoredFace(1 << 12, 7);
  for (int i = 0; i < 400; ++i) st.subscribe(kFace, Name::parse("/in/" + std::to_string(i)));
  std::size_t fp = 0;
  const std::size_t probes = 20000;
  for (std::size_t i = 0; i < probes; ++i) {
    if (st.bloomMightContain(kFace, Name::parse("/out/" + std::to_string(i)))) ++fp;
  }
  const double measured = static_cast<double>(fp) / static_cast<double>(probes);
  const double predicted = st.predictedFalsePositiveRate(kFace);
  EXPECT_LT(measured, predicted * 3 + 0.001);
  EXPECT_LT(predicted, 0.01) << "this sizing should be well under 1%";
}

TEST(Bloom, ClearEmptiesEverything) {
  SubscriptionTable st = anchoredFace(256, 4);
  std::vector<Name> cds;
  for (int i = 0; i < 50; ++i) {
    cds.push_back(Name::parse("/c/" + std::to_string(i)));
    st.subscribe(kFace, cds.back());
  }
  for (const Name& n : cds) st.unsubscribe(kFace, n);
  expectOnlyAnchorLeft(st, cds);
  // The anchor's departure takes the face, and its filter, with it.
  st.unsubscribe(kFace, Name::parse("/anchor"));
  EXPECT_EQ(st.faceCount(), 0u);
  for (const Name& n : cds) EXPECT_FALSE(st.bloomMightContain(kFace, n));
}

// Property: unsubscribing CDs the face never held — false positives of its
// filter included — never disturbs the ones it holds.
TEST(Bloom, RemoveAbsentKeepsPresentSafe) {
  SubscriptionTable st = anchoredFace(1 << 10, 5);
  std::vector<Name> present;
  for (int i = 0; i < 100; ++i) {
    present.push_back(Name::parse("/p/" + std::to_string(i)));
    st.subscribe(kFace, present.back());
  }
  // Some of these pass the filter, on bits shared with present CDs.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(st.unsubscribe(kFace, Name::parse("/q/" + std::to_string(i))));
  }
  for (const Name& n : present) EXPECT_TRUE(st.bloomMightContain(kFace, n));
}

// ---------------------------------------------------------------------------
// Property-based sweep: for randomly generated CD sets across seeds and
// filter geometries, the filter must never produce a false negative, and the
// measured false-positive rate must stay within a small factor of the
// analytic prediction. Failures print the generating seed.
// ---------------------------------------------------------------------------

struct BloomProperty {
  std::uint64_t seed;
  std::size_t bits;
  unsigned k;
  std::size_t inserted;
};

void PrintTo(const BloomProperty& p, std::ostream* os) {
  *os << "seed=" << p.seed << "/bits=" << p.bits << "/k=" << p.k
      << "/n=" << p.inserted;
}

class BloomProperties : public ::testing::TestWithParam<BloomProperty> {};

TEST_P(BloomProperties, NoFalseNegativesAndBoundedFalsePositives) {
  const auto& p = GetParam();
  SCOPED_TRACE("bloom property seed=" + std::to_string(p.seed));
  Rng rng(p.seed);
  SubscriptionTable st = anchoredFace(p.bits, p.k);

  // Random hierarchical CDs, dedup'd so the out-set below is truly disjoint.
  std::set<std::string> present;
  while (present.size() < p.inserted) {
    present.insert("/in/" + std::to_string(rng.next() % 1000000) + "/" +
                   std::to_string(rng.next() % 64));
  }
  std::vector<Name> cds;
  for (const auto& s : present) {
    cds.push_back(Name::parse(s));
    st.subscribe(kFace, cds.back());
  }

  // Soundness: nothing inserted may ever test negative.
  for (const Name& n : cds) ASSERT_TRUE(st.bloomMightContain(kFace, n)) << n.toString();

  // Precision: the measured FP rate over disjoint probes stays within 3x the
  // analytic bound (plus slack for tiny rates where variance dominates).
  std::size_t fp = 0;
  const std::size_t probes = 20000;
  for (std::size_t i = 0; i < probes; ++i) {
    const Name probe = Name::parse("/out/" + std::to_string(rng.next()));
    if (st.bloomMightContain(kFace, probe)) ++fp;
  }
  const double measured = static_cast<double>(fp) / static_cast<double>(probes);
  EXPECT_LT(measured, st.predictedFalsePositiveRate(kFace) * 3 + 0.002);

  // Removing everything leaves the anchor's filter and nothing else: every
  // bit the departed CDs set, and no other CD holds, is clear again.
  for (const Name& n : cds) st.unsubscribe(kFace, n);
  expectOnlyAnchorLeft(st, cds);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndGeometries, BloomProperties,
    ::testing::Values(BloomProperty{1, 1 << 12, 7, 300},
                      BloomProperty{2, 1 << 12, 7, 300},
                      BloomProperty{3, 1 << 14, 7, 2000},
                      BloomProperty{4, 1 << 10, 5, 100},
                      BloomProperty{5, 1 << 13, 4, 800}));

}  // namespace
}  // namespace gcopss::test
