#include <gtest/gtest.h>

#include "copss/balancer.hpp"
#include "copss/deploy.hpp"

namespace gcopss::test {
namespace {

using namespace gcopss::copss;

// ---------------- RpAssignment ----------------

TEST(RpAssignment, PrefixFreeValidationRejectsNesting) {
  RpAssignment a;
  a.prefixToRp[Name::parse("/1")] = 1;
  a.prefixToRp[Name::parse("/1/2")] = 2;
  EXPECT_THROW(a.validatePrefixFree(), std::invalid_argument);

  RpAssignment ok;
  ok.prefixToRp[Name::parse("/1/1")] = 1;
  ok.prefixToRp[Name::parse("/1/2")] = 2;
  ok.prefixToRp[Name::parse("/2")] = 1;
  EXPECT_NO_THROW(ok.validatePrefixFree());
}

TEST(RpAssignment, RootAssignmentExcludesEverythingElse) {
  RpAssignment a;
  a.prefixToRp[Name()] = 1;
  a.prefixToRp[Name::parse("/x")] = 2;
  EXPECT_THROW(a.validatePrefixFree(), std::invalid_argument);
}

TEST(BalancedAssignment, SingleRpGetsTheRoot) {
  const auto a = buildBalancedAssignment({Name::parse("/1"), Name::parse("/2")}, {}, {5});
  ASSERT_EQ(a.prefixToRp.size(), 1u);
  EXPECT_EQ(a.prefixToRp.begin()->first, Name());
}

TEST(BalancedAssignment, WeightsBalanceLoad) {
  std::vector<Name> leaves;
  std::map<Name, double> weights;
  for (int i = 0; i < 10; ++i) {
    leaves.push_back(Name::parse("/" + std::to_string(i)));
    weights[leaves.back()] = (i == 0) ? 100.0 : 1.0;  // one hot CD
  }
  const auto a = buildBalancedAssignment(leaves, weights, {1, 2});
  // The hot CD's RP should carry almost nothing else.
  double load[2] = {0, 0};
  for (const auto& [cd, rp] : a.prefixToRp) load[rp - 1] += weights[cd];
  const NodeId hotRp = a.prefixToRp.at(leaves[0]);
  EXPECT_EQ(load[hotRp - 1], 100.0) << "hot CD isolated on its own RP";
  a.validatePrefixFree();
}

TEST(BalancedAssignment, EveryLeafIsCovered) {
  std::vector<Name> leaves;
  for (int i = 0; i < 31; ++i) leaves.push_back(Name::parse("/L/" + std::to_string(i)));
  const auto a = buildBalancedAssignment(leaves, {}, {1, 2, 3});
  for (const Name& leaf : leaves) EXPECT_EQ(a.prefixToRp.count(leaf), 1u) << leaf.toString();
}

// ---------------- RpLoadBalancer ----------------

TEST(Balancer, SlidingWindowForgetsOldTraffic) {
  RpLoadBalancer::Options opts;
  opts.windowSize = 10;
  RpLoadBalancer b(opts);
  for (int i = 0; i < 10; ++i) b.recordPublication(Name::parse("/old"));
  for (int i = 0; i < 10; ++i) b.recordPublication(Name::parse("/new"));
  EXPECT_EQ(b.windowCounts().count(Name::parse("/old")), 0u);
  EXPECT_EQ(b.windowCounts().at(Name::parse("/new")), 10u);
}

TEST(Balancer, SplitNeedsBacklogAndMultipleCds) {
  RpLoadBalancer::Options opts;
  opts.backlogThreshold = ms(100);
  RpLoadBalancer b(opts);
  b.recordPublication(Name::parse("/only"));
  EXPECT_FALSE(b.shouldSplit(ms(500), 0)) << "single CD cannot be split";
  b.recordPublication(Name::parse("/two"));
  EXPECT_FALSE(b.shouldSplit(ms(50), 0)) << "below the backlog threshold";
  EXPECT_TRUE(b.shouldSplit(ms(500), 0));
}

TEST(Balancer, CooldownSpacesSplits) {
  RpLoadBalancer::Options opts;
  opts.backlogThreshold = ms(10);
  opts.cooldown = seconds(10);
  RpLoadBalancer b(opts);
  b.recordPublication(Name::parse("/a"));
  b.recordPublication(Name::parse("/b"));
  EXPECT_TRUE(b.shouldSplit(ms(100), seconds(1)));
  b.markSplit(seconds(1));
  EXPECT_FALSE(b.shouldSplit(ms(100), seconds(5)));
  EXPECT_TRUE(b.shouldSplit(ms(100), seconds(12)));
}

TEST(Balancer, SelectionBalancesRecentLoad) {
  RpLoadBalancer b;
  // Counts: a=50, b=30, c=20, d=10.
  for (int i = 0; i < 50; ++i) b.recordPublication(Name::parse("/a"));
  for (int i = 0; i < 30; ++i) b.recordPublication(Name::parse("/b"));
  for (int i = 0; i < 20; ++i) b.recordPublication(Name::parse("/c"));
  for (int i = 0; i < 10; ++i) b.recordPublication(Name::parse("/d"));

  const auto moved = b.selectCdsToMove();
  ASSERT_FALSE(moved.empty());
  ASSERT_LT(moved.size(), 4u) << "never moves everything";
  // Moving {b,c} (50) against keeping {a,d} (60) is the greedy balance.
  std::size_t movedLoad = 0;
  const std::map<std::string, std::size_t> counts{{"/a", 50}, {"/b", 30}, {"/c", 20}, {"/d", 10}};
  for (const Name& cd : moved) movedLoad += counts.at(cd.toString());
  EXPECT_GE(movedLoad, 40u);
  EXPECT_LE(movedLoad, 60u);
  // The heaviest CD stays with the incumbent RP.
  for (const Name& cd : moved) EXPECT_NE(cd, Name::parse("/a"));
}

TEST(Balancer, DominantSingleCdIsKeptAloneWhenSplitting) {
  RpLoadBalancer b;
  for (int i = 0; i < 90; ++i) b.recordPublication(Name::parse("/hot"));
  for (int i = 0; i < 5; ++i) b.recordPublication(Name::parse("/c1"));
  for (int i = 0; i < 5; ++i) b.recordPublication(Name::parse("/c2"));
  const auto moved = b.selectCdsToMove();
  // Everything except the hot CD migrates.
  EXPECT_EQ(moved.size(), 2u);
  for (const Name& cd : moved) EXPECT_NE(cd, Name::parse("/hot"));
}

}  // namespace
}  // namespace gcopss::test
