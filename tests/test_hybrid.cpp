#include <gtest/gtest.h>

#include "copss/deploy.hpp"
#include "copss/hybrid.hpp"
#include "world_fixture.hpp"

namespace gcopss::test {
namespace {

using copss::HybridEdgeRouter;

TEST(Hybrid, GroupMappingIsStableAndHighLevel) {
  Topology topo;
  Simulator sim;
  const NodeId r = topo.addNode();
  Network net(sim, topo);
  auto& edge = net.emplaceNode<HybridEdgeRouter>(r, net, copss::CopssRouter::Options{}, 4);

  // All CDs under one region alias to the same group.
  EXPECT_EQ(edge.groupFor(Name::parse("/1")), edge.groupFor(Name::parse("/1/2")));
  EXPECT_EQ(edge.groupFor(Name::parse("/1")), edge.groupFor(Name::parse("/1/_")));
  // Deterministic across instances.
  EXPECT_EQ(HybridEdgeRouter::groupIndexFor("1", 4), HybridEdgeRouter::groupIndexFor("1", 4));
  EXPECT_EQ(HybridEdgeRouter::allGroupNames(4).size(), 4u);
}

// A hybrid line: edge(+client) - core - core - edge(+client). Cores are
// IP-speed group multicast; the group RP sits at the first core.
struct HybridWorld {
  Simulator sim;
  Topology topo;
  std::vector<NodeId> routerIds, clientIds;
  std::unique_ptr<Network> net;
  HybridEdgeRouter* e0 = nullptr;
  HybridEdgeRouter* e1 = nullptr;
  gc::GCopssClient* c0 = nullptr;
  gc::GCopssClient* c1 = nullptr;
  static constexpr std::size_t kGroups = 3;

  explicit HybridWorld(copss::CopssRouter::Options edgeOpts = {}) {
    for (int i = 0; i < 4; ++i) {
      routerIds.push_back(topo.addNode("R" + std::to_string(i)));
      if (i > 0) topo.addLink(routerIds[i - 1], routerIds[i], ms(1));
    }
    clientIds.push_back(topo.addNode("c0"));
    clientIds.push_back(topo.addNode("c1"));
    topo.addLink(clientIds[0], routerIds[0], ms(1));
    topo.addLink(clientIds[1], routerIds[3], ms(1));
    net = std::make_unique<Network>(sim, topo, SimParams::largeScale());

    e0 = &net->emplaceNode<HybridEdgeRouter>(routerIds[0], *net, edgeOpts,
                                             kGroups);
    copss::CopssRouter::Options coreOpts;
    coreOpts.ipSpeedCore = true;
    net->emplaceNode<copss::CopssRouter>(routerIds[1], *net, coreOpts);
    net->emplaceNode<copss::CopssRouter>(routerIds[2], *net, coreOpts);
    e1 = &net->emplaceNode<HybridEdgeRouter>(routerIds[3], *net, edgeOpts,
                                             kGroups);
    c0 = &net->emplaceNode<gc::GCopssClient>(clientIds[0], *net, routerIds[0]);
    c1 = &net->emplaceNode<gc::GCopssClient>(clientIds[1], *net, routerIds[3]);
    e0->markHostFace(clientIds[0]);
    e1->markHostFace(clientIds[1]);

    copss::RpAssignment a;
    for (std::size_t g = 0; g < kGroups; ++g) {
      a.prefixToRp[HybridEdgeRouter::groupName(g)] = routerIds[1];
    }
    copss::installAssignment(*net, routerIds, a);
  }
};

TEST(Hybrid, DeliversAcrossTheIpCore) {
  HybridWorld w;
  std::vector<std::uint64_t> got;
  w.c1->setMulticastCallback(
      [&](const copss::MulticastPacket& m, SimTime) { got.push_back(m.seq); });
  w.sim.scheduleAt(0, [&]() { w.c1->subscribe(Name::parse("/1")); });
  w.sim.scheduleAt(ms(100), [&]() { w.c0->publish(Name::parse("/1/2"), 50, 1); });
  w.sim.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1}));
}

// A CD that shares /1's group but is a different region: with 3 groups and
// 8 candidate labels a collision must exist.
Name aliasOfRegionOne(const HybridEdgeRouter& edge) {
  for (int r = 2; r < 10; ++r) {
    const Name other = Name::parse("/" + std::to_string(r) + "/1");
    if (edge.groupFor(other) == edge.groupFor(Name::parse("/1"))) return other;
  }
  return Name();
}

TEST(Hybrid, AliasedTrafficFilteredBeforeHosts) {
  HybridWorld w;
  std::vector<std::uint64_t> got;
  w.c1->setMulticastCallback(
      [&](const copss::MulticastPacket& m, SimTime) { got.push_back(m.seq); });
  w.sim.scheduleAt(0, [&]() { w.c1->subscribe(Name::parse("/1")); });
  const Name aliased = aliasOfRegionOne(*w.e0);
  ASSERT_FALSE(aliased.empty()) << "no group collision among 8 labels / 3 groups?";
  w.sim.scheduleAt(ms(100), [&, aliased]() { w.c0->publish(aliased, 50, 7); });
  w.sim.run();
  EXPECT_TRUE(got.empty()) << "aliased foreign-region traffic must not reach the host";
  // It was carried by the group tree and discarded at the receiving edge
  // (counted) or at the host-facing match.
  EXPECT_GE(w.e1->unwantedReceived(), 1u);
}

// The receiving edge runs one ST match per core multicast, the forward
// itself, and counts unwanted traffic from it. A second match would be a
// certain cache hit, which replays the line's false positives, so each
// Bloom false positive would count twice.
TEST(Hybrid, EdgeMatchesEachCoreMulticastOnce) {
  copss::CopssRouter::Options tiny;
  tiny.st.bloomBits = 8;  // the host face's filter passes foreign CDs too
  HybridWorld w(tiny);
  const copss::SubscriptionTable& st = w.e1->st();
  const auto lookups = [&st]() { return st.matchCacheHits() + st.matchCacheMisses(); };
  w.sim.scheduleAt(0, [&]() { w.c1->subscribe(Name::parse("/1")); });
  w.sim.run(ms(50));
  const Name aliased = aliasOfRegionOne(*w.e0);
  ASSERT_FALSE(aliased.empty());
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    const std::uint64_t before = lookups();
    const SimTime at = ms(100) * static_cast<SimTime>(seq);
    w.sim.scheduleAt(at, [&w, aliased, seq]() { w.c0->publish(aliased, 50, seq); });
    w.sim.run(at + ms(50));
    EXPECT_EQ(lookups() - before, 1u) << "publication " << seq;
  }
  EXPECT_GT(w.c1->filteredOut(), 0u) << "no Bloom false positive reached the host";
  EXPECT_EQ(st.bloomFalsePositives(), w.c1->filteredOut());
}

TEST(Hybrid, EdgeJoinsGroupOnFirstHostSubscriptionOnly) {
  HybridWorld w;
  w.sim.scheduleAt(0, [&]() {
    w.c1->subscribe(Name::parse("/1/1"));
    w.c1->subscribe(Name::parse("/1/2"));  // same group: no second join
  });
  w.sim.run();
  // The group RP's ST has exactly one downstream face for /1's group.
  auto& rp = dynamic_cast<copss::CopssRouter&>(w.net->node(w.routerIds[1]));
  const Name group = w.e0->groupFor(Name::parse("/1"));
  EXPECT_EQ(rp.st().matchFaces({group}).size(), 1u);
}

TEST(Hybrid, RootSubscriberJoinsEveryGroup) {
  HybridWorld w;
  std::vector<std::uint64_t> got;
  w.c1->setMulticastCallback(
      [&](const copss::MulticastPacket& m, SimTime) { got.push_back(m.seq); });
  // An empty-CD (whole world) subscription must receive from any region.
  w.sim.scheduleAt(0, [&]() { w.c1->subscribe(Name()); });
  w.sim.scheduleAt(ms(100), [&]() {
    w.c0->publish(Name::parse("/1/1"), 10, 1);
    w.c0->publish(Name::parse("/4/2"), 10, 2);
    w.c0->publish(Name::parse("/_"), 10, 3);
  });
  w.sim.run();
  EXPECT_EQ(got.size(), 3u);
}

}  // namespace
}  // namespace gcopss::test
