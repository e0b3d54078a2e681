#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "net/topo_factory.hpp"
#include "net/topology.hpp"

namespace gcopss::test {
namespace {

TEST(Topology, ShortestPathPicksLowerDelay) {
  Topology t;
  const NodeId a = t.addNode(), b = t.addNode(), c = t.addNode();
  t.addLink(a, b, ms(10));
  t.addLink(b, c, ms(10));
  t.addLink(a, c, ms(50));
  // a->c via b (20ms) beats the direct 50ms link.
  EXPECT_EQ(t.nextHop(a, c), b);
  EXPECT_EQ(t.pathDelay(a, c), ms(20));
}

TEST(Topology, PathEndpoints) {
  Topology t;
  const NodeId a = t.addNode(), b = t.addNode(), c = t.addNode();
  t.addLink(a, b, ms(1));
  t.addLink(b, c, ms(1));
  // Walking next hops from a reaches c; a node is its own next hop.
  EXPECT_EQ(t.nextHop(a, c), b);
  EXPECT_EQ(t.nextHop(b, c), c);
  EXPECT_EQ(t.nextHop(a, a), a);
}

TEST(Topology, UnreachableReported) {
  Topology t;
  const NodeId a = t.addNode(), b = t.addNode();
  (void)b;
  EXPECT_EQ(t.nextHop(a, b), kInvalidNode);
  EXPECT_THROW(t.pathDelay(a, b), std::out_of_range);
}

TEST(Topology, SpfAgainstBruteForce) {
  // Random graph; verify Dijkstra distances against Bellman-Ford.
  Rng rng(7);
  Topology t;
  const std::size_t n = 24;
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < n; ++i) nodes.push_back(t.addNode());
  for (std::size_t i = 1; i < n; ++i) {
    t.addLink(nodes[i], nodes[rng.uniformInt(0, static_cast<std::int64_t>(i) - 1)],
              ms(rng.uniformInt(1, 9)));
  }
  for (int e = 0; e < 20; ++e) {
    const auto a = static_cast<std::size_t>(rng.uniformInt(0, n - 1));
    const auto b = static_cast<std::size_t>(rng.uniformInt(0, n - 1));
    if (a != b && !t.hasLink(nodes[a], nodes[b])) {
      t.addLink(nodes[a], nodes[b], ms(rng.uniformInt(1, 9)));
    }
  }
  // Bellman-Ford from node 0.
  std::vector<SimTime> dist(n, INT64_MAX);
  dist[0] = 0;
  for (std::size_t it = 0; it < n; ++it) {
    for (std::size_t u = 0; u < n; ++u) {
      if (dist[u] == INT64_MAX) continue;
      for (NodeId v : t.neighbors(nodes[u])) {
        const SimTime w = t.linkBetween(nodes[u], v).delay;
        auto& dv = dist[static_cast<std::size_t>(v)];
        if (dist[u] + w < dv) dv = dist[u] + w;
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(t.pathDelay(nodes[0], nodes[v]), dist[v]) << "node " << v;
  }
}

TEST(Topology, NextHopLiesOnShortestPath) {
  Rng rng(9);
  Topology t;
  const auto rf = makeRocketfuelLike(t, rng, 30, 1);
  for (int trial = 0; trial < 50; ++trial) {
    const NodeId from = rf.core[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(rf.core.size()) - 1))];
    const NodeId to = rf.edge[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(rf.edge.size()) - 1))];
    if (from == to) continue;
    const NodeId nh = t.nextHop(from, to);
    ASSERT_NE(nh, kInvalidNode);
    EXPECT_EQ(t.pathDelay(from, to),
              t.linkBetween(from, nh).delay + t.pathDelay(nh, to));
  }
}

// Four routers in a ring of 5 ms links, except one 2 ms link between r1
// and r2; each router has two hosts at 1 ms. Candidate lookaheads:
//   1 ms: no shorter link, 12 singletons            -> score 12
//   2 ms: host links uncut, 4 router+hosts groups   -> score  8
//   5 ms: the 2 ms link joins r1 and r2, 3 groups   -> score 15
TEST(Topology, ParallelLookaheadKeepsShortLinksInOneComponent) {
  Topology t;
  std::vector<NodeId> r;
  for (int i = 0; i < 4; ++i) r.push_back(t.addNode());
  t.addLink(r[0], r[1], ms(5));
  t.addLink(r[1], r[2], ms(2));
  t.addLink(r[2], r[3], ms(5));
  t.addLink(r[3], r[0], ms(5));
  std::vector<NodeId> hostOf;  // router index per host, in id order
  for (std::size_t i = 0; i < 4; ++i) {
    for (int h = 0; h < 2; ++h) {
      t.addLink(t.addNode(), r[i], ms(1));
      hostOf.push_back(static_cast<NodeId>(i));
    }
  }

  EXPECT_EQ(t.parallelLookahead(), ms(5));
  // Numbered by smallest node id: {r0}, {r1, r2}, {r3}, each with its hosts.
  const std::vector<std::size_t> groupOfRouter = {0, 1, 1, 2};
  const auto comp = t.shortLinkComponents(ms(5));
  ASSERT_EQ(comp.size(), 12u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(comp[i], groupOfRouter[i]) << "r" << i;
  for (std::size_t h = 0; h < hostOf.size(); ++h) {
    EXPECT_EQ(comp[4 + h], groupOfRouter[static_cast<std::size_t>(hostOf[h])]) << "host " << h;
  }
  for (const Topology::Link& l : t.links()) {
    if (l.delay < ms(5)) {
      EXPECT_EQ(comp[static_cast<std::size_t>(l.a)], comp[static_cast<std::size_t>(l.b)]);
    }
  }
  // At 2 ms every router keeps only its own hosts.
  const auto byRouter = t.shortLinkComponents(ms(2));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(byRouter[i], i);
  for (std::size_t h = 0; h < hostOf.size(); ++h) {
    EXPECT_EQ(byRouter[4 + h], static_cast<std::size_t>(hostOf[h]));
  }
}

TEST(Topology, UniformDelayLookaheadIsTheDelayWithSingletons) {
  Topology t;
  for (int i = 0; i < 5; ++i) t.addNode();
  for (NodeId i = 0; i + 1 < 5; ++i) t.addLink(i, i + 1, ms(3));
  EXPECT_EQ(t.parallelLookahead(), ms(3));
  EXPECT_EQ(t.shortLinkComponents(ms(3)), (std::vector<std::size_t>{0, 1, 2, 3, 4}));

  Topology empty;
  empty.addNode();
  EXPECT_EQ(empty.parallelLookahead(), 0);
}

TEST(TopoFactory, BenchmarkTopologyIsTheFig3bChain) {
  Topology t;
  const auto bench = makeBenchmarkTopology(t);
  ASSERT_EQ(bench.routers.size(), 6u);
  EXPECT_EQ(t.linkCount(), 5u);  // a chain
  // R1 (index 0) reaches every other router.
  for (NodeId r : bench.routers) {
    EXPECT_NE(t.nextHop(bench.routers[0], r) == kInvalidNode && r != bench.routers[0],
              true);
  }
}

TEST(TopoFactory, RocketfuelShape) {
  Rng rng(5);
  Topology t;
  const auto rf = makeRocketfuelLike(t, rng);
  EXPECT_EQ(rf.core.size(), 79u);    // Rocketfuel 3967 backbone size
  EXPECT_EQ(rf.edge.size(), 158u);   // 2 edge routers per core
  // Connected: every edge reaches every other edge.
  for (std::size_t i = 0; i < rf.edge.size(); i += 37) {
    EXPECT_NE(t.nextHop(rf.edge[i], rf.edge[0]) , kInvalidNode);
  }
  // Core link delays within the published 1-20ms range; edges at 5ms.
  for (NodeId e : rf.edge) {
    const NodeId core = t.neighbors(e).front();
    EXPECT_EQ(t.linkBetween(e, core).delay, ms(5));
  }
}

TEST(TopoFactory, HostsSpreadUniformly) {
  Rng rng(6);
  Topology t;
  const auto rf = makeRocketfuelLike(t, rng, 10, 2);
  const auto hosts = attachHosts(t, rf.edge, 100, rng);
  ASSERT_EQ(hosts.size(), 100u);
  std::map<NodeId, int> perEdge;
  for (NodeId h : hosts) ++perEdge[t.neighbors(h).front()];
  for (const auto& [edge, count] : perEdge) {
    (void)edge;
    EXPECT_EQ(count, 5);  // 100 hosts / 20 edges exactly
  }
}

}  // namespace
}  // namespace gcopss::test
