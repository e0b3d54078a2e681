#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "net/packet.hpp"

namespace gcopss {

// An undirected weighted graph of nodes and links. Link weight (= propagation
// delay) drives shortest-path routing, which every protocol stack in this
// repo shares: NDN FIB population, COPSS RP paths and IP unicast all follow
// the same SPF next-hop tables, as in the paper's simulator.
class Topology {
 public:
  struct Link {
    NodeId a = kInvalidNode;
    NodeId b = kInvalidNode;
    SimTime delay = 0;
    double bandwidthBps = 1e9;
  };

  NodeId addNode(std::string label = {});
  void addLink(NodeId a, NodeId b, SimTime delay, double bandwidthBps = 1e9);

  std::size_t nodeCount() const { return labels_.size(); }
  std::size_t linkCount() const { return links_.size(); }
  const std::string& label(NodeId n) const { return labels_.at(static_cast<std::size_t>(n)); }

  bool hasLink(NodeId a, NodeId b) const;
  const Link& linkBetween(NodeId a, NodeId b) const;
  // Index of the (a, b) link into links() — the stable handle face queues
  // key on. Same adjacency scan as linkBetween; throws if absent.
  std::size_t linkIndexBetween(NodeId a, NodeId b) const;
  const std::vector<Link>& links() const { return links_; }
  // Retune link capacity after construction (delay-based routing is
  // unaffected, so no route invalidation is needed).
  void setLinkBandwidth(NodeId a, NodeId b, double bps);
  void setAllBandwidths(double bps);
  // The parallel engine's lookahead L, chosen from this graph's own delays.
  // A delivery over a link shorter than L stays inside one shard, so the
  // shard partition deals out the connected components of the graph of
  // links with delay < L and never cuts such a link. Rounds per simulated
  // second fall as 1/L, and the components are the units the shards share
  // out; among the distinct link delays, L maximises L x (component count).
  // Ties go to the smaller delay. A uniform-delay graph gets its one delay
  // with every node a component of its own. 0 on a graph with no links.
  SimTime parallelLookahead() const;
  // Component index per node in the graph of links with delay < `lookahead`,
  // numbered in ascending order of each component's smallest node id.
  std::vector<std::size_t> shortLinkComponents(SimTime lookahead) const;
  const std::vector<NodeId>& neighbors(NodeId n) const {
    return adjacency_.at(static_cast<std::size_t>(n));
  }
  // Per-node (neighbor, links() index) pairs — the data-path adjacency view
  // Network uses to walk a node's outgoing faces without hash probes.
  const std::vector<std::pair<NodeId, std::size_t>>& adjacentLinks(NodeId n) const {
    return adjLinks_.at(static_cast<std::size_t>(n));
  }

  // Next hop from `from` toward `to` along the min-delay path. Computes and
  // caches one SPF tree per source on demand.
  NodeId nextHop(NodeId from, NodeId to) const;
  SimTime pathDelay(NodeId from, NodeId to) const;

  // Drop all cached SPF state (call after mutating the graph).
  void invalidateRoutes() { spf_.clear(); }

 private:
  struct SpfTree {
    std::vector<SimTime> dist;
    std::vector<NodeId> parent;  // parent[v] = previous hop on path source->v
  };
  const SpfTree& spfFrom(NodeId source) const;

  std::vector<std::string> labels_;
  std::vector<Link> links_;
  std::vector<std::vector<NodeId>> adjacency_;
  // (a,b) -> index into links_, a < b
  std::unordered_map<std::uint64_t, std::size_t> linkIndex_;
  // Per-node (neighbor, links_ index): the data-path link lookup is a linear
  // scan of a node's few adjacent links instead of a hash probe.
  std::vector<std::vector<std::pair<NodeId, std::size_t>>> adjLinks_;
  mutable std::unordered_map<NodeId, SpfTree> spf_;

  static std::uint64_t key(NodeId a, NodeId b);
};

}  // namespace gcopss
