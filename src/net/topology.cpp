#include "net/topology.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace gcopss {

namespace {

// Union-find whose roots are the smallest node id of their set.
class NodeSets {
 public:
  explicit NodeSets(std::size_t n) : parent_(n), count_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t count() const { return count_; }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }
  void unite(NodeId a, NodeId b) {
    std::size_t ra = find(static_cast<std::size_t>(a));
    std::size_t rb = find(static_cast<std::size_t>(b));
    if (ra == rb) return;
    if (rb < ra) std::swap(ra, rb);
    parent_[rb] = ra;
    --count_;
  }

 private:
  std::vector<std::size_t> parent_;
  std::size_t count_;
};

}  // namespace

std::uint64_t Topology::key(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

NodeId Topology::addNode(std::string label) {
  const auto id = static_cast<NodeId>(labels_.size());
  if (label.empty()) label = "n" + std::to_string(id);
  labels_.push_back(std::move(label));
  adjacency_.emplace_back();
  adjLinks_.emplace_back();
  return id;
}

void Topology::addLink(NodeId a, NodeId b, SimTime delay, double bandwidthBps) {
  assert(a != b);
  assert(a >= 0 && static_cast<std::size_t>(a) < labels_.size());
  assert(b >= 0 && static_cast<std::size_t>(b) < labels_.size());
  assert(!hasLink(a, b) && "duplicate link");
  links_.push_back(Link{a, b, delay, bandwidthBps});
  linkIndex_[key(a, b)] = links_.size() - 1;
  adjacency_[static_cast<std::size_t>(a)].push_back(b);
  adjacency_[static_cast<std::size_t>(b)].push_back(a);
  adjLinks_[static_cast<std::size_t>(a)].emplace_back(b, links_.size() - 1);
  adjLinks_[static_cast<std::size_t>(b)].emplace_back(a, links_.size() - 1);
  spf_.clear();
}

bool Topology::hasLink(NodeId a, NodeId b) const {
  return linkIndex_.count(key(a, b)) > 0;
}

const Topology::Link& Topology::linkBetween(NodeId a, NodeId b) const {
  if (a >= 0 && static_cast<std::size_t>(a) < adjLinks_.size()) {
    for (const auto& [nb, idx] : adjLinks_[static_cast<std::size_t>(a)]) {
      if (nb == b) return links_[idx];
    }
  }
  throw std::out_of_range("no such link");
}

std::size_t Topology::linkIndexBetween(NodeId a, NodeId b) const {
  if (a >= 0 && static_cast<std::size_t>(a) < adjLinks_.size()) {
    for (const auto& [nb, idx] : adjLinks_[static_cast<std::size_t>(a)]) {
      if (nb == b) return idx;
    }
  }
  throw std::out_of_range("no such link");
}

void Topology::setLinkBandwidth(NodeId a, NodeId b, double bps) {
  assert(bps > 0.0);
  links_[linkIndexBetween(a, b)].bandwidthBps = bps;
}

void Topology::setAllBandwidths(double bps) {
  assert(bps > 0.0);
  for (Link& l : links_) l.bandwidthBps = bps;
}

SimTime Topology::parallelLookahead() const {
  std::vector<const Link*> byDelay;
  byDelay.reserve(links_.size());
  for (const Link& l : links_) byDelay.push_back(&l);
  std::sort(byDelay.begin(), byDelay.end(),
            [](const Link* a, const Link* b) { return a->delay < b->delay; });
  // Walk the distinct delays upward; before scoring delay d, every link
  // shorter than d has been merged into the sets.
  NodeSets sets(labels_.size());
  SimTime best = 0;
  std::uint64_t bestScore = 0;
  for (std::size_t i = 0; i < byDelay.size();) {
    const SimTime d = byDelay[i]->delay;
    const std::uint64_t score = static_cast<std::uint64_t>(d) * sets.count();
    if (score > bestScore) {
      best = d;
      bestScore = score;
    }
    for (; i < byDelay.size() && byDelay[i]->delay == d; ++i) {
      sets.unite(byDelay[i]->a, byDelay[i]->b);
    }
  }
  return best;
}

std::vector<std::size_t> Topology::shortLinkComponents(SimTime lookahead) const {
  NodeSets sets(labels_.size());
  for (const Link& l : links_) {
    if (l.delay < lookahead) sets.unite(l.a, l.b);
  }
  // A root is its component's smallest id, so an ascending scan meets every
  // root before the rest of its component.
  std::vector<std::size_t> comp(labels_.size());
  std::size_t next = 0;
  for (std::size_t i = 0; i < comp.size(); ++i) {
    const std::size_t root = sets.find(i);
    comp[i] = root == i ? next++ : comp[root];
  }
  return comp;
}

const Topology::SpfTree& Topology::spfFrom(NodeId source) const {
  auto it = spf_.find(source);
  if (it != spf_.end()) return it->second;

  SpfTree tree;
  const std::size_t n = labels_.size();
  tree.dist.assign(n, std::numeric_limits<SimTime>::max());
  tree.parent.assign(n, kInvalidNode);

  using Item = std::pair<SimTime, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  tree.dist[static_cast<std::size_t>(source)] = 0;
  pq.emplace(0, source);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > tree.dist[static_cast<std::size_t>(u)]) continue;
    for (NodeId v : adjacency_[static_cast<std::size_t>(u)]) {
      const SimTime w = linkBetween(u, v).delay;
      const SimTime nd = d + w;
      if (nd < tree.dist[static_cast<std::size_t>(v)]) {
        tree.dist[static_cast<std::size_t>(v)] = nd;
        tree.parent[static_cast<std::size_t>(v)] = u;
        pq.emplace(nd, v);
      }
    }
  }
  return spf_.emplace(source, std::move(tree)).first->second;
}

NodeId Topology::nextHop(NodeId from, NodeId to) const {
  if (from == to) return from;
  // Walk the destination's parent chain in the SPF tree rooted at `from`.
  const SpfTree& tree = spfFrom(from);
  NodeId cur = to;
  if (tree.parent[static_cast<std::size_t>(cur)] == kInvalidNode) return kInvalidNode;
  while (tree.parent[static_cast<std::size_t>(cur)] != from) {
    cur = tree.parent[static_cast<std::size_t>(cur)];
    if (cur == kInvalidNode) return kInvalidNode;
  }
  return cur;
}

SimTime Topology::pathDelay(NodeId from, NodeId to) const {
  const SpfTree& tree = spfFrom(from);
  const SimTime d = tree.dist[static_cast<std::size_t>(to)];
  if (d == std::numeric_limits<SimTime>::max()) throw std::out_of_range("unreachable");
  return d;
}

}  // namespace gcopss
