#include "copss/deploy.hpp"

#include <algorithm>
#include <stdexcept>

#include "copss/router.hpp"

namespace gcopss::copss {

void RpAssignment::validatePrefixFree() const {
  // prefixToRp is ordered; a nested pair must be adjacent in lexicographic
  // component order only if one is a prefix of the next, but deep nesting can
  // skip; do the O(n^2) check — assignments are small.
  for (auto it = prefixToRp.begin(); it != prefixToRp.end(); ++it) {
    for (auto jt = std::next(it); jt != prefixToRp.end(); ++jt) {
      if (it->first.isStrictPrefixOf(jt->first) ||
          jt->first.isStrictPrefixOf(it->first)) {
        throw std::invalid_argument("RP assignment not prefix-free: " +
                                    it->first.toString() + " vs " +
                                    jt->first.toString());
      }
    }
  }
}

RpAssignment buildBalancedAssignment(const std::vector<Name>& leafCds,
                                     const std::map<Name, double>& weights,
                                     const std::vector<NodeId>& rpNodes) {
  if (rpNodes.empty()) throw std::invalid_argument("need at least one RP node");
  RpAssignment out;
  if (rpNodes.size() == 1) {
    // A single RP can serve the whole hierarchy with one root entry.
    out.prefixToRp[Name()] = rpNodes.front();
    return out;
  }
  std::vector<std::pair<Name, double>> items;
  items.reserve(leafCds.size());
  for (const Name& cd : leafCds) {
    const auto it = weights.find(cd);
    items.emplace_back(cd, it != weights.end() ? it->second : 1.0);
  }
  std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<double> load(rpNodes.size(), 0.0);
  for (const auto& [cd, w] : items) {
    const auto bin = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    out.prefixToRp[cd] = rpNodes[bin];
    load[bin] += w;
  }
  out.validatePrefixFree();
  return out;
}

void installAssignment(Network& net, const std::vector<NodeId>& routerIds,
                       const RpAssignment& assignment) {
  assignment.validatePrefixFree();
  Topology& topo = net.topology();
  for (NodeId r : routerIds) {
    auto& router = dynamic_cast<CopssRouter&>(net.node(r));
    for (const auto& [prefix, rp] : assignment.prefixToRp) {
      // The deployed assignment is ownership epoch 1, and every router knows
      // it (deployment is out-of-band global knowledge): later claims — RP
      // splits, failover takeovers — must mint epoch >= 2 to win the prefix.
      if (r == rp) {
        router.becomeRp(prefix, 1);
      } else {
        const NodeId next = topo.nextHop(r, rp);
        if (next == kInvalidNode) throw std::runtime_error("RP unreachable");
        router.addCdRoute(prefix, next);
        router.observeEpoch(prefix, 1);
      }
    }
  }
}

}  // namespace gcopss::copss
