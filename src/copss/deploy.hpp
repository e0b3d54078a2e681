#pragma once

#include <map>
#include <vector>

#include "common/name.hpp"
#include "net/network.hpp"

namespace gcopss::copss {

// A prefix-free assignment of CD prefixes to RP routers (Section III-B):
// no assigned prefix may be a strict prefix of another, so every publication
// has exactly one responsible RP.
struct RpAssignment {
  std::map<Name, NodeId> prefixToRp;

  // Throws std::invalid_argument if two assigned prefixes are nested.
  void validatePrefixFree() const;
};

// Partition `leafCds` across `rpNodes` so per-RP expected load (sum of
// weights) is balanced: greedy longest-processing-time assignment. Weights
// default to 1.0 when missing.
RpAssignment buildBalancedAssignment(const std::vector<Name>& leafCds,
                                     const std::map<Name, double>& weights,
                                     const std::vector<NodeId>& rpNodes);

// Install the assignment on every CopssRouter in `routerIds`: the RP gets a
// local-face FIB entry (becomeRp), everyone else a next-hop entry along the
// min-delay path toward the RP.
void installAssignment(Network& net, const std::vector<NodeId>& routerIds,
                       const RpAssignment& assignment);

}  // namespace gcopss::copss
