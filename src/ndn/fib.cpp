#include "ndn/fib.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/thread_annotations.hpp"
#include "des/parallel.hpp"

namespace gcopss::ndn {

// Control-plane mutation (RP assignment, Subscribe propagation targets):
// never on the per-packet forwarding path, so node growth is fine here.
// The cold marker is also the gcopss-tidy hot-alloc barrier.
GCOPSS_COLD void Fib::insert(const Name& prefix, NodeId face) {
  if (names_.depth(names_.deepest(prefix)) != prefix.size() &&
      ParallelSimulator::currentShard() != ParallelSimulator::kNoShard) {
    throw std::logic_error("route for " + prefix.toString() +
                           " added inside a parallel round, but the world never "
                           "interned that prefix: intern it at setup");
  }
  routes_[names_.intern(prefix)].insert(face);
}

void Fib::removePrefix(const Name& prefix) {
  const NameId id = names_.deepest(prefix);
  if (names_.depth(id) == prefix.size()) routes_.erase(id);
}

GCOPSS_HOT const std::set<NodeId>* Fib::lpmFaces(NameId id) const {
  for (;;) {
    const auto it = routes_.find(id);
    if (it != routes_.end()) return &it->second;
    if (id == kRootNameId) return nullptr;
    id = names_.parent(id);
  }
}

std::vector<NodeId> Fib::lpm(const Name& name) const {
  const std::set<NodeId>* faces = lpmFaces(names_.deepest(name));
  if (!faces) return {};
  return {faces->begin(), faces->end()};
}

std::vector<Name> Fib::intersecting(const Name& name) const {
  const NameId deepest = names_.deepest(name);
  // Routed prefixes are interned, so a routed descendant of `name` can
  // exist only when all of `name` is interned.
  const bool whole = names_.depth(deepest) == name.size();
  std::vector<Name> out;
  for (const auto& route : routes_) {
    if (names_.isPrefixOf(route.first, deepest) ||
        (whole && names_.isPrefixOf(deepest, route.first))) {
      out.push_back(names_.name(route.first));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Name> Fib::prefixes() const {
  std::vector<Name> out;
  out.reserve(routes_.size());
  for (const auto& route : routes_) out.push_back(names_.name(route.first));
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t Fib::entryCount() const {
  std::size_t n = 0;
  for (const auto& route : routes_) n += route.second.size();
  return n;
}

}  // namespace gcopss::ndn
