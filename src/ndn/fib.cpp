#include "ndn/fib.hpp"

#include <algorithm>
#include <utility>

#include "common/thread_annotations.hpp"

namespace gcopss::ndn {
namespace {

// The deepest interned prefix of `name`, and whether that is all of `name`.
// Lookups only: a Name is never interned by being looked up here.
std::pair<NameId, bool> deepestInterned(const Name& name) {
  const auto& names = NameTable::instance();
  NameId id = kRootNameId;
  for (const auto& comp : name.components()) {
    const NameId next = names.findChild(id, comp);
    if (next == kInvalidNameId) return {id, false};
    id = next;
  }
  return {id, true};
}

}  // namespace

// Control-plane mutation (RP assignment, Subscribe propagation targets):
// never on the per-packet forwarding path, so node growth is fine here.
// The cold marker is also the gcopss-tidy hot-alloc barrier.
GCOPSS_COLD void Fib::insert(const Name& prefix, NodeId face) {
  routes_[NameTable::instance().intern(prefix)].insert(face);
}

void Fib::removePrefix(const Name& prefix) {
  routes_.erase(NameTable::instance().find(prefix));
}

GCOPSS_HOT const std::set<NodeId>* Fib::lpmFaces(NameId id) const {
  const auto& names = NameTable::instance();
  for (;;) {
    const auto it = routes_.find(id);
    if (it != routes_.end()) return &it->second;
    if (id == kRootNameId) return nullptr;
    id = names.parent(id);
  }
}

std::vector<NodeId> Fib::lpm(const Name& name) const {
  const std::set<NodeId>* faces = lpmFaces(deepestInterned(name).first);
  if (!faces) return {};
  return {faces->begin(), faces->end()};
}

std::vector<Name> Fib::intersecting(const Name& name) const {
  const auto& names = NameTable::instance();
  const auto [deepest, whole] = deepestInterned(name);
  std::vector<Name> out;
  for (const auto& route : routes_) {
    // Routed prefixes are interned, so a routed descendant of `name` can
    // exist only when all of `name` is interned.
    if (names.isPrefixOf(route.first, deepest) ||
        (whole && names.isPrefixOf(deepest, route.first))) {
      out.push_back(names.name(route.first));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Name> Fib::prefixes() const {
  const auto& names = NameTable::instance();
  std::vector<Name> out;
  out.reserve(routes_.size());
  for (const auto& route : routes_) out.push_back(names.name(route.first));
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t Fib::entryCount() const {
  std::size_t n = 0;
  for (const auto& route : routes_) n += route.second.size();
  return n;
}

}  // namespace gcopss::ndn
