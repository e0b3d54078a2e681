#pragma once

#include <map>
#include <set>
#include <vector>

#include "common/name.hpp"
#include "common/name_table.hpp"
#include "net/packet.hpp"

namespace gcopss::ndn {

// Forwarding Information Base: one route table keyed by interned prefix,
// holding exactly the prefixes with at least one outgoing face, with
// longest-prefix-match lookup over the world's NameTable parent chain.
class Fib {
 public:
  explicit Fib(NameTable& names) : names_(names) {}

  // Interns `prefix` if the world lacks it: the one place a run grows its
  // NameTable. Inside a parallel round that would race the other shards'
  // reads, so there an uninterned prefix throws std::logic_error; worlds
  // intern every CD they may route at setup.
  void insert(const Name& prefix, NodeId face);
  // Remove every face registered for exactly this prefix.
  void removePrefix(const Name& prefix);

  // The one LPM: walk `id`'s parent chain (deepest first) and return the
  // faces of the first prefix routed here, nullptr if none is.
  const std::set<NodeId>* lpmFaces(NameId id) const;

  // lpmFaces for a Name, resolved to its deepest interned prefix without
  // interning it (every routed prefix is interned, so the match is the
  // same). Empty vector if no prefix matches.
  std::vector<NodeId> lpm(const Name& name) const;

  // Every routed prefix that intersects `name`, sorted by Name: the prefix
  // is an ancestor-or-equal of `name`, or lies in the subtree under `name`.
  // COPSS uses this to find every RP direction a Subscribe must propagate to
  // (a subscription to /1 must reach the RPs serving /1/1, /1/2, ...).
  std::vector<Name> intersecting(const Name& name) const;

  // Every routed prefix, sorted by Name. Audit / introspection path (the
  // invariant checker enumerates all routed prefixes to build its
  // loop-freedom probe set); not used while forwarding.
  std::vector<Name> prefixes() const;

  // Number of (prefix, face) pairs.
  std::size_t entryCount() const;

 private:
  NameTable& names_;
  std::map<NameId, std::set<NodeId>> routes_;
};

}  // namespace gcopss::ndn
