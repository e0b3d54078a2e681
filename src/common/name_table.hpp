#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "common/name.hpp"

namespace gcopss {

// Dense id of an interned hierarchical name. Ids are assigned in intern
// order and are only meaningful against the NameTable that issued them.
using NameId = std::uint32_t;

inline constexpr NameId kRootNameId = 0;
inline constexpr NameId kInvalidNameId = 0xffffffffu;

// One world's name interner (each Network owns one): maps a hierarchical
// name to a dense NameId with its parent id and depth, so CD-FIB
// longest-prefix walks are integer parent-chain walks. `Name` stays the
// boundary type for everything else.
//
// Entries are never removed: a world interns its CD universe and its routed
// prefixes, a bounded set, and stable ids are what make NameIds held by
// routes and packets safe.
//
// Threading: a plain value with no lock. It is grown only from sequential
// context (world setup, the global lane, serial runs); ndn::Fib::insert, the
// one appender inside a run, refuses to grow it inside a parallel round. So
// no append ever overlaps a read, and ids are a pure function of the world.
class NameTable {
 public:
  NameTable();
  NameTable(const NameTable&) = delete;
  NameTable& operator=(const NameTable&) = delete;

  // Intern (find-or-create) and return the id.
  NameId intern(const Name& name);

  // The deepest interned prefix of `name` (kRootNameId at worst); all of
  // `name` is interned iff depth(deepest(name)) == name.size(). Never interns.
  NameId deepest(const Name& name) const;

  NameId parent(NameId id) const { return entry(id).parent; }
  std::uint32_t depth(NameId id) const { return entry(id).depth; }

  // True iff `a` names a (non-strict) prefix of `b`: walk b's parent chain.
  bool isPrefixOf(NameId a, NameId b) const;

  // Materialize back into the boundary type.
  Name name(NameId id) const;

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    NameId parent = kInvalidNameId;
    std::uint32_t depth = 0;
    std::string component;  // last component; "" for the root
  };

  const Entry& entry(NameId id) const {
    assert(id < entries_.size() && "NameId out of range");
    return entries_[id];
  }

  // Exact child lookup keyed (parent id, component). Heterogeneous hash/eq
  // so probes take a string_view without building a std::string.
  struct ChildKey {
    NameId parent;
    std::string component;
  };
  struct ChildProbe {
    NameId parent;
    std::string_view component;
  };
  struct ChildHash {
    using is_transparent = void;
    std::size_t operator()(const ChildKey& k) const {
      return static_cast<std::size_t>(mix64(fnv1a64(k.component) ^ k.parent));
    }
    std::size_t operator()(const ChildProbe& k) const {
      return static_cast<std::size_t>(mix64(fnv1a64(k.component) ^ k.parent));
    }
  };
  struct ChildEq {
    using is_transparent = void;
    static std::pair<NameId, std::string_view> view(const ChildKey& k) {
      return {k.parent, k.component};
    }
    static std::pair<NameId, std::string_view> view(const ChildProbe& k) {
      return {k.parent, k.component};
    }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return view(a) == view(b);
    }
  };

  std::vector<Entry> entries_;  // indexed by NameId; entry 0 is the root
  std::unordered_map<ChildKey, NameId, ChildHash, ChildEq> children_;
};

}  // namespace gcopss
