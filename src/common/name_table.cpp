#include "common/name_table.hpp"

namespace gcopss {

NameTable::NameTable() {
  entries_.push_back(Entry{kInvalidNameId, 0, ""});  // the root (empty) name
}

NameId NameTable::intern(const Name& name) {
  NameId id = kRootNameId;
  for (const std::string& c : name.components()) {
    if (const auto it = children_.find(ChildProbe{id, c}); it != children_.end()) {
      id = it->second;
      continue;
    }
    const auto next = static_cast<NameId>(entries_.size());
    entries_.push_back(Entry{id, entry(id).depth + 1, c});
    children_.emplace(ChildKey{id, c}, next);
    id = next;
  }
  return id;
}

NameId NameTable::deepest(const Name& name) const {
  NameId id = kRootNameId;
  for (const std::string& c : name.components()) {
    const auto it = children_.find(ChildProbe{id, c});
    if (it == children_.end()) break;
    id = it->second;
  }
  return id;
}

bool NameTable::isPrefixOf(NameId a, NameId b) const {
  const std::uint32_t da = entry(a).depth;
  if (da > entry(b).depth) return false;
  while (entry(b).depth > da) b = entry(b).parent;
  return a == b;
}

Name NameTable::name(NameId id) const {
  std::vector<std::string> comps(depth(id));
  for (std::size_t i = comps.size(); i > 0; id = entry(id).parent) {
    comps[--i] = entry(id).component;
  }
  return Name(std::move(comps));
}

}  // namespace gcopss
