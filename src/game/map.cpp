#include "game/map.hpp"

#include <cassert>
#include <stdexcept>

namespace gcopss::game {

GameMap::GameMap(std::vector<std::size_t> fanouts) : fanouts_(std::move(fanouts)) {
  for (std::size_t f : fanouts_) {
    if (f == 0) throw std::invalid_argument("fanout must be positive");
  }
  build(Name(), 0);
}

void GameMap::build(const Name& area, std::size_t depth) {
  areas_.push_back(area);
  areaSet_[area] = true;
  if (depth == fanouts_.size()) {
    leafCds_.push_back(area);  // bottom-layer zone: its own leaf CD
    return;
  }
  leafCds_.push_back(area.aboveLeaf());  // airspace above this area
  for (std::size_t i = 1; i <= fanouts_[depth]; ++i) {
    build(area.append(std::to_string(i)), depth + 1);
  }
}

bool GameMap::isValidArea(const Name& area) const { return areaSet_.count(area) > 0; }

std::vector<Name> GameMap::childrenOf(const Name& area) const {
  std::vector<Name> out;
  const std::size_t depth = area.size();
  if (depth >= fanouts_.size()) return out;
  out.reserve(fanouts_[depth]);
  for (std::size_t i = 1; i <= fanouts_[depth]; ++i) {
    out.push_back(area.append(std::to_string(i)));
  }
  return out;
}

Name GameMap::leafCdOf(const Name& area) const {
  assert(isValidArea(area));
  return isBottomLayer(area) ? area : area.aboveLeaf();
}

std::vector<Name> GameMap::subscriptionsFor(const Position& pos) const {
  assert(isValidArea(pos.area));
  std::vector<Name> subs;
  if (pos.area.empty()) {
    // Top layer (satellite): sees the whole map. The paper writes this as a
    // subscription to "/", i.e. the full game hierarchy; we expand it to the
    // world's airspace leaf plus each top-level subtree so the subscription
    // covers exactly the game namespace (a bare-root subscription would also
    // match non-game CDs such as the brokers' /snap groups).
    subs.push_back(Name().aboveLeaf());
    for (const Name& child : childrenOf(Name())) subs.push_back(child);
    return subs;
  }
  // The "/"-leaves of every ancestor layer above the player...
  for (std::size_t len = 0; len < pos.area.size(); ++len) {
    subs.push_back(pos.area.prefix(len).aboveLeaf());
  }
  // ...plus the area the player is in. For a bottom zone that is the zone's
  // own leaf CD; for an intermediate layer the whole subtree aggregates to
  // the area prefix (the paper's /1 aggregation example).
  if (isBottomLayer(pos.area)) {
    subs.push_back(pos.area);
  } else {
    subs.push_back(pos.area);  // prefix subscription covers /1/* incl. /1/_
  }
  return subs;
}

std::vector<Name> GameMap::visibleLeafCds(const Position& pos) const {
  std::vector<Name> out;
  for (const Name& leaf : leafCds_) {
    if (sees(pos, leaf)) out.push_back(leaf);
  }
  return out;
}

bool GameMap::sees(const Position& pos, const Name& cd) const {
  for (const Name& sub : subscriptionsFor(pos)) {
    if (sub.isPrefixOf(cd)) return true;
  }
  return false;
}

}  // namespace gcopss::game
