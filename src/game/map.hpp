#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/name.hpp"

namespace gcopss::game {

// A position in the hierarchical game world. `area` is the map-tree node the
// player occupies: a zone name like /1/2 for a ground unit, a region name
// like /1 for a plane flying over region 1, or the root for a satellite.
struct Position {
  Name area;
  friend bool operator==(const Position&, const Position&) = default;
};

// The hierarchical game map of Section III-A. Built from per-layer fanouts
// (the paper's evaluation map is {5, 5}: world -> 5 regions -> 5 zones each).
// Every area of the world corresponds to exactly one *leaf CD*:
//   - a bottom-layer zone is its own leaf CD (/1/2);
//   - the airspace above a non-leaf area is that area's "above" leaf
//     (the paper's trailing-slash CDs: /1/ -> here /1/_ , / -> /_).
class GameMap {
 public:
  // fanouts[i] = number of children of each area at depth i.
  // {5,5} builds 1 world + 5 regions + 25 zones (31 leaf CDs).
  explicit GameMap(std::vector<std::size_t> fanouts);

  std::size_t layerCount() const { return fanouts_.size() + 1; }
  const std::vector<std::size_t>& fanouts() const { return fanouts_; }

  // All tree areas (world, regions, zones, ...), breadth-first.
  const std::vector<Name>& areas() const { return areas_; }
  // All leaf CDs: bottom-layer zones plus the above-leaf of every non-leaf
  // area (including the world's own /_).
  const std::vector<Name>& leafCds() const { return leafCds_; }

  bool isValidArea(const Name& area) const;
  // depth 0 = world, 1 = region, ...; bottom = fanouts_.size().
  std::size_t depthOf(const Name& area) const { return area.size(); }
  bool isBottomLayer(const Name& area) const { return area.size() == fanouts_.size(); }
  std::vector<Name> childrenOf(const Name& area) const;

  // The leaf CD a player at `pos` publishes to when modifying an object
  // located at area `objArea` within their view. For the player's own
  // position: publishCd(pos) == leafCdOf(pos.area).
  Name leafCdOf(const Name& area) const;

  // The CDs a player at `pos` subscribes to (Section III-B):
  //   ground unit at /1/2:  { /_, /1/_, /1/2 }
  //   plane over /1:        { /_, /1 }           (aggregated region subtree)
  //   satellite (root):     { <root> }           (the whole map)
  std::vector<Name> subscriptionsFor(const Position& pos) const;

  // The leaf CDs visible from `pos` — the expansion of subscriptionsFor
  // over the leaf-CD universe.
  std::vector<Name> visibleLeafCds(const Position& pos) const;

  // Does a subscriber at `pos` see a publication tagged with leaf CD `cd`?
  bool sees(const Position& pos, const Name& cd) const;

 private:
  void build(const Name& area, std::size_t depth);

  std::vector<std::size_t> fanouts_;
  std::vector<Name> areas_;
  std::vector<Name> leafCds_;
  std::map<Name, bool> areaSet_;
};

}  // namespace gcopss::game
