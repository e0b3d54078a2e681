#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/units.hpp"
#include "game/map.hpp"

namespace gcopss::game {

using ObjectId = std::uint32_t;

// A modifiable game object. Its snapshot size follows the paper's Eq. (1):
//   size(obj_vn) = sum_{i=1..n} lambda^{n-i} * size(upd_i)
// maintained incrementally as size_n = lambda * size_{n-1} + size(upd_n),
// with lambda = 0.95 in the evaluation. Version 0 ships with the map, so an
// unmodified object contributes nothing to a snapshot download.
struct GameObject {
  ObjectId id = 0;
  Name leafCd;          // the leaf CD of the area the object lives in
  double snapshotSize = 0.0;
  std::uint32_t version = 0;
  std::uint64_t updateCount = 0;

  void applyUpdate(Bytes updateSize, double lambda) {
    snapshotSize = lambda * snapshotSize + static_cast<double>(updateSize);
    ++version;
    ++updateCount;
  }

  Bytes snapshotBytes() const { return static_cast<Bytes>(snapshotSize); }
};

// The world's object inventory, distributed across leaf CDs layer by layer.
// The paper's evaluation world has 3,197 objects: 87 on the top layer, 483
// on the middle layer and 2,627 on the bottom layer.
class ObjectDatabase {
 public:
  // layerCounts[d] = total objects on layer d (0 = world airspace leaf,
  // map.layerCount()-1 = bottom zones). Distributed round-robin across the
  // leaf CDs of that layer.
  ObjectDatabase(const GameMap& map, std::vector<std::size_t> layerCounts,
                 double lambda = 0.95);

  static std::vector<std::size_t> paperLayerCounts() { return {87, 483, 2627}; }

  std::size_t totalObjects() const { return objects_.size(); }
  double lambda() const { return lambda_; }

  const GameObject& object(ObjectId id) const { return objects_.at(id); }
  GameObject& object(ObjectId id) { return objects_.at(id); }

  // Object ids living at `leafCd`.
  const std::vector<ObjectId>& objectsIn(const Name& leafCd) const;

  // Object ids a player at `pos` can see and modify.
  std::vector<ObjectId> visibleObjects(const GameMap& map, const Position& pos) const;

  void applyUpdate(ObjectId id, Bytes updateSize) {
    objects_.at(id).applyUpdate(updateSize, lambda_);
  }

  // Per-layer update-count extremes, for reproducing the Section V-B
  // object-churn statistics.
  struct LayerChurn {
    std::size_t layer;
    std::size_t objects;
    std::uint64_t minUpdates;
    std::uint64_t maxUpdates;
  };
  std::vector<LayerChurn> churnByLayer(const GameMap& map) const;

 private:
  std::vector<GameObject> objects_;
  std::map<Name, std::vector<ObjectId>> byLeafCd_;
  double lambda_;
};

}  // namespace gcopss::game
