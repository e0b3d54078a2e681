#include "game/objects.hpp"

#include <stdexcept>

namespace gcopss::game {

ObjectDatabase::ObjectDatabase(const GameMap& map, std::vector<std::size_t> layerCounts,
                               double lambda)
    : lambda_(lambda) {
  if (layerCounts.size() != map.layerCount()) {
    throw std::invalid_argument("need one object count per map layer");
  }
  // Collect the leaf CDs of each layer. A bottom zone /1/2 sits at layer 2 in
  // a 3-layer map; an airspace leaf /1/_ belongs to the layer of its owning
  // area /1 (depth 1); /_ is layer 0.
  std::vector<std::vector<Name>> leavesByLayer(map.layerCount());
  for (const Name& leaf : map.leafCds()) {
    const std::size_t layer = leaf.isAboveLeaf() ? leaf.size() - 1 : leaf.size();
    leavesByLayer.at(layer).push_back(leaf);
  }
  for (std::size_t layer = 0; layer < layerCounts.size(); ++layer) {
    const auto& leaves = leavesByLayer[layer];
    if (leaves.empty()) {
      if (layerCounts[layer] > 0) {
        throw std::invalid_argument("objects assigned to a layer with no leaves");
      }
      continue;
    }
    for (std::size_t i = 0; i < layerCounts[layer]; ++i) {
      const Name& leaf = leaves[i % leaves.size()];
      const auto id = static_cast<ObjectId>(objects_.size());
      objects_.push_back(GameObject{id, leaf, 0.0, 0, 0});
      byLeafCd_[leaf].push_back(id);
    }
  }
}

const std::vector<ObjectId>& ObjectDatabase::objectsIn(const Name& leafCd) const {
  static const std::vector<ObjectId> kEmpty;
  const auto it = byLeafCd_.find(leafCd);
  return it != byLeafCd_.end() ? it->second : kEmpty;
}

std::vector<ObjectId> ObjectDatabase::visibleObjects(const GameMap& map,
                                                     const Position& pos) const {
  std::vector<ObjectId> out;
  for (const Name& leaf : map.visibleLeafCds(pos)) {
    const auto& ids = objectsIn(leaf);
    out.insert(out.end(), ids.begin(), ids.end());
  }
  return out;
}

std::vector<ObjectDatabase::LayerChurn> ObjectDatabase::churnByLayer(
    const GameMap& map) const {
  std::vector<LayerChurn> out(map.layerCount());
  for (std::size_t layer = 0; layer < out.size(); ++layer) {
    out[layer] = LayerChurn{layer, 0, UINT64_MAX, 0};
  }
  for (const GameObject& obj : objects_) {
    const std::size_t layer =
        obj.leafCd.isAboveLeaf() ? obj.leafCd.size() - 1 : obj.leafCd.size();
    LayerChurn& c = out[layer];
    ++c.objects;
    c.minUpdates = std::min(c.minUpdates, obj.updateCount);
    c.maxUpdates = std::max(c.maxUpdates, obj.updateCount);
  }
  for (auto& c : out) {
    if (c.objects == 0) c.minUpdates = 0;
  }
  return out;
}

}  // namespace gcopss::game
