#include "trace/trace.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>

namespace gcopss::trace {

using game::GameMap;
using game::ObjectDatabase;
using game::ObjectId;
using game::Position;

namespace {

// Lognormal sigma of the per-player publish rates (Fig. 3c's heavy tail).
constexpr double kRateSigma = 1.0;

}  // namespace

std::vector<Position> assignPlayersToAreas(const GameMap& map, Rng& rng,
                                           std::size_t players, std::size_t minPerArea,
                                           std::size_t maxPerArea) {
  const auto& areas = map.areas();
  if (players < areas.size() * minPerArea) {
    // Small configurations (tests, examples): spread round-robin instead.
    std::vector<Position> out;
    out.reserve(players);
    for (std::size_t i = 0; i < players; ++i) out.push_back(Position{areas[i % areas.size()]});
    return out;
  }
  // Draw a count per area in [min,max], then rescale to hit the exact total
  // while staying inside the bounds.
  std::vector<std::size_t> counts(areas.size());
  std::size_t total = 0;
  for (auto& c : counts) {
    c = static_cast<std::size_t>(rng.uniformInt(static_cast<std::int64_t>(minPerArea),
                                                static_cast<std::int64_t>(maxPerArea)));
    total += c;
  }
  // Adjust by +-1 steps on random areas until the total matches.
  while (total != players) {
    const auto i = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(areas.size()) - 1));
    if (total < players && counts[i] < maxPerArea) {
      ++counts[i];
      ++total;
    } else if (total > players && counts[i] > minPerArea) {
      --counts[i];
      --total;
    }
  }
  std::vector<Position> out;
  out.reserve(players);
  for (std::size_t i = 0; i < areas.size(); ++i) {
    for (std::size_t k = 0; k < counts[i]; ++k) out.push_back(Position{areas[i]});
  }
  return out;
}

Trace generateMicrobenchTrace(const GameMap& map, const ObjectDatabase& db,
                              const MicrobenchTraceConfig& cfg) {
  Rng rng(cfg.seed);
  Trace out;
  out.duration = cfg.duration;
  for (const Name& area : map.areas()) {
    for (std::size_t k = 0; k < cfg.playersPerArea; ++k) {
      out.playerPositions.push_back(Position{area});
    }
  }
  // Pre-expand each player's visible object set once.
  std::map<Name, std::vector<ObjectId>> visibleCache;
  for (std::size_t p = 0; p < out.playerPositions.size(); ++p) {
    const Position& pos = out.playerPositions[p];
    auto it = visibleCache.find(pos.area);
    if (it == visibleCache.end()) {
      it = visibleCache.emplace(pos.area, db.visibleObjects(map, pos)).first;
    }
    const auto& visible = it->second;
    assert(!visible.empty());
    const SimTime period = rng.uniformInt(cfg.periodMin, cfg.periodMax);
    SimTime t = rng.uniformInt(0, period);  // random phase
    while (t < cfg.duration) {
      TraceRecord rec;
      rec.time = t;
      rec.playerId = static_cast<std::uint32_t>(p);
      rec.objectId = visible[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(visible.size()) - 1))];
      rec.cd = db.object(rec.objectId).leafCd;
      rec.size = static_cast<Bytes>(
          rng.uniformInt(static_cast<std::int64_t>(cfg.sizeMin),
                         static_cast<std::int64_t>(cfg.sizeMax)));
      out.records.push_back(std::move(rec));
      t += period;
    }
  }
  std::sort(out.records.begin(), out.records.end(),
            [](const TraceRecord& a, const TraceRecord& b) { return a.time < b.time; });
  return out;
}

Trace generateCsTrace(const GameMap& map, const ObjectDatabase& db,
                      const CsTraceConfig& cfg) {
  Rng rng(cfg.seed);
  Trace out;
  out.duration = cfg.meanInterArrival * static_cast<SimTime>(cfg.totalUpdates);
  out.playerPositions = assignPlayersToAreas(map, rng, cfg.players,
                                             cfg.playersPerAreaMin, cfg.playersPerAreaMax);

  // Heavy-tailed per-player publish rates (Fig 3c): lognormal weights,
  // normalised so the aggregate rate hits 1 / meanInterArrival.
  std::vector<double> weight(cfg.players);
  double weightSum = 0.0;
  for (auto& w : weight) {
    w = rng.lognormal(0.0, kRateSigma);
    weightSum += w;
  }
  const double aggregateRate = 1.0 / static_cast<double>(cfg.meanInterArrival);  // per ns

  std::map<Name, std::vector<ObjectId>> visibleCache;
  auto visibleFor = [&](const Position& pos) -> const std::vector<ObjectId>& {
    auto it = visibleCache.find(pos.area);
    if (it == visibleCache.end()) {
      it = visibleCache.emplace(pos.area, db.visibleObjects(map, pos)).first;
    }
    return it->second;
  };

  // Hot-spot leaf pools: all leaf CDs under each hot region, weighted by
  // object count (players crowding a region touch its objects).
  struct HotPool {
    double weight;
    std::vector<ObjectId> objects;
  };
  std::vector<HotPool> hotPools;
  for (const auto& [areaLabel, w] : cfg.hotAreas) {
    HotPool pool;
    pool.weight = w;
    const Name area = Name::parse(areaLabel);
    for (const Name& leaf : map.leafCds()) {
      if (area.isPrefixOf(leaf)) {
        const auto& ids = db.objectsIn(leaf);
        pool.objects.insert(pool.objects.end(), ids.begin(), ids.end());
      }
    }
    if (pool.objects.empty()) throw std::invalid_argument("hot region has no objects");
    hotPools.push_back(std::move(pool));
  }
  std::vector<double> hotWeights;
  for (const auto& p : hotPools) hotWeights.push_back(p.weight);

  const SimTime hotspotStart =
      static_cast<SimTime>(cfg.hotspotStartFrac * static_cast<double>(out.duration));

  // Generate per-player Poisson arrivals, then merge.
  out.records.reserve(cfg.totalUpdates + cfg.totalUpdates / 8);
  for (std::size_t p = 0; p < cfg.players; ++p) {
    const double rate = aggregateRate * weight[p] / weightSum;  // events per ns
    if (rate <= 0.0) continue;
    const double meanGap = 1.0 / rate;
    Rng prng = rng.fork();
    SimTime t = static_cast<SimTime>(prng.exponential(meanGap));
    const auto& visible = visibleFor(out.playerPositions[p]);
    while (t < out.duration) {
      TraceRecord rec;
      rec.time = t;
      rec.playerId = static_cast<std::uint32_t>(p);
      const bool hot = t >= hotspotStart && !hotPools.empty() && prng.bernoulli(cfg.hotShare);
      if (hot) {
        const auto& pool = hotPools[prng.weightedIndex(hotWeights)];
        rec.objectId = pool.objects[static_cast<std::size_t>(
            prng.uniformInt(0, static_cast<std::int64_t>(pool.objects.size()) - 1))];
      } else {
        rec.objectId = visible[static_cast<std::size_t>(
            prng.uniformInt(0, static_cast<std::int64_t>(visible.size()) - 1))];
      }
      rec.cd = db.object(rec.objectId).leafCd;
      rec.size = static_cast<Bytes>(
          prng.uniformInt(static_cast<std::int64_t>(cfg.sizeMin),
                          static_cast<std::int64_t>(cfg.sizeMax)));
      out.records.push_back(std::move(rec));
      t += static_cast<SimTime>(prng.exponential(meanGap));
    }
  }
  std::sort(out.records.begin(), out.records.end(),
            [](const TraceRecord& a, const TraceRecord& b) { return a.time < b.time; });
  if (out.records.size() > cfg.totalUpdates) {
    out.records.resize(cfg.totalUpdates);
    out.duration = out.records.back().time + 1;
  }
  return out;
}

TraceStats computeStats(const GameMap& map, const ObjectDatabase& db, const Trace& trace) {
  TraceStats stats;
  stats.updatesPerPlayer.assign(trace.playerPositions.size(), 0);
  for (const TraceRecord& rec : trace.records) {
    if (rec.playerId < stats.updatesPerPlayer.size()) ++stats.updatesPerPlayer[rec.playerId];
  }
  std::map<Name, std::size_t> playerCounts;
  for (const auto& pos : trace.playerPositions) ++playerCounts[pos.area];
  for (const Name& area : map.areas()) {
    stats.playersPerArea.emplace_back(area, playerCounts[area]);
    stats.objectsPerArea.emplace_back(map.leafCdOf(area),
                                      db.objectsIn(map.leafCdOf(area)).size());
  }
  return stats;
}

}  // namespace gcopss::trace
