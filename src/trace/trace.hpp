#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "game/map.hpp"
#include "game/objects.hpp"

namespace gcopss::trace {

// One publish event: {time, player, CD, content} as in Section V-A, plus the
// concrete object modified (used by the snapshot/broker experiments).
struct TraceRecord {
  SimTime time = 0;
  std::uint32_t playerId = 0;
  Name cd;                 // leaf CD of the modified object's area
  game::ObjectId objectId = 0;
  Bytes size = 0;          // publication payload bytes
};

struct Trace {
  std::vector<TraceRecord> records;
  std::vector<game::Position> playerPositions;  // index = playerId
  SimTime duration = 0;
};

// ---- Section V-A testbed microbenchmark trace ----
// 62 players, 2 per area, each publishing with a fixed per-player period
// drawn uniformly from [periodMin, periodMax]; ~12k events over one minute;
// publication sizes uniform in [sizeMin, sizeMax].
struct MicrobenchTraceConfig {
  std::size_t playersPerArea = 2;
  SimTime duration = seconds(60);
  SimTime periodMin = ms(150);
  SimTime periodMax = ms(500);
  Bytes sizeMin = 50;
  Bytes sizeMax = 350;
  std::uint64_t seed = 7;
};

Trace generateMicrobenchTrace(const game::GameMap& map, const game::ObjectDatabase& db,
                              const MicrobenchTraceConfig& cfg);

// ---- Section V-B synthetic Counter-Strike trace ----
// Reproduces the published aggregate statistics of the filtered CS trace:
// 414 players spread 4-20 per area (Fig 3d), heavy-tailed per-player update
// counts (Fig 3c), ~1.69M updates at a ~2.4ms aggregate inter-arrival,
// publication sizes 50-350 B, updates assigned uniformly over the objects
// each player can see. An optional hot-spot phase concentrates a share of
// the traffic into chosen regions after a given fraction of the run
// (drives Fig 5's traffic-concentration results).
struct CsTraceConfig {
  std::size_t players = 414;
  std::size_t totalUpdates = 100000;
  SimTime meanInterArrival = usF(2400);  // aggregate, sets the duration
  std::size_t playersPerAreaMin = 4;
  std::size_t playersPerAreaMax = 20;
  Bytes sizeMin = 50;
  Bytes sizeMax = 350;

  // Hot spot: after `hotspotStartFrac` of the updates, each update is
  // redirected with probability `hotShare` onto the objects under one of
  // `hotAreas` (textual area prefix -> weight) — a flash crowd converging on
  // those areas. 1.0 disables the phase. The default models the paper's
  // "a lot of players in one area": a single zone turns hot.
  double hotspotStartFrac = 1.0;
  double hotShare = 0.55;
  std::vector<std::pair<std::string, double>> hotAreas = {{"/1/1", 1.0}};

  std::uint64_t seed = 42;
};

Trace generateCsTrace(const game::GameMap& map, const game::ObjectDatabase& db,
                      const CsTraceConfig& cfg);

// Assign `players` across every area of the map with per-area counts in
// [minPerArea, maxPerArea] (Fig 3d's 4-20 players per area).
std::vector<game::Position> assignPlayersToAreas(const game::GameMap& map, Rng& rng,
                                                 std::size_t players,
                                                 std::size_t minPerArea,
                                                 std::size_t maxPerArea);

// ---- Fig 3c / 3d statistics ----
struct TraceStats {
  std::vector<std::uint64_t> updatesPerPlayer;        // index = playerId
  std::vector<std::pair<Name, std::size_t>> playersPerArea;
  std::vector<std::pair<Name, std::size_t>> objectsPerArea;  // by leaf CD
};
TraceStats computeStats(const game::GameMap& map, const game::ObjectDatabase& db,
                        const Trace& trace);

}  // namespace gcopss::trace
