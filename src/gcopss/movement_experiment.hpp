#pragma once

#include <string>
#include <vector>

#include "game/movement.hpp"
#include "gcopss/broker.hpp"
#include "gcopss/experiment.hpp"

namespace gcopss::gc {

// Snapshot-retrieval strategy for players entering a new sub-world
// (Section IV-A).
enum class SnapshotMode {
  QueryResponse,    // NDN Interests, pipelined with a window
  CyclicMulticast,  // subscribe to the broker's cyclic group
};

struct MovementRunConfig {
  SimParams params = SimParams::largeScale();
  SnapshotMode mode = SnapshotMode::CyclicMulticast;
  std::size_t qrWindow = 15;
  SimTime qrRto = seconds(2);
  std::size_t numBrokers = 3;
  SnapshotBroker::BrokerOptions broker;
  std::size_t numRps = 3;
  std::uint64_t seed = 1;
  SimTime warmup = ms(500);
  SimTime safetyCap = 2 * kHour;
};

static constexpr std::size_t kNumMoveTypes = 7;

struct MovementTypeRow {
  std::string label;
  std::size_t count = 0;
  double avgLeafCds = 0.0;
  double meanMs = 0.0;
  double ci95Ms = 0.0;
};

struct MovementSummary {
  std::string label;
  std::vector<MovementTypeRow> rows;  // one per MoveType, in enum order
  std::size_t totalMoves = 0;
  double totalMeanMs = 0.0;
  double totalCi95Ms = 0.0;
  double networkGB = 0.0;
  std::uint64_t brokerObjectsSent = 0;  // cyclic emissions
  std::uint64_t qrQueriesServed = 0;
  std::uint64_t eventsExecuted = 0;
};

// Replay `bgTrace` over a G-COPSS Rocketfuel world with `numBrokers`
// snapshot brokers, executing `moves` and measuring per-move convergence
// time (move instant -> last snapshot object received), per Table III.
MovementSummary runMovementExperiment(const game::GameMap& map,
                                      const game::ObjectDatabase& baseDb,
                                      const trace::Trace& bgTrace,
                                      const std::vector<game::Move>& moves,
                                      const MovementRunConfig& cfg);

}  // namespace gcopss::gc
