#include "workloads.hpp"

#include <chrono>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "des/simulator.hpp"
#include "gcopss/client.hpp"
#include "net/network.hpp"

namespace perfbench {

using namespace gcopss;

namespace {

constexpr std::size_t kPlayers = 400;

const std::vector<Workload>& all() {
  static const std::vector<Workload> kAll = {
      {"fig6_static", 0, false, 10},
      {"fig6_static_t4", 4, false, 10},
      {"hotspot_churn", 0, true, 20},
  };
  return kAll;
}

}  // namespace

bool findWorkload(const std::string& name, Workload& out) {
  for (const Workload& w : all()) {
    if (w.name == name) {
      out = w;
      return true;
    }
  }
  return false;
}

Inputs makeInputs(const Workload& w, std::uint64_t seed) {
  const auto t0 = std::chrono::steady_clock::now();
  game::GameMap map({5, 5});
  game::ObjectDatabase db(map, game::ObjectDatabase::paperLayerCounts());

  // Fig. 6's 400-player point: the CS trace's aggregate rate scaled from its
  // 414 players, for w.simSeconds of traffic.
  trace::CsTraceConfig tcfg;
  tcfg.players = kPlayers;
  tcfg.meanInterArrival = static_cast<SimTime>(usF(2400) * 414.0 / kPlayers);
  tcfg.totalUpdates = static_cast<std::size_t>(seconds(w.simSeconds) / tcfg.meanInterArrival);
  tcfg.seed = mix64(seed ^ 0x7261636554726163ULL);
  if (w.churn) tcfg.hotspotStartFrac = 0.5;
  trace::Trace trace = trace::generateCsTrace(map, db, tcfg);

  std::vector<game::Move> moves;
  if (w.churn) {
    // The paper's 5-35 minute residence times, compressed to 2-10 s so a
    // short run sees a steady stream of area changes.
    game::MovementConfig mcfg;
    mcfg.minInterval = seconds(2);
    mcfg.maxInterval = seconds(10);
    Rng rng(mix64(seed ^ 0x4d6f76656d656e74ULL));
    moves = game::generateMovements(map, rng, trace.playerPositions, trace.duration, mcfg);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return Inputs{std::move(map), std::move(db), std::move(trace), std::move(moves),
                std::chrono::duration<double>(t1 - t0).count()};
}

gc::GCopssRunConfig makeConfig(const Workload& w, std::size_t threads) {
  gc::GCopssRunConfig cfg;
  cfg.topo = gc::TopoKind::Rocketfuel;
  cfg.seed = 1;  // one fixed backbone and host attachment for every input seed
  cfg.threads = threads;
  if (w.churn) {
    cfg.autoBalance = true;
    cfg.balance.cooldown = seconds(2);
    cfg.uniformBandwidthBps = 10e6;
    cfg.linkQueues = LinkQueueConfig::dropTail(64 * 1024);
  } else {
    cfg.numRps = 3;
    cfg.loadAwareAssignment = true;
  }
  return cfg;
}

void scheduleMoves(const Inputs& in, const gc::GCopssRunConfig& cfg,
                   const gc::GCopssRunConfig::WorldView& world) {
  for (const game::Move& mv : in.moves) {
    gc::GCopssClient* client = world.clients[mv.playerId];
    world.net.sim().scheduleAt(cfg.warmup + mv.at,
                               [client, cds = in.map.subscriptionsFor(mv.to)]() {
                                 client->resubscribe(cds);
                               });
  }
}

}  // namespace perfbench
