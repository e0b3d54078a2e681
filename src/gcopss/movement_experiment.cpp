#include "gcopss/movement_experiment.hpp"

#include <cassert>
#include <map>
#include <memory>
#include <set>

#include "copss/deploy.hpp"
#include "des/simulator.hpp"
#include "metrics/latency.hpp"
#include "net/topo_factory.hpp"

namespace gcopss::gc {

namespace {

// Router Content Store freshness: cached snapshot Data ages out fast in games.
constexpr SimTime kCsFreshness = ms(100);

// Progress of one in-flight move's snapshot download.
struct MoveContext {
  const game::Move* move = nullptr;
  SimTime startedAt = 0;

  // QR mode.
  std::vector<Name> qrNames;
  std::set<Name> qrWanted;  // exactly qrNames, for membership checks
  std::size_t nextToSend = 0;
  std::set<Name> qrGot;

  // Cyclic mode.
  struct LeafProgress {
    std::size_t need = 0;
    std::set<game::ObjectId> got;
    bool done = false;
  };
  std::map<Name, LeafProgress> leaves;  // keyed by leaf CD
  std::size_t leavesDone = 0;
};

Name leafFromSnapGroup(const Name& group) {
  // /snap/<leaf components...>
  return Name(std::vector<std::string>(group.components().begin() + 1,
                                       group.components().end()));
}

}  // namespace

MovementSummary runMovementExperiment(const game::GameMap& map,
                                      const game::ObjectDatabase& baseDb,
                                      const trace::Trace& bgTrace,
                                      const std::vector<game::Move>& moves,
                                      const MovementRunConfig& cfg) {
  Rng rng(cfg.seed);
  Simulator sim;
  Topology topo;
  const auto rf = makeRocketfuelLike(topo, rng);
  std::vector<NodeId> routerIds = rf.core;
  routerIds.insert(routerIds.end(), rf.edge.begin(), rf.edge.end());

  // Brokers attach to spread core routers; they are routers themselves.
  std::vector<NodeId> brokerIds;
  for (std::size_t b = 0; b < cfg.numBrokers; ++b) {
    const NodeId node = topo.addNode("broker" + std::to_string(b));
    topo.addLink(node, rf.core[(b * rf.core.size()) / cfg.numBrokers], ms(1));
    brokerIds.push_back(node);
  }
  const auto hosts = attachHosts(topo, rf.edge, bgTrace.playerPositions.size(), rng);

  Network net(sim, topo, cfg.params);
  // Every CD a publication may carry, before the first event (as in
  // runGCopssTrace).
  for (const Name& cd : map.leafCds()) net.names().intern(cd);

  copss::CopssRouter::Options ropts;
  ropts.ndn.csFreshness = kCsFreshness;
  for (NodeId r : routerIds) net.emplaceNode<copss::CopssRouter>(r, net, ropts);

  // Serving partition: contiguous slices of the leaf-CD list per broker.
  const auto& leaves = map.leafCds();
  std::vector<SnapshotBroker*> brokers;
  std::vector<std::vector<Name>> serving(cfg.numBrokers);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    serving[(i * cfg.numBrokers) / leaves.size()].push_back(leaves[i]);
  }
  for (std::size_t b = 0; b < cfg.numBrokers; ++b) {
    brokers.push_back(&net.emplaceNode<SnapshotBroker>(brokerIds[b], net, ropts, map,
                                                       baseDb, serving[b], cfg.broker));
  }
  std::vector<NodeId> allRouters = routerIds;
  allRouters.insert(allRouters.end(), brokerIds.begin(), brokerIds.end());

  // Clients.
  std::vector<GCopssClient*> clients;
  for (NodeId h : hosts) {
    const NodeId edge = topo.neighbors(h).front();
    auto& client = net.emplaceNode<GCopssClient>(h, net, edge);
    clients.push_back(&client);
    dynamic_cast<copss::CopssRouter&>(net.node(edge)).markHostFace(h);
  }

  // CD routing: game leaf CDs to RPs, /snap/<leaf> groups to their broker.
  copss::RpAssignment assignment;
  {
    std::map<Name, double> weights;
    for (const auto& rec : bgTrace.records) weights[rec.cd] += 1.0;
    std::vector<NodeId> rpNodes;
    for (std::size_t i = 0; i < cfg.numRps; ++i) {
      rpNodes.push_back(rf.core[(i * rf.core.size() + rf.core.size() / 2) / cfg.numRps %
                                rf.core.size()]);
    }
    assignment = copss::buildBalancedAssignment(leaves, weights, rpNodes);
  }
  for (std::size_t b = 0; b < cfg.numBrokers; ++b) {
    for (const Name& leaf : serving[b]) {
      assignment.prefixToRp[SnapshotBroker::snapGroupCd(leaf)] = brokerIds[b];
    }
  }
  installAssignment(net, allRouters, assignment);

  // QR routing: /snapshot/<leaf> prefixes toward the serving broker.
  for (std::size_t b = 0; b < cfg.numBrokers; ++b) {
    for (const Name& leaf : serving[b]) {
      const Name prefix = SnapshotBroker::qrPrefix(leaf);
      for (NodeId r : allRouters) {
        auto& router = dynamic_cast<copss::CopssRouter&>(net.node(r));
        if (r == brokerIds[b]) {
          router.ndnEngine().fib().insert(prefix, ndn::kLocalFace);
        } else {
          router.ndnEngine().fib().insert(prefix, topo.nextHop(r, brokerIds[b]));
        }
      }
    }
  }

  // Go live: subscriptions, brokers, background trace.
  sim.scheduleAt(0, [&]() {
    for (std::size_t p = 0; p < clients.size(); ++p) {
      for (const Name& cd : map.subscriptionsFor(bgTrace.playerPositions[p])) {
        clients[p]->subscribe(cd);
      }
    }
    for (auto* b : brokers) b->start();
  });

  // Background publish pump (drives broker snapshot state). Each player
  // numbers its own publications 1, 2, ...
  std::size_t nextRec = 0;
  std::vector<std::uint64_t> lastSeq(clients.size(), 0);
  std::function<void()> pump = [&]() {
    if (nextRec >= bgTrace.records.size()) return;
    const auto& rec = bgTrace.records[nextRec];
    clients[rec.playerId]->publish(rec.cd, rec.size, ++lastSeq[rec.playerId], rec.objectId);
    ++nextRec;
    if (nextRec < bgTrace.records.size()) {
      sim.scheduleAt(cfg.warmup + bgTrace.records[nextRec].time, pump);
    }
  };
  if (!bgTrace.records.empty()) {
    sim.scheduleAt(cfg.warmup + bgTrace.records.front().time, pump);
  }

  // --- movers ---
  metrics::ConvergenceRecorder convergence(kNumMoveTypes);
  std::vector<std::size_t> typeCounts(kNumMoveTypes, 0);
  std::vector<double> typeLeafSums(kNumMoveTypes, 0.0);
  std::map<GCopssClient*, std::shared_ptr<MoveContext>> active;

  auto finishMove = [&](GCopssClient* client, const std::shared_ptr<MoveContext>& ctx) {
    convergence.record(static_cast<std::size_t>(ctx->move->type), ctx->startedAt,
                       sim.now());
    active.erase(client);
  };

  // QR: express one Interest, with retransmission until the object arrives.
  std::function<void(GCopssClient*, std::shared_ptr<MoveContext>, const Name&)> qrExpress =
      [&](GCopssClient* client, std::shared_ptr<MoveContext> ctx, const Name& name) {
        client->expressInterest(name);
        sim.schedule(cfg.qrRto, [&, client, ctx, name]() {
          if (active.count(client) && active[client] == ctx && !ctx->qrGot.count(name)) {
            qrExpress(client, ctx, name);
          }
        });
      };

  for (auto* client : clients) {
    client->setDataCallback([&, client](const ndn::DataPacketPtr& data,
                                        SimTime) {
      const auto it = active.find(client);
      if (it == active.end()) return;
      auto ctx = it->second;
      if (!ctx->qrWanted.count(data->name)) return;  // straggler of an old move
      if (!ctx->qrGot.insert(data->name).second) return;
      if (ctx->nextToSend < ctx->qrNames.size()) {
        qrExpress(client, ctx, ctx->qrNames[ctx->nextToSend++]);
      }
      if (ctx->qrGot.size() == ctx->qrNames.size()) finishMove(client, ctx);
    });
    client->setMulticastCallback([&, client](const copss::MulticastPacket& m, SimTime) {
      const auto* snap = dynamic_cast<const SnapshotObjectPacket*>(&m);
      if (!snap) return;  // background game traffic
      const auto it = active.find(client);
      if (it == active.end()) return;
      auto ctx = it->second;
      const Name leaf = leafFromSnapGroup(snap->cds.front());
      const auto lit = ctx->leaves.find(leaf);
      if (lit == ctx->leaves.end() || lit->second.done) return;
      lit->second.got.insert(snap->objectId);
      if (lit->second.got.size() >= lit->second.need) {
        lit->second.done = true;
        client->unsubscribe(SnapshotBroker::snapGroupCd(leaf));
        if (++ctx->leavesDone == ctx->leaves.size()) finishMove(client, ctx);
      }
    });
  }

  for (const game::Move& move : moves) {
    typeCounts[static_cast<std::size_t>(move.type)]++;
    typeLeafSums[static_cast<std::size_t>(move.type)] +=
        static_cast<double>(move.snapshotCds.size());
    sim.scheduleAt(cfg.warmup + move.at, [&, mv = &move]() {
      GCopssClient* client = clients[mv->playerId];
      const auto prev = active.find(client);
      if (prev != active.end()) {
        // The player moved again before the last snapshot finished: abandon
        // the stale download (its convergence is not recorded).
        for (const auto& [leaf, progress] : prev->second->leaves) {
          if (!progress.done) client->unsubscribe(SnapshotBroker::snapGroupCd(leaf));
        }
        active.erase(prev);
      }
      client->resubscribe(map.subscriptionsFor(mv->to));
      auto ctx = std::make_shared<MoveContext>();
      ctx->move = mv;
      ctx->startedAt = sim.now();
      if (mv->snapshotCds.empty()) {
        // "To lower layer": the view was already held; converges instantly.
        convergence.record(static_cast<std::size_t>(mv->type), sim.now(), sim.now());
        return;
      }
      active[client] = ctx;
      if (cfg.mode == SnapshotMode::QueryResponse) {
        for (const Name& leaf : mv->snapshotCds) {
          for (game::ObjectId obj : baseDb.objectsIn(leaf)) {
            ctx->qrNames.push_back(SnapshotBroker::qrName(leaf, obj));
          }
        }
        ctx->qrWanted.insert(ctx->qrNames.begin(), ctx->qrNames.end());
        const std::size_t burst = std::min(cfg.qrWindow, ctx->qrNames.size());
        for (std::size_t i = 0; i < burst; ++i) {
          qrExpress(client, ctx, ctx->qrNames[ctx->nextToSend++]);
        }
      } else {
        for (const Name& leaf : mv->snapshotCds) {
          ctx->leaves[leaf].need = baseDb.objectsIn(leaf).size();
          client->subscribe(SnapshotBroker::snapGroupCd(leaf));
        }
      }
    });
  }

  sim.run(cfg.warmup + std::max(bgTrace.duration, moves.empty() ? 0 : moves.back().at) +
          cfg.safetyCap);

  MovementSummary out;
  out.label = cfg.mode == SnapshotMode::QueryResponse
                  ? ("QR, window = " + std::to_string(cfg.qrWindow))
                  : "Cyclic-Multicast";
  for (std::size_t t = 0; t < kNumMoveTypes; ++t) {
    MovementTypeRow row;
    row.label = game::moveTypeLabel(static_cast<game::MoveType>(t));
    row.count = typeCounts[t];
    row.avgLeafCds = typeCounts[t]
                         ? typeLeafSums[t] / static_cast<double>(typeCounts[t])
                         : 0.0;
    row.meanMs = convergence.typeStats(t).mean();
    row.ci95Ms = convergence.typeStats(t).ci95HalfWidth();
    out.rows.push_back(std::move(row));
  }
  out.totalMoves = convergence.total().count();
  out.totalMeanMs = convergence.total().mean();
  out.totalCi95Ms = convergence.total().ci95HalfWidth();
  out.networkGB = toGB(net.totalLinkBytes());
  for (auto* b : brokers) {
    out.brokerObjectsSent += b->cyclicObjectsSent();
    out.qrQueriesServed += b->qrQueriesServed();
  }
  out.eventsExecuted = sim.totalEventsExecuted();
  return out;
}

}  // namespace gcopss::gc
