#include "gcopss/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <map>
#include <memory>
#include <stdexcept>

#include "copss/deploy.hpp"
#include "copss/hybrid.hpp"
#include "copss/router.hpp"
#include "des/parallel.hpp"
#include "des/simulator.hpp"
#include "gcopss/client.hpp"
#include "ipserver/ipserver.hpp"
#include "ndngame/ndngame.hpp"
#include "net/topo_factory.hpp"
#include "net/vivaldi.hpp"

namespace gcopss::gc {

namespace {

struct BuiltTopo {
  std::vector<NodeId> routers;       // every router node
  std::vector<NodeId> hostAttach;    // routers hosts may attach to
  std::vector<NodeId> coreRouters;   // RP / server placement candidates
};

BuiltTopo buildTopo(Topology& topo, TopoKind kind, Rng& rng) {
  BuiltTopo out;
  if (kind == TopoKind::Bench6) {
    const auto bench = makeBenchmarkTopology(topo);
    out.routers = bench.routers;
    out.hostAttach = bench.routers;
    out.coreRouters = bench.routers;  // R1 first: the paper's RP/server site
  } else {
    const auto rf = makeRocketfuelLike(topo, rng);
    out.routers = rf.core;
    out.routers.insert(out.routers.end(), rf.edge.begin(), rf.edge.end());
    out.hostAttach = rf.edge;
    out.coreRouters = rf.core;
  }
  return out;
}

// Spread n picks evenly over the candidate list.
std::vector<NodeId> spreadOver(const std::vector<NodeId>& candidates, std::size_t n) {
  std::vector<NodeId> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(candidates[(i * candidates.size()) / n]);
  }
  return out;
}

// The n most central candidates (lowest total delay to every attach point),
// most central first. The paper delegates RP selection to a network
// coordinate system (Vivaldi, Section IV-B); closeness centrality is the
// static equivalent, and using it for every stack keeps the placement of
// RPs, group RPs and game servers symmetric across compared systems.
std::vector<NodeId> mostCentral(const Topology& topo, const std::vector<NodeId>& candidates,
                                const std::vector<NodeId>& attachPoints, std::size_t n) {
  std::vector<std::pair<SimTime, NodeId>> ranked;
  ranked.reserve(candidates.size());
  for (NodeId c : candidates) {
    SimTime total = 0;
    for (NodeId a : attachPoints) total += topo.pathDelay(c, a);
    ranked.emplace_back(total, c);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < std::min(n, ranked.size()); ++i) out.push_back(ranked[i].second);
  return out;
}

// Dispatch on the configured placement policy.
std::vector<NodeId> pickSites(RpPlacement placement, const Topology& topo,
                              const BuiltTopo& built, std::size_t n, Rng& rng) {
  switch (placement) {
    case RpPlacement::Centrality:
      return mostCentral(topo, built.coreRouters, built.hostAttach, n);
    case RpPlacement::Vivaldi:
      return vivaldiCentral(topo, built.coreRouters, built.hostAttach, rng, n);
    case RpPlacement::Spread:
      return spreadOver(built.coreRouters, n);
  }
  return mostCentral(topo, built.coreRouters, built.hostAttach, n);
}

// Per-leaf-CD publication counts, used as load weights for balanced RP /
// server partitioning.
std::map<Name, double> traceWeights(const trace::Trace& trace) {
  std::map<Name, double> w;
  for (const auto& rec : trace.records) w[rec.cd] += 1.0;
  return w;
}

// Points in RunSummary::series, the down-sampled Fig. 6-style latency trace.
constexpr std::size_t kSeriesPoints = 60;

void fillLatencySummary(RunSummary& out, const metrics::LatencyRecorder& lat,
                        std::size_t cdfPoints) {
  const auto& s = lat.samples();
  out.deliveries = lat.deliveries();
  out.meanMs = s.mean();
  out.p50Ms = s.percentile(0.50);
  out.p95Ms = s.percentile(0.95);
  out.p99Ms = s.percentile(0.99);
  out.maxMs = s.max();
  out.series = lat.series(kSeriesPoints);
  out.latencyCdfMs = s.cdfPoints(cdfPoints);
}

void fillQueueSummary(RunSummary& out, const Network& net) {
  if (!net.linkQueuesEnabled()) return;  // fields stay zero
  const QueueAggregate qa = net.queueAggregate();
  out.queueDrops = net.totalQueueDrops();
  out.queueMeanSojournMs = qa.meanSojournMs();
  out.queueMaxSojournMs = qa.maxSojournMs();
  out.queuePeakBytes = qa.peakBytesQueued;
}

// Replays trace records through a per-record action, one pending event at a
// time (keeps the event queue small even for million-record traces).
class TracePump {
 public:
  using Action = std::function<void(const trace::TraceRecord&, std::size_t index)>;

  TracePump(Simulator& sim, const trace::Trace& trace, SimTime offset, Action action)
      : sim_(sim), trace_(trace), offset_(offset), action_(std::move(action)) {}

  void start() {
    if (trace_.records.empty()) return;
    sim_.scheduleAt(offset_ + trace_.records.front().time, [this]() { fire(); });
  }

 private:
  void fire() {
    action_(trace_.records[next_], next_);
    ++next_;
    if (next_ < trace_.records.size()) {
      sim_.scheduleAt(offset_ + trace_.records[next_].time, [this]() { fire(); });
    }
  }

  Simulator& sim_;
  const trace::Trace& trace_;
  SimTime offset_;
  Action action_;
  std::size_t next_ = 0;
};

// Per-publisher numbering of a trace: each player stamps its own records
// 1, 2, ... in trace order, as a real publisher would. The latency
// recorders are keyed by trace index, so a delivery maps (publisher, seq)
// back to it. Rows are compressed over node ids: three allocations at any
// player count.
class PublisherSeqs {
 public:
  static constexpr std::size_t kNotTraced = static_cast<std::size_t>(-1);

  PublisherSeqs(const trace::Trace& trace, const std::vector<NodeId>& hosts,
                std::size_t nodeCount)
      : seq_(trace.records.size()), first_(nodeCount + 1, 0),
        record_(trace.records.size()) {
    const auto node = [&](std::size_t i) {
      return static_cast<std::size_t>(hosts[trace.records[i].playerId]);
    };
    for (std::size_t i = 0; i < seq_.size(); ++i) seq_[i] = ++first_[node(i) + 1];
    for (std::size_t u = 0; u < nodeCount; ++u) first_[u + 1] += first_[u];
    for (std::size_t i = 0; i < seq_.size(); ++i) record_[first_[node(i)] + seq_[i] - 1] = i;
  }

  // The seq trace record `i` is published with.
  std::uint64_t seqOf(std::size_t i) const { return seq_[i]; }

  // The trace index `publisher` stamped `seq` on, or kNotTraced for a
  // publisher with no trace records (e.g. a snapshot broker).
  std::size_t recordOf(NodeId publisher, std::uint64_t seq) const {
    const auto u = static_cast<std::size_t>(publisher);
    if (u >= first_.size() - 1 || seq == 0 || seq > first_[u + 1] - first_[u]) {
      return kNotTraced;
    }
    return record_[first_[u] + seq - 1];
  }

 private:
  std::vector<std::uint64_t> seq_;   // trace index -> publisher seq
  std::vector<std::size_t> first_;   // node -> first row of its records
  std::vector<std::size_t> record_;  // row -> trace index
};

}  // namespace

RunSummary runGCopssTrace(const game::GameMap& map, const trace::Trace& trace,
                          const GCopssRunConfig& cfg) {
  Rng rng(cfg.seed);
  Simulator sim;
  Topology topo;
  const BuiltTopo built = buildTopo(topo, cfg.topo, rng);
  Network net(sim, topo, cfg.params);
  // Every CD a publication may carry, before the first event: an RP split
  // routes CDs mid-run, and on the parallel engine the FIB may only look
  // them up there (ndn::Fib::insert).
  for (const Name& cd : map.leafCds()) net.names().intern(cd);

  // --- routers ---
  copss::CopssRouter::Options ropts;
  ropts.st = cfg.stOptions;
  ropts.autoBalance = cfg.autoBalance;
  ropts.balance = cfg.balance;
  std::vector<copss::CopssRouter*> routers;
  // Relaxed atomic: split notifications fire on the owning router's shard in
  // parallel runs; the count is only read after the queues drain.
  std::atomic<std::uint64_t> rpSplits{0};
  if (cfg.hybrid) {
    // Edges are content-aware; the core forwards group multicast at IP speed.
    std::set<NodeId> coreSet(built.coreRouters.begin(), built.coreRouters.end());
    for (NodeId r : built.routers) {
      if (coreSet.count(r)) {
        auto o = ropts;
        o.ipSpeedCore = true;
        routers.push_back(&net.emplaceNode<copss::CopssRouter>(r, net, o));
      } else {
        routers.push_back(
            &net.emplaceNode<copss::HybridEdgeRouter>(r, net, ropts, cfg.hybridGroups));
      }
    }
  } else {
    for (NodeId r : built.routers) {
      routers.push_back(&net.emplaceNode<copss::CopssRouter>(r, net, ropts));
    }
  }

  // --- hosts ---
  const auto hosts = attachHosts(topo, built.hostAttach, trace.playerPositions.size(), rng);
  std::vector<GCopssClient*> clients;
  clients.reserve(hosts.size());
  for (NodeId h : hosts) {
    const NodeId edge = topo.neighbors(h).front();
    auto& client = net.emplaceNode<GCopssClient>(h, net, edge);
    clients.push_back(&client);
    dynamic_cast<copss::CopssRouter&>(net.node(edge)).markHostFace(h);
  }

  // --- links ---
  // The topology is final (hosts attached): apply the bandwidth override and
  // build the face queues before any traffic exists.
  if (cfg.uniformBandwidthBps > 0) topo.setAllBandwidths(cfg.uniformBandwidthBps);
  if (cfg.linkQueues.enabled) net.enableLinkQueues(cfg.linkQueues);

  // --- event engine ---
  // Every node is attached; switch to the parallel engine now (if asked) so
  // the latency callbacks below can bind each client to its shard's
  // recorder. threads == 0 keeps the classic serial loop untouched.
  std::unique_ptr<ParallelSimulator> psim;
  if (cfg.threads > 0) {
    ParallelSimulator::Options po;
    po.workers = cfg.threads;
    po.lookahead = topo.parallelLookahead();
    psim = std::make_unique<ParallelSimulator>(sim, po);
    net.enableParallel(*psim);
  }

  // Delivery recorders: one per shard (one total when serial). A client's
  // callback runs on its own shard, so each recorder has a single writer;
  // mergeFrom() after the drain reproduces the serial aggregate exactly.
  // `seqs` is read-only once built, so every shard may share it.
  const PublisherSeqs seqs(trace, hosts, topo.nodeCount());
  const std::size_t lanes = std::max<std::size_t>(1, cfg.threads);
  std::vector<metrics::LatencyRecorder> latency;
  latency.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) latency.emplace_back(trace.records.size());
  for (std::size_t p = 0; p < clients.size(); ++p) {
    metrics::LatencyRecorder* rec = &latency[net.shardOf(hosts[p])];
    clients[p]->setMulticastCallback(
        [rec, &seqs](const copss::MulticastPacket& m, SimTime now) {
          const std::size_t idx = seqs.recordOf(m.publisher, m.seq);
          if (idx == PublisherSeqs::kNotTraced) return;  // broker traffic
          rec->record(idx, m.publishedAt, now);
        });
    if (cfg.twoStep) {
      // In two-step mode the pulled Data is the delivery.
      clients[p]->setDataCallback(
          [rec, &seqs](const ndn::DataPacketPtr& d, SimTime now) {
            const std::size_t idx =
                seqs.recordOf(GCopssClient::contentPublisher(d->name), d->seq);
            if (idx != PublisherSeqs::kNotTraced) rec->record(idx, d->createdAt, now);
          });
    }
  }

  // Two-step needs NDN routes back to each publisher's content prefix.
  if (cfg.twoStep) {
    for (std::size_t p = 0; p < hosts.size(); ++p) {
      const Name prefix = GCopssClient::contentPrefixFor(hosts[p]);
      for (NodeId r : built.routers) {
        const NodeId next = topo.nextHop(r, hosts[p]);
        if (next != kInvalidNode) {
          dynamic_cast<copss::CopssRouter&>(net.node(r)).ndnEngine().fib().insert(prefix,
                                                                                  next);
        }
      }
    }
  }

  // --- RP assignment ---
  copss::RpAssignment assignment;
  if (cfg.hybrid) {
    // Place group RPs with the same load-aware policy as CD RPs: the
    // heaviest group goes to the first (most central) candidate.
    std::vector<double> groupWeight(cfg.hybridGroups, 0.0);
    for (const auto& [cd, w] : traceWeights(trace)) {
      const std::string& top = cd.empty() ? std::string() : cd.at(0);
      groupWeight[copss::HybridEdgeRouter::groupIndexFor(top, cfg.hybridGroups)] += w;
    }
    std::vector<std::size_t> order(cfg.hybridGroups);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return groupWeight[a] > groupWeight[b];
    });
    const auto rpNodes = pickSites(cfg.placement, topo, built, cfg.hybridGroups, rng);
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      assignment.prefixToRp[copss::HybridEdgeRouter::groupName(order[rank])] = rpNodes[rank];
    }
  } else if (cfg.autoBalance) {
    assignment.prefixToRp[Name()] = pickSites(cfg.placement, topo, built, 1, rng).front();
  } else if (!cfg.explicitAssignment.empty()) {
    const auto rpNodes =
        pickSites(cfg.placement, topo, built, cfg.explicitAssignment.size(), rng);
    for (std::size_t i = 0; i < cfg.explicitAssignment.size(); ++i) {
      for (const std::string& p : cfg.explicitAssignment[i]) {
        assignment.prefixToRp[Name::parse(p)] = rpNodes[i];
      }
    }
  } else {
    const auto rpNodes = pickSites(cfg.placement, topo, built, cfg.numRps, rng);
    const auto weights = cfg.loadAwareAssignment ? traceWeights(trace) : std::map<Name, double>{};
    assignment = copss::buildBalancedAssignment(map.leafCds(), weights, rpNodes);
  }
  installAssignment(net, built.routers, assignment);
  for (auto* r : routers) {
    r->setRpCandidates(built.coreRouters);
    r->onRpSplit = [&rpSplits](NodeId, const std::vector<Name>&) { ++rpSplits; };
  }

  // --- subscriptions per position, then the publish pump ---
  sim.scheduleAt(0, [&]() {
    for (std::size_t p = 0; p < clients.size(); ++p) {
      for (const Name& cd : map.subscriptionsFor(trace.playerPositions[p])) {
        clients[p]->subscribe(cd);
      }
    }
  });
  TracePump pump(sim, trace, cfg.warmup,
                 [&](const trace::TraceRecord& rec, std::size_t idx) {
                   if (cfg.twoStep) {
                     clients[rec.playerId]->publishTwoStep(rec.cd, rec.size, seqs.seqOf(idx));
                   } else {
                     clients[rec.playerId]->publish(rec.cd, rec.size, seqs.seqOf(idx),
                                                    rec.objectId);
                   }
                 });
  if (psim) {
    // The pump's one-pending-event chain lives on the global lane, and every
    // global event parks the workers — it would serialize the whole run.
    // Pre-schedule each publication directly on its publisher's shard
    // instead; scheduling happens here, in setup order, so the per-shard
    // (when, seq) assignment is identical on every run and thread count.
    for (std::size_t i = 0; i < trace.records.size(); ++i) {
      const trace::TraceRecord& rec = trace.records[i];
      GCopssClient* c = clients[rec.playerId];
      const bool twoStep = cfg.twoStep;
      const std::uint64_t seq = seqs.seqOf(i);
      net.nodeSim(hosts[rec.playerId])
          .scheduleAt(cfg.warmup + rec.time, [c, &rec, seq, twoStep]() {
            if (twoStep) {
              c->publishTwoStep(rec.cd, rec.size, seq);
            } else {
              c->publish(rec.cd, rec.size, seq, rec.objectId);
            }
          });
    }
  } else {
    pump.start();
  }

  if (cfg.onWorldReady) {
    cfg.onWorldReady(GCopssRunConfig::WorldView{net, routers, clients});
  }

  if (psim) {
    psim->run();
  } else {
    sim.run();
  }

  if (cfg.onRunDrained) {
    cfg.onRunDrained(GCopssRunConfig::WorldView{net, routers, clients});
  }

  RunSummary out;
  out.label = cfg.hybrid ? "hybrid-G-COPSS" : (cfg.twoStep ? "G-COPSS (two-step)" : "G-COPSS");
  for (std::size_t i = 1; i < latency.size(); ++i) latency[0].mergeFrom(latency[i]);
  fillLatencySummary(out, latency[0], cfg.cdfPoints);
  out.networkGB = toGB(net.totalLinkBytes());
  out.linkPackets = net.totalLinkPackets();
  out.drops = net.totalDrops();
  fillQueueSummary(out, net);
  out.rpSplits = rpSplits.load(std::memory_order_relaxed);
  out.eventsExecuted = psim ? psim->totalEventsExecuted() : sim.totalEventsExecuted();
  for (auto* r : routers) {
    out.bloomFalsePositives += r->st().bloomFalsePositives();
    if (const auto* edge = dynamic_cast<const copss::HybridEdgeRouter*>(r)) {
      out.unwantedAtEdges += edge->unwantedReceived();
    }
  }
  for (auto* c : clients) out.filteredAtHosts += c->filteredOut();
  return out;
}

RunSummary runIpServerTrace(const game::GameMap& map, const trace::Trace& trace,
                            const IpServerRunConfig& cfg) {
  Rng rng(cfg.seed);
  Simulator sim;
  Topology topo;
  const BuiltTopo built = buildTopo(topo, cfg.topo, rng);

  // Servers attach near the core: the bench site is R1 (Fig. 3b); at scale
  // they spread over core routers.
  std::vector<NodeId> serverNodes;
  const auto serverSites =
      mostCentral(topo, built.coreRouters, built.hostAttach, cfg.numServers);
  for (std::size_t i = 0; i < cfg.numServers; ++i) {
    const NodeId s = topo.addNode("server" + std::to_string(i));
    topo.addLink(s, serverSites[i], ms(1));
    serverNodes.push_back(s);
  }
  const auto hosts = attachHosts(topo, built.hostAttach, trace.playerPositions.size(), rng);

  Network net(sim, topo, cfg.params);
  if (cfg.uniformBandwidthBps > 0) topo.setAllBandwidths(cfg.uniformBandwidthBps);
  if (cfg.serverUplinkBps > 0) {
    for (std::size_t i = 0; i < serverNodes.size(); ++i) {
      topo.setLinkBandwidth(serverNodes[i], serverSites[i], cfg.serverUplinkBps);
    }
  }
  if (cfg.linkQueues.enabled) net.enableLinkQueues(cfg.linkQueues);
  for (NodeId r : built.routers) net.emplaceNode<ipserver::IpRouter>(r, net);

  ipserver::ServerDirectory directory;
  metrics::LatencyRecorder latency(trace.records.size());
  std::vector<ipserver::IpClient*> clients;
  for (NodeId h : hosts) {
    const NodeId edge = topo.neighbors(h).front();
    auto& client = net.emplaceNode<ipserver::IpClient>(h, net, edge, directory);
    client.setDeliveryCallback(
        [&latency](const ipserver::IpUnicastPacket& u, SimTime now) {
          latency.record(static_cast<std::size_t>(u.seq - 1), u.publishedAt, now);
        });
    clients.push_back(&client);
  }
  for (NodeId s : serverNodes) net.emplaceNode<ipserver::GameServer>(s, net, directory);

  // Recipients: every player whose position sees the CD.
  for (const Name& leaf : map.leafCds()) {
    for (std::size_t p = 0; p < trace.playerPositions.size(); ++p) {
      if (map.sees(trace.playerPositions[p], leaf)) directory.addRecipient(leaf, hosts[p]);
    }
  }
  // Shard players across servers round-robin (player-homed sharding).
  for (std::size_t p = 0; p < hosts.size(); ++p) {
    directory.setHomeServer(hosts[p], serverNodes[p % serverNodes.size()]);
  }

  TracePump pump(sim, trace, cfg.warmup,
                 [&](const trace::TraceRecord& rec, std::size_t idx) {
                   clients[rec.playerId]->publish(rec.cd, rec.size, idx + 1);
                 });
  pump.start();
  sim.run();

  RunSummary out;
  out.label = "IP server";
  fillLatencySummary(out, latency, cfg.cdfPoints);
  out.networkGB = toGB(net.totalLinkBytes());
  out.linkPackets = net.totalLinkPackets();
  out.drops = net.totalDrops();
  fillQueueSummary(out, net);
  out.eventsExecuted = sim.totalEventsExecuted();
  return out;
}

RunSummary runNdnMicrobench(const game::GameMap& map, const trace::Trace& trace,
                            const NdnRunConfig& cfg) {
  Rng rng(cfg.seed);
  Simulator sim;
  Topology topo;
  const BuiltTopo built = buildTopo(topo, TopoKind::Bench6, rng);
  const auto hosts = attachHosts(topo, built.hostAttach, trace.playerPositions.size(), rng);

  SimParams params = cfg.params;
  params.dropBacklog = cfg.dropBacklog;
  Network net(sim, topo, params);

  std::vector<ndngame::NdnRouterNode*> routers;
  for (NodeId r : built.routers) {
    routers.push_back(&net.emplaceNode<ndngame::NdnRouterNode>(r, net));
  }

  metrics::LatencyRecorder latency(trace.records.size());
  ndngame::NdnGamePlayer::Options popts;
  popts.window = cfg.window;
  popts.accumulation = cfg.accumulation;
  popts.rto = cfg.rto;
  popts.rtoMax = cfg.rto * 4;

  std::vector<ndngame::NdnGamePlayer*> players;
  for (std::size_t p = 0; p < hosts.size(); ++p) {
    const NodeId edge = topo.neighbors(hosts[p]).front();
    auto& player = net.emplaceNode<ndngame::NdnGamePlayer>(
        hosts[p], net, static_cast<std::uint32_t>(p), edge, popts);
    players.push_back(&player);
  }

  // FIB: every router points /player/<i> along the shortest path to host i.
  for (std::size_t p = 0; p < hosts.size(); ++p) {
    const Name prefix = ndngame::NdnGamePlayer::prefixFor(static_cast<std::uint32_t>(p));
    for (std::size_t r = 0; r < built.routers.size(); ++r) {
      const NodeId next = topo.nextHop(built.routers[r], hosts[p]);
      if (next != kInvalidNode) routers[r]->engine().fib().insert(prefix, next);
    }
  }

  // Peers: "every player queries all the possible players" (ACT-managed
  // membership); the visibility filter drops out-of-AoI updates on receipt.
  for (std::size_t p = 0; p < players.size(); ++p) {
    std::vector<std::uint32_t> peers;
    for (std::size_t q = 0; q < players.size(); ++q) {
      if (q != p) peers.push_back(static_cast<std::uint32_t>(q));
    }
    players[p]->setPeers(std::move(peers));
    const game::Position pos = trace.playerPositions[p];
    players[p]->setVisibilityFilter([&map, pos](const Name& cd) { return map.sees(pos, cd); });
    players[p]->setDeliveryCallback(
        [&latency](const ndngame::UpdateEntry& e, SimTime now) {
          latency.record(static_cast<std::size_t>(e.seq - 1), e.publishedAt, now);
        });
  }

  sim.scheduleAt(0, [&players]() {
    for (auto* p : players) p->start();
  });
  TracePump pump(sim, trace, cfg.warmup,
                 [&](const trace::TraceRecord& rec, std::size_t idx) {
                   players[rec.playerId]->publishUpdate(rec.cd, rec.size, idx + 1);
                 });
  pump.start();

  sim.run(cfg.warmup + trace.duration + cfg.drainAfter);

  RunSummary out;
  out.label = "NDN";
  fillLatencySummary(out, latency, cfg.cdfPoints);
  out.networkGB = toGB(net.totalLinkBytes());
  out.linkPackets = net.totalLinkPackets();
  out.drops = net.totalDrops();
  out.eventsExecuted = sim.totalEventsExecuted();
  return out;
}

}  // namespace gcopss::gc
