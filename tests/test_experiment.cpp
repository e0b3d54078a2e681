#include <gtest/gtest.h>

#include "common/name_table.hpp"
#include "game/movement.hpp"
#include "gcopss/experiment.hpp"
#include "gcopss/movement_experiment.hpp"
#include "net/network.hpp"

namespace gcopss::test {
namespace {

using namespace gcopss::gc;

struct SmallWorld {
  game::GameMap map{std::vector<std::size_t>{2, 2}};  // 7 areas, 7 leaf CDs
  game::ObjectDatabase db{map, {6, 12, 24}};
};

trace::Trace smallTrace(const SmallWorld& w, std::size_t updates) {
  trace::CsTraceConfig cfg;
  cfg.players = 14;
  cfg.totalUpdates = updates;
  cfg.meanInterArrival = ms(5);
  cfg.playersPerAreaMin = 2;
  cfg.playersPerAreaMax = 2;
  cfg.seed = 99;
  return trace::generateCsTrace(w.map, w.db, cfg);
}

TEST(ExperimentHarness, GCopssSmallRunDeliversAndMeasures) {
  SmallWorld w;
  const auto trace = smallTrace(w, 500);
  GCopssRunConfig cfg;
  cfg.topo = TopoKind::Bench6;
  cfg.params = SimParams::microbench();
  cfg.numRps = 1;
  const auto res = runGCopssTrace(w.map, trace, cfg);

  EXPECT_GT(res.deliveries, trace.records.size());  // multicast fan-out > 1
  EXPECT_GT(res.meanMs, 0.0);
  EXPECT_GT(res.networkGB, 0.0);
  EXPECT_EQ(res.drops, 0u);
  EXPECT_FALSE(res.series.empty());
  EXPECT_FALSE(res.latencyCdfMs.empty());
}

TEST(ExperimentHarness, GCopssDeterministicAcrossRuns) {
  SmallWorld w;
  const auto trace = smallTrace(w, 300);
  GCopssRunConfig cfg;
  cfg.topo = TopoKind::Bench6;
  cfg.params = SimParams::microbench();
  cfg.numRps = 2;
  const auto a = runGCopssTrace(w.map, trace, cfg);
  const auto b = runGCopssTrace(w.map, trace, cfg);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_DOUBLE_EQ(a.meanMs, b.meanMs);
  EXPECT_DOUBLE_EQ(a.networkGB, b.networkGB);
  EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
}

TEST(ExperimentHarness, IpServerSmallRunDelivers) {
  SmallWorld w;
  const auto trace = smallTrace(w, 500);
  IpServerRunConfig cfg;
  cfg.topo = TopoKind::Bench6;
  cfg.params = SimParams::microbench();
  cfg.numServers = 1;
  const auto res = runIpServerTrace(w.map, trace, cfg);
  EXPECT_GT(res.deliveries, trace.records.size());
  EXPECT_GT(res.meanMs, 0.0);
  EXPECT_GT(res.networkGB, 0.0);
}

TEST(ExperimentHarness, GCopssAndIpServerSeeTheSameAudience) {
  // Both stacks implement identical visibility semantics, so the delivery
  // counts must match exactly (every update reaches every entitled player).
  SmallWorld w;
  const auto trace = smallTrace(w, 400);
  GCopssRunConfig g;
  g.topo = TopoKind::Bench6;
  g.params = SimParams::microbench();
  g.numRps = 1;
  IpServerRunConfig s;
  s.topo = TopoKind::Bench6;
  s.params = SimParams::microbench();
  s.numServers = 1;
  const auto gr = runGCopssTrace(w.map, trace, g);
  const auto sr = runIpServerTrace(w.map, trace, s);
  EXPECT_EQ(gr.deliveries, sr.deliveries);
}

TEST(ExperimentHarness, IpServerUsesMoreBandwidthThanMulticast) {
  SmallWorld w;
  const auto trace = smallTrace(w, 500);
  GCopssRunConfig g;
  g.params = SimParams::largeScale();
  g.numRps = 3;
  IpServerRunConfig s;
  s.params = SimParams::largeScale();
  s.numServers = 3;
  const auto gr = runGCopssTrace(w.map, trace, g);
  const auto sr = runIpServerTrace(w.map, trace, s);
  EXPECT_GT(sr.networkGB, gr.networkGB);
}

TEST(ExperimentHarness, NdnMicrobenchRunsAndDelivers) {
  SmallWorld w;
  trace::MicrobenchTraceConfig mcfg;
  mcfg.playersPerArea = 1;
  mcfg.duration = seconds(5);
  const auto trace = trace::generateMicrobenchTrace(w.map, w.db, mcfg);
  NdnRunConfig cfg;
  cfg.drainAfter = seconds(5);
  const auto res = runNdnMicrobench(w.map, trace, cfg);
  EXPECT_GT(res.deliveries, 0u);
  EXPECT_GT(res.meanMs, 0.0);
}

TEST(ExperimentHarness, HybridDeliversWithAliasedGroups) {
  SmallWorld w;
  const auto trace = smallTrace(w, 400);
  GCopssRunConfig g;
  g.topo = TopoKind::Rocketfuel;
  g.hybrid = true;
  g.hybridGroups = 3;
  const auto res = runGCopssTrace(w.map, trace, g);
  EXPECT_GT(res.deliveries, trace.records.size());
  // Aliasing several top-level CDs onto 3 groups must create some waste
  // (filtered at edges or at hosts).
  EXPECT_GT(res.unwantedAtEdges + res.filteredAtHosts, 0u);
}

TEST(ExperimentHarness, HybridMatchesPureDeliveryCount) {
  SmallWorld w;
  const auto trace = smallTrace(w, 300);
  GCopssRunConfig pure;
  pure.numRps = 2;
  GCopssRunConfig hybrid = pure;
  hybrid.hybrid = true;
  hybrid.hybridGroups = 3;
  const auto pr = runGCopssTrace(w.map, trace, pure);
  const auto hr = runGCopssTrace(w.map, trace, hybrid);
  EXPECT_EQ(pr.deliveries, hr.deliveries);
}

TEST(ExperimentHarness, AutoBalanceSplitsUnderOverload) {
  SmallWorld w;
  trace::CsTraceConfig tcfg;
  tcfg.players = 14;
  tcfg.totalUpdates = 3000;
  tcfg.meanInterArrival = ms(2);  // well past one RP's 3.3 ms service rate
  tcfg.playersPerAreaMin = 2;
  tcfg.playersPerAreaMax = 2;
  const auto trace = trace::generateCsTrace(w.map, w.db, tcfg);

  GCopssRunConfig cfg;
  cfg.autoBalance = true;
  cfg.balance.backlogThreshold = ms(50);
  cfg.balance.cooldown = seconds(1);
  // The splits route CDs mid-run; the world interned them all at setup.
  std::size_t namesAtReady = 0;
  std::size_t namesAtDrained = 0;
  cfg.onWorldReady = [&](const GCopssRunConfig::WorldView& v) {
    namesAtReady = v.net.names().size();
  };
  cfg.onRunDrained = [&](const GCopssRunConfig::WorldView& v) {
    namesAtDrained = v.net.names().size();
  };
  const auto res = runGCopssTrace(w.map, trace, cfg);
  EXPECT_GE(res.rpSplits, 1u);
  EXPECT_EQ(namesAtDrained, namesAtReady);

  GCopssRunConfig one;
  one.numRps = 1;
  const auto single = runGCopssTrace(w.map, trace, one);
  EXPECT_LT(res.meanMs, single.meanMs);  // balancing beat the congested RP
}

// NameIds are a pure function of the world: each world interns the map's
// CDs first, into a table of its own, so a world built after another one
// ran in this process numbers every CD as a fresh table does.
TEST(ExperimentHarness, NameIdsDependOnlyOnTheWorld) {
  SmallWorld w;
  const auto trace = smallTrace(w, 200);
  NameTable fresh;
  std::vector<NameId> expected;
  for (const Name& cd : w.map.leafCds()) expected.push_back(fresh.intern(cd));
  for (int world = 0; world < 2; ++world) {
    GCopssRunConfig cfg;
    cfg.topo = TopoKind::Bench6;
    cfg.params = SimParams::microbench();
    cfg.twoStep = true;  // Interests for per-publication content names
    std::vector<NameId> ids;
    cfg.onRunDrained = [&](const GCopssRunConfig::WorldView& v) {
      for (const Name& cd : w.map.leafCds()) ids.push_back(v.net.names().deepest(cd));
    };
    runGCopssTrace(w.map, trace, cfg);
    EXPECT_EQ(ids, expected) << "world " << world;
  }
}

TEST(ExperimentHarness, MovementExperimentConverges) {
  SmallWorld w;
  const auto bg = smallTrace(w, 2000);
  Rng rng(5);
  // Intervals far longer than any convergence time, as in the paper's 5-35
  // minute model, so no move supersedes an unfinished one.
  auto moves = game::generateMovements(w.map, rng, bg.playerPositions, bg.duration,
                                       seconds(4), seconds(9));
  ASSERT_FALSE(moves.empty());
  if (moves.size() > 25) moves.resize(25);

  MovementRunConfig cfg;
  cfg.mode = SnapshotMode::CyclicMulticast;
  cfg.numBrokers = 2;
  const auto cyc = runMovementExperiment(w.map, w.db, bg, moves, cfg);
  EXPECT_GT(cyc.totalMoves, 0u);
  EXPECT_GT(cyc.brokerObjectsSent, 0u);

  cfg.mode = SnapshotMode::QueryResponse;
  cfg.qrWindow = 5;
  const auto qr = runMovementExperiment(w.map, w.db, bg, moves, cfg);
  EXPECT_GT(qr.totalMoves, 0u);
  EXPECT_GT(qr.qrQueriesServed, 0u);
  // Both strategies complete the same set of moves.
  EXPECT_EQ(qr.totalMoves, cyc.totalMoves);
}

}  // namespace
}  // namespace gcopss::test
