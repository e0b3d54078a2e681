#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "metrics/fault_report.hpp"
#include "net/fault.hpp"
#include "world_fixture.hpp"

namespace gcopss::test {
namespace {

// ---------------------------------------------------------------------------
// Chaos layer: seeded fault schedules (loss, jitter, reorder, link windows,
// crash/restart) against the migration and recovery machinery. Every schedule
// is a pure function of its seed — to reproduce a failure, rerun with the
// seed printed in the assertion message (see TESTING.md).
// ---------------------------------------------------------------------------

// DeliveryLog's std::set cannot see duplicates; chaos tests must prove
// exactly-once, so count every callback invocation per (receiver, seq).
struct CountingLog {
  std::map<std::pair<std::size_t, std::uint64_t>, int> delivered;

  void attach(LineWorld& w) {
    for (std::size_t i = 0; i < w.clients.size(); ++i) {
      w.clients[i]->setMulticastCallback(
          [this, i](const copss::MulticastPacket& m, SimTime) {
            ++delivered[{i, m.seq}];
          });
    }
  }

  int count(std::size_t receiver, std::uint64_t seq) const {
    const auto it = delivered.find({receiver, seq});
    return it == delivered.end() ? 0 : it->second;
  }
  std::size_t missing(std::size_t receiver, std::uint64_t total) const {
    std::size_t n = 0;
    for (std::uint64_t s = 1; s <= total; ++s) {
      if (count(receiver, s) == 0) ++n;
    }
    return n;
  }
  std::size_t duplicates() const {
    std::size_t n = 0;
    for (const auto& [key, c] : delivered) {
      (void)key;
      if (c > 1) n += static_cast<std::size_t>(c - 1);
    }
    return n;
  }
};

// ------------------------------------------------------ FaultInjector units

TEST(FaultInjector, CertainLossDropsEverythingAndCountsIt) {
  FaultPlan plan;
  plan.seed = 7;
  plan.loseOnLink(1, 2, 1.0);
  FaultInjector inj(plan);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(inj.onTransmit(1, 2, ms(i)).drop);
    EXPECT_TRUE(inj.onTransmit(2, 1, ms(i)).drop) << "specs apply both directions";
    EXPECT_FALSE(inj.onTransmit(2, 3, ms(i)).drop) << "other links untouched";
  }
  EXPECT_EQ(inj.stats().randomLoss, 100u);
}

TEST(FaultInjector, DownWindowBlackholesOnlyInsideTheWindow) {
  FaultPlan plan;
  plan.linkDown(4, 5, ms(100), ms(200));
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.onTransmit(4, 5, ms(99)).drop);
  EXPECT_TRUE(inj.onTransmit(4, 5, ms(100)).drop);
  EXPECT_TRUE(inj.onTransmit(5, 4, ms(199)).drop);
  EXPECT_FALSE(inj.onTransmit(4, 5, ms(200)).drop) << "window is half-open";
  EXPECT_EQ(inj.stats().linkDownLoss, 2u);
}

TEST(FaultInjector, JitterStaysWithinBoundAndReorderAddsHold) {
  FaultPlan plan;
  plan.seed = 11;
  plan.jitterEverywhere(us(500));
  plan.reorderEverywhere(1.0, ms(2));
  FaultInjector inj(plan);
  for (int i = 0; i < 200; ++i) {
    const auto v = inj.onTransmit(0, 1, ms(i));
    EXPECT_FALSE(v.drop);
    EXPECT_GE(v.extraDelay, ms(2));
    EXPECT_LT(v.extraDelay, ms(2) + us(500));
  }
  EXPECT_GE(inj.stats().jittered, 190u);  // a zero-jitter draw is not counted
  EXPECT_EQ(inj.stats().reordered, 200u);
}

TEST(FaultInjector, SamePlanSameSeedSameVerdicts) {
  FaultPlan plan;
  plan.seed = 99;
  plan.loseEverywhere(0.3).jitterEverywhere(us(900)).reorderEverywhere(0.2, us(400));
  FaultInjector a(plan), b(plan);
  for (int i = 0; i < 500; ++i) {
    const auto va = a.onTransmit(1, 2, us(i));
    const auto vb = b.onTransmit(1, 2, us(i));
    ASSERT_EQ(va.drop, vb.drop) << "verdict " << i;
    ASSERT_EQ(va.extraDelay, vb.extraDelay) << "verdict " << i;
  }
}

// ----------------------------------------------------------- chaos scenarios

// The acceptance scenario: the source RP of an in-flight migration crashes
// right after initiating the handoff, with packet loss and reordering on the
// publisher's edge link and ambient jitter everywhere. Reliable publish +
// the migration machinery must deliver every publication exactly once.
struct MigrationCrashSetup {
  static constexpr std::uint64_t kSeed = 42;
  static constexpr std::uint64_t kTotal = 100;

  // Build the schedule once so the recovery-on and recovery-off runs are
  // driven by the byte-identical fault stream.
  static FaultPlan plan(const LineWorld& w) {
    FaultPlan p;
    p.seed = kSeed;
    p.jitterEverywhere(us(300));
    p.loseOnLink(w.clientIds[1], w.routerIds[1], 0.25);
    LinkFaultSpec reorder;
    reorder.a = w.clientIds[1];
    reorder.b = w.routerIds[1];
    reorder.reorderProb = 0.2;
    reorder.reorderDelay = us(800);
    p.links.push_back(reorder);
    // The RP initiates its retirement at 150 ms and dies 1 ms later, mid
    // handoff; it limps back much later with all volatile state gone.
    p.crash(w.routerIds[2], ms(151), ms(400));
    return p;
  }

  static void drive(LineWorld& w, bool reliable) {
    w.singleRootRp(2);
    w.net->applyFaultPlan(plan(w));
    if (reliable) {
      gc::GCopssClient::ReliableOptions opts;
      opts.ackTimeout = ms(30);
      opts.maxRetries = 8;
      w.clients[1]->enableReliablePublish(opts);
    }
    w.sim->scheduleAt(0, [&w]() {
      w.clients[0]->subscribe(Name());
      w.clients[5]->subscribe(Name::parse("/1"));
    });
    for (std::uint64_t s = 1; s <= kTotal; ++s) {
      w.sim->scheduleAt(ms(20) + ms(5) * static_cast<SimTime>(s - 1), [&w, s]() {
        w.clients[1]->publish(Name::parse("/1/1"), 15, s);
      });
    }
    w.sim->scheduleAt(ms(150),
                      [&w]() { ASSERT_TRUE(w.routers[2]->retireTo(w.routerIds[3])); });
    w.sim->run();
  }
};

TEST(Chaos, MigrationCrashWithRecoveryDeliversExactlyOnce) {
  SCOPED_TRACE("chaos seed=" + std::to_string(MigrationCrashSetup::kSeed));
  LineWorld w(6, {}, SimParams::largeScale(), /*ring=*/true);
  CountingLog log;
  log.attach(w);
  MigrationCrashSetup::drive(w, /*reliable=*/true);

  // The schedule actually fired every fault class it declares.
  const FaultStats& fs = w.net->faultStats();
  EXPECT_GT(fs.randomLoss, 0u);
  EXPECT_GT(fs.jittered, 0u);
  EXPECT_EQ(fs.crashes, 1u);
  EXPECT_EQ(fs.restarts, 1u);

  // No publication lost: both subscribers hold the complete sequence.
  for (std::uint64_t s = 1; s <= MigrationCrashSetup::kTotal; ++s) {
    EXPECT_EQ(log.count(0, s), 1) << "root subscriber, seq " << s;
    EXPECT_EQ(log.count(5, s), 1) << "/1 subscriber, seq " << s;
  }
  // None duplicated, at any subscriber.
  EXPECT_EQ(log.duplicates(), 0u);
  // Non-subscribers saw nothing.
  for (std::size_t i : {1u, 2u, 3u, 4u}) {
    EXPECT_EQ(w.clients[i]->received(), 0u) << "client " << i;
  }

  // The recovery path did real work and finished it.
  EXPECT_GT(w.clients[1]->retransmissions(), 0u);
  EXPECT_EQ(w.clients[1]->acksReceived(), MigrationCrashSetup::kTotal);
  EXPECT_EQ(w.clients[1]->publishFailures(), 0u);
  EXPECT_EQ(w.clients[1]->pendingPublications(), 0u);
  EXPECT_GT(w.routers[2]->resyncRequestsSent(), 0u) << "restart asked neighbours";
}

// Same world, same seed, same fault stream — but with the recovery layer off,
// publications routed into the crash window demonstrably die.
TEST(Chaos, MigrationCrashWithoutRecoveryLosesPublications) {
  SCOPED_TRACE("chaos seed=" + std::to_string(MigrationCrashSetup::kSeed));
  LineWorld w(6, {}, SimParams::largeScale(), /*ring=*/true);
  CountingLog log;
  log.attach(w);
  MigrationCrashSetup::drive(w, /*reliable=*/false);

  EXPECT_GT(log.missing(0, MigrationCrashSetup::kTotal), 0u)
      << "without retransmission the crash window must lose publications";
  EXPECT_EQ(w.clients[1]->retransmissions(), 0u);
}

// RP liveness: the RP crashes with no migration underway; the standby detects
// the silence from missed heartbeats and assumes the served prefixes. With
// reliable publishers the outage window closes end-to-end: every publication
// is delivered exactly once.
TEST(Chaos, HeartbeatFailoverClosesTheOutageWindow) {
  constexpr std::uint64_t kSeed = 1337;
  constexpr std::uint64_t kTotal = 80;
  SCOPED_TRACE("chaos seed=" + std::to_string(kSeed));

  LineWorld w(6, {}, SimParams::largeScale(), /*ring=*/true);
  w.singleRootRp(2);
  CountingLog log;
  log.attach(w);

  FaultPlan plan;
  plan.seed = kSeed;
  plan.jitterEverywhere(us(200));
  plan.loseOnLink(w.clientIds[1], w.routerIds[1], 0.2);
  plan.crash(w.routerIds[2], ms(200), ms(450));
  w.net->applyFaultPlan(plan);

  gc::GCopssClient::ReliableOptions opts;
  opts.ackTimeout = ms(40);
  opts.maxRetries = 8;
  w.clients[1]->enableReliablePublish(opts);

  w.sim->scheduleAt(0, [&]() {
    w.clients[0]->subscribe(Name());
    w.clients[5]->subscribe(Name::parse("/2"));
    w.routers[2]->startRpHeartbeats(w.routerIds[4], ms(10), ms(600));
    w.routers[4]->watchRpLiveness(w.routerIds[2], ms(25), ms(600));
  });
  for (std::uint64_t s = 1; s <= kTotal; ++s) {
    w.sim->scheduleAt(ms(20) + ms(5) * static_cast<SimTime>(s - 1), [&w, s]() {
      w.clients[1]->publish(Name::parse("/2/7"), 15, s);
    });
  }
  w.sim->run();

  EXPECT_EQ(w.routers[4]->failovers(), 1u);
  EXPECT_GT(w.routers[4]->lastFailoverAt(), ms(200)) << "detected after the crash";
  EXPECT_LT(w.routers[4]->lastFailoverAt(), ms(260)) << "within timeout + check period";
  EXPECT_GT(w.routers[2]->heartbeatsSent(), 0u);
  EXPECT_TRUE(w.routers[4]->isRpFor(Name::parse("/2/7")));

  for (std::uint64_t s = 1; s <= kTotal; ++s) {
    EXPECT_EQ(log.count(0, s), 1) << "root subscriber, seq " << s;
    EXPECT_EQ(log.count(5, s), 1) << "/2 subscriber, seq " << s;
  }
  EXPECT_EQ(log.duplicates(), 0u);
  EXPECT_GT(w.clients[1]->retransmissions(), 0u) << "outage pubs went unacked once";
  EXPECT_EQ(w.clients[1]->acksReceived(), kTotal);
  EXPECT_EQ(w.clients[1]->publishFailures(), 0u);
}

// ST resync: a transit router crashes and restarts, losing its Subscription
// Table. On restart it asks every neighbour to re-announce: the attached
// client replays its subscriptions, the downstream router replays the scoped
// subscriptions it had aggregated upstream. Delivery resumes without any
// publisher-side help.
TEST(Chaos, RouterRestartResyncRebuildsTheSubscriptionTable) {
  LineWorld w(4);
  w.singleRootRp(0);
  CountingLog log;
  log.attach(w);

  FaultPlan plan;
  plan.crash(w.routerIds[2], ms(100), ms(200));
  w.net->applyFaultPlan(plan);

  w.sim->scheduleAt(0, [&]() {
    w.clients[2]->subscribe(Name());
    w.clients[3]->subscribe(Name::parse("/a"));
  });
  constexpr std::uint64_t kTotal = 40;
  for (std::uint64_t s = 1; s <= kTotal; ++s) {
    w.sim->scheduleAt(ms(20) + ms(10) * static_cast<SimTime>(s - 1), [&w, s]() {
      w.clients[0]->publish(Name::parse("/a/b"), 15, s);
    });
  }
  w.sim->run();

  // Before the crash (published < 100 ms) and well after the resync
  // (published >= 220 ms) both subscribers receive everything.
  for (std::uint64_t s = 1; s <= 8; ++s) {
    EXPECT_EQ(log.count(2, s), 1) << "pre-crash seq " << s;
    EXPECT_EQ(log.count(3, s), 1) << "pre-crash seq " << s;
  }
  for (std::uint64_t s = 21; s <= kTotal; ++s) {
    EXPECT_EQ(log.count(2, s), 1) << "post-resync seq " << s;
    EXPECT_EQ(log.count(3, s), 1) << "post-resync seq " << s;
  }
  // Publications blackholed inside the outage are lost — resync bounds the
  // window, it cannot undo it (that is what reliable publish is for).
  EXPECT_GT(log.missing(2, kTotal), 0u);
  EXPECT_EQ(log.duplicates(), 0u);

  EXPECT_EQ(w.routers[2]->resyncRequestsSent(), 3u) << "R1, R3 and the client";
  EXPECT_GE(w.routers[3]->subscriptionReplays(), 1u);
  EXPECT_GE(w.clients[2]->resubscribesSent(), 1u);
}

// Pending-ST replay: a transit router crashes after forwarding the FibAdd
// flood but before processing the downstream join, swallowing it. On restart
// the downstream router replays its unconfirmed StJoin, completing the
// migration that the crash had wedged.
TEST(Chaos, UnconfirmedJoinIsReplayedAfterUpstreamRestart) {
  LineWorld w(4);
  w.singleRootRp(0);
  CountingLog log;
  log.attach(w);

  FaultPlan plan;
  // retireTo fires at 100 ms; the handoff relays R0->R1->R2->R3, the new RP
  // floods back, R1's join leaves ~105.8 ms and would reach R2 ~106.9 ms —
  // crashing R2 at 106 ms eats exactly that join.
  plan.crash(w.routerIds[2], ms(106), ms(150));
  w.net->applyFaultPlan(plan);

  w.sim->scheduleAt(0, [&]() { w.clients[1]->subscribe(Name::parse("/x")); });
  constexpr std::uint64_t kTotal = 50;
  for (std::uint64_t s = 1; s <= kTotal; ++s) {
    w.sim->scheduleAt(ms(20) + ms(5) * static_cast<SimTime>(s - 1), [&w, s]() {
      w.clients[3]->publish(Name::parse("/x/1"), 15, s);
    });
  }
  w.sim->scheduleAt(ms(100),
                    [&]() { ASSERT_TRUE(w.routers[0]->retireTo(w.routerIds[3])); });
  w.sim->run();

  EXPECT_GE(w.routers[1]->joinReplays(), 1u) << "the wedged join must be replayed";
  // Pre-migration publications arrived via the old tree...
  for (std::uint64_t s = 1; s <= 10; ++s) {
    EXPECT_EQ(log.count(1, s), 1) << "pre-migration seq " << s;
  }
  // ...and once the replayed join grafts the new tree, delivery resumes.
  for (std::uint64_t s = 30; s <= kTotal; ++s) {
    EXPECT_EQ(log.count(1, s), 1) << "post-replay seq " << s;
  }
  EXPECT_EQ(log.duplicates(), 0u);
}

// ------------------------------------------------ epoch/ownership chaos

// The migration-crash acceptance scenario re-run under the full invariant
// suite with audits every 10 ms: RP ownership, ST soundness, loop freedom,
// epoch monotonicity and delivery must stay clean through the handoff, the
// crash, the restart and the reclaim handshake.
TEST(Chaos, MigrationCrashAuditsCleanUnderFullInvariants) {
  SCOPED_TRACE("chaos seed=" + std::to_string(MigrationCrashSetup::kSeed));
  LineWorld w(6, {}, SimParams::largeScale(), /*ring=*/true);
  check::InvariantChecker::Options opts;
  opts.checkDelivery = true;
  auto& checker = w.enableFullAudit(opts);
  checker.schedulePeriodic(ms(10), ms(900));
  MigrationCrashSetup::drive(w, /*reliable=*/true);
  checker.finalAudit();

  EXPECT_TRUE(checker.ok()) << checker.reportText();
  EXPECT_GE(checker.stats().audits, 50u);
  EXPECT_EQ(checker.stats().publicationsTracked, MigrationCrashSetup::kTotal);
}

// Crash inside the failover window: the standby dies moments after its
// epoch-2 takeover flood and restarts before the old primary does. Both run
// the reclaim handshake on restart; epoch order (2 beats 1) must settle
// ownership on the standby regardless of who comes back first.
TEST(Chaos, CrashDuringFailoverStillConvergesToOneOwner) {
  LineWorld w(6, {}, SimParams::largeScale(), /*ring=*/true);
  auto& checker = w.enableFullAudit();
  w.singleRootRp(2);
  CountingLog log;
  log.attach(w);

  FaultPlan plan;
  plan.seed = 77;
  plan.crash(w.routerIds[2], ms(200), ms(450));  // primary
  plan.crash(w.routerIds[4], ms(250), ms(320));  // standby, just after takeover
  w.net->applyFaultPlan(plan);

  w.sim->scheduleAt(0, [&]() {
    w.clients[0]->subscribe(Name());
    w.routers[2]->startRpHeartbeats(w.routerIds[4], ms(10), ms(450));
    w.routers[4]->watchRpLiveness(w.routerIds[2], ms(25), ms(450));
  });
  w.sim->scheduleAt(ms(550), [&]() { w.clients[1]->publish(Name::parse("/4/4"), 10, 3); });
  w.sim->scheduleAt(ms(650), [&]() { checker.auditNow(); });
  w.sim->run();

  EXPECT_EQ(w.routers[4]->failovers(), 1u);
  EXPECT_TRUE(w.routers[4]->isRpFor(Name::parse("/4/4")));
  EXPECT_EQ(w.routers[4]->claimEpoch(Name()), 2u);
  EXPECT_EQ(w.routers[4]->demotions(), 0u) << "the higher epoch survives its reclaim";
  EXPECT_GE(w.routers[4]->reclaimsSent(), 1u);
  EXPECT_TRUE(w.routers[2]->rpPrefixes().empty()) << "the stale primary is demoted";
  EXPECT_EQ(w.routers[2]->demotions(), 1u);
  EXPECT_EQ(log.count(0, 3), 1) << "post-convergence delivery through the survivor";
  EXPECT_TRUE(checker.ok()) << checker.reportText();
}

// The worst ordering: primary and standby restart at the same instant and
// reclaim concurrently. The handshake must converge to exactly one live
// claim per prefix — the acceptance criterion for the epoch machinery.
TEST(Chaos, SimultaneousRestartOfPrimaryAndStandbyConverges) {
  LineWorld w(6, {}, SimParams::largeScale(), /*ring=*/true);
  auto& checker = w.enableFullAudit();
  w.singleRootRp(2);
  CountingLog log;
  log.attach(w);

  FaultPlan plan;
  plan.seed = 2024;
  plan.jitterEverywhere(us(200));
  plan.crash(w.routerIds[2], ms(200), ms(500));  // primary: long outage
  plan.crash(w.routerIds[4], ms(460), ms(500));  // standby: dies after takeover
  w.net->applyFaultPlan(plan);

  w.sim->scheduleAt(0, [&]() {
    w.clients[0]->subscribe(Name());
    w.routers[2]->startRpHeartbeats(w.routerIds[4], ms(10), ms(450));
    w.routers[4]->watchRpLiveness(w.routerIds[2], ms(25), ms(450));
  });
  w.sim->scheduleAt(ms(600), [&]() { w.clients[1]->publish(Name::parse("/9/9"), 10, 1); });
  w.sim->scheduleAt(ms(700), [&]() { checker.auditNow(); });
  w.sim->run();

  // Exactly one live claim, at the highest epoch ever minted.
  EXPECT_TRUE(w.routers[4]->isRpFor(Name::parse("/9/9")));
  EXPECT_EQ(w.routers[4]->claimEpoch(Name()), 2u);
  EXPECT_TRUE(w.routers[2]->rpPrefixes().empty());
  EXPECT_EQ(w.routers[2]->demotions(), 1u);
  EXPECT_EQ(w.routers[4]->demotions(), 0u);
  std::size_t liveClaims = 0;
  for (auto* r : w.routers) liveClaims += r->rpPrefixes().size();
  EXPECT_EQ(liveClaims, 1u);
  EXPECT_EQ(log.count(0, 1), 1) << "delivery resumed after the double restart";
  EXPECT_TRUE(checker.ok()) << checker.reportText();
}

// Restart with no rival: the reclaim goes out, no neighbour has observed a
// higher epoch, silence means the persisted claim stands and delivery
// resumes through the revived RP.
TEST(Chaos, ReclaimWithNoRivalKeepsThePersistedClaim) {
  LineWorld w(4);
  auto& checker = w.enableFullAudit();
  w.singleRootRp(1);
  CountingLog log;
  log.attach(w);

  FaultPlan plan;
  plan.crash(w.routerIds[1], ms(100), ms(200));
  w.net->applyFaultPlan(plan);

  w.sim->scheduleAt(0, [&]() { w.clients[3]->subscribe(Name()); });
  w.sim->scheduleAt(ms(300), [&]() { w.clients[0]->publish(Name::parse("/1/1"), 10, 5); });
  w.sim->run();

  EXPECT_EQ(w.routers[1]->reclaimsSent(), 2u) << "R0 and R2; the host face is skipped";
  EXPECT_EQ(w.routers[1]->demotions(), 0u);
  EXPECT_TRUE(w.routers[1]->isRpFor(Name::parse("/1/1")));
  EXPECT_EQ(w.routers[1]->claimEpoch(Name()), 1u);
  EXPECT_EQ(log.count(3, 5), 1);
  EXPECT_TRUE(checker.ok()) << checker.reportText();
}

// The delivery audit under live churn: clients join and leave while the
// publisher streams, with no quiesce step anywhere. The checker's
// subscription-interval ledger must compute each publication's entitled
// audience correctly or this run reports phantom starvation.
TEST(Chaos, DeliveryAuditPassesUnderLiveChurn) {
  LineWorld w(5);
  check::InvariantChecker::Options opts;
  opts.checkDelivery = true;
  auto& checker = w.enableFullAudit(opts);
  w.singleRootRp(2);
  CountingLog log;
  log.attach(w);

  w.sim->scheduleAt(0, [&]() { w.clients[0]->subscribe(Name()); });
  // Mid-stream churn: C3 joins, C4 joins and later leaves — all while the
  // publisher keeps streaming.
  w.sim->scheduleAt(ms(100), [&]() { w.clients[3]->subscribe(Name::parse("/1")); });
  w.sim->scheduleAt(ms(150), [&]() { w.clients[4]->subscribe(Name::parse("/1/1")); });
  w.sim->scheduleAt(ms(250), [&]() { w.clients[4]->unsubscribe(Name::parse("/1/1")); });

  constexpr std::uint64_t kTotal = 80;
  for (std::uint64_t s = 1; s <= kTotal; ++s) {
    w.sim->scheduleAt(ms(30) + ms(5) * static_cast<SimTime>(s - 1), [&w, s]() {
      w.clients[1]->publish(Name::parse("/1/1"), 15, s);
    });
  }
  w.sim->run();
  checker.finalAudit();

  EXPECT_TRUE(checker.ok()) << checker.reportText();
  EXPECT_EQ(checker.stats().publicationsTracked, kTotal);
  // The late joiner received the post-join stream but never the pre-join one.
  EXPECT_EQ(log.count(3, kTotal), 1);
  EXPECT_EQ(log.count(3, 1), 0);
  // The leaver received mid-window publications and stopped after leaving.
  EXPECT_EQ(log.count(4, 30), 1);
  EXPECT_EQ(log.count(4, kTotal), 0);
}

// ------------------------------------------------------- metrics aggregation

TEST(Chaos, FaultRecoveryReportAggregatesAllLayers) {
  LineWorld w(6, {}, SimParams::largeScale(), /*ring=*/true);
  CountingLog log;
  log.attach(w);
  MigrationCrashSetup::drive(w, /*reliable=*/true);

  std::vector<const copss::CopssRouter*> routers(w.routers.begin(), w.routers.end());
  std::vector<const gc::GCopssClient*> clients(w.clients.begin(), w.clients.end());
  auto report = metrics::collectFaultRecovery(*w.net, routers, clients);
  report.expectedDeliveries = 2 * MigrationCrashSetup::kTotal;
  report.deliveries = log.delivered.size();

  EXPECT_EQ(report.injected.crashes, 1u);
  EXPECT_EQ(report.injected.restarts, 1u);
  EXPECT_GT(report.injected.randomLoss, 0u);
  EXPECT_GT(report.networkDrops, 0u);
  EXPECT_GT(report.acksSent, 0u);
  EXPECT_EQ(report.acksReceived, MigrationCrashSetup::kTotal);
  EXPECT_GT(report.retransmissions, 0u);
  EXPECT_GT(report.resyncRequests, 0u);
  EXPECT_DOUBLE_EQ(report.deliveryRatio(), 1.0);

  const std::string path = ::testing::TempDir() + "fault_recovery.csv";
  ASSERT_TRUE(metrics::writeFaultRecoveryCsv(path, report));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char header[512] = {0};
  ASSERT_NE(std::fgets(header, sizeof header, f), nullptr);
  std::fclose(f);
  EXPECT_NE(std::string(header).find("delivery_ratio"), std::string::npos);
}

// ------------------------------------------------- epoch state across a crash

// The RP's claim and observed epochs persist across a crash (the FIB and the
// RP role are modelled as persisted config). The restarted RP's reclaim
// probe finds no rival, so its epoch-4 claim stands and the audits that
// recorded high water 4 before the crash stay clean.
TEST(Chaos, EpochStateSurvivesRestartWithoutStorageLoss) {
  LineWorld w(3);
  auto& checker = w.enableFullAudit();
  w.singleRootRp(0);

  w.sim->scheduleAt(ms(5), [&]() { w.routers[0]->becomeRp(Name(), 4); });
  w.sim->scheduleAt(ms(10), [&]() { checker.auditNow(); });

  FaultPlan plan;
  plan.crash(w.routerIds[0], ms(20), ms(40));
  w.net->applyFaultPlan(plan);

  w.sim->scheduleAt(ms(60), [&]() { checker.auditNow(); });
  w.sim->run();

  EXPECT_EQ(w.routers[0]->claimEpoch(Name()), 4u);
  EXPECT_EQ(w.routers[0]->demotions(), 0u);
  EXPECT_TRUE(checker.ok()) << checker.reportText();
}

// ---------------------------------------------------------------------------
// TTL'd reclaim behind a healed partition. Line 0-1-2-3-4: primary R1,
// standby R3, and the router BETWEEN them (R2) is down during the standby's
// epoch-2 takeover flood — when everything heals, the only epoch-2 witnesses
// (R3, R4) are two hops from the restarted primary. The direct neighbours
// R0/R2 never saw epoch 2; the TTL'd probe reaches a witness through R2's
// relay and converges.
// ---------------------------------------------------------------------------

TEST(Chaos, TtlReclaimConvergesBehindAHealedPartition) {
  LineWorld w(5);
  auto& checker = w.enableFullAudit();
  CountingLog log;
  w.singleRootRp(1);
  log.attach(w);

  FaultPlan plan;
  plan.crash(w.routerIds[1], ms(200), ms(700));  // primary: long outage
  plan.crash(w.routerIds[2], ms(205), ms(500));  // middle: misses the takeover
  w.net->applyFaultPlan(plan);

  w.sim->scheduleAt(0, [&w]() {
    w.clients[4]->subscribe(Name());
    w.routers[1]->startRpHeartbeats(w.routerIds[3], ms(10), ms(600));
    w.routers[3]->watchRpLiveness(w.routerIds[1], ms(25), ms(600));
  });
  // Post-convergence delivery through the survivor's tree.
  w.sim->scheduleAt(ms(800), [&w]() {
    w.clients[3]->publish(Name::parse("/9/9"), 10, 9);
  });
  w.sim->scheduleAt(ms(750), [&checker]() { checker.auditNow(); });
  w.sim->scheduleAt(ms(900), [&checker]() { checker.auditNow(); });
  w.sim->run();

  // The probe traveled R1 -> R2 -> R3; the witness demoted the stale claim.
  EXPECT_GE(w.routers[2]->reclaimForwards(), 1u) << "R2 must relay the probe";
  EXPECT_TRUE(w.routers[1]->rpPrefixes().empty());
  EXPECT_EQ(w.routers[1]->demotions(), 1u);
  EXPECT_TRUE(w.routers[3]->isRpFor(Name::parse("/9/9")));
  EXPECT_EQ(w.routers[3]->claimEpoch(Name()), 2u);
  std::size_t liveClaims = 0;
  for (auto* r : w.routers) liveClaims += r->rpPrefixes().size();
  EXPECT_EQ(liveClaims, 1u);
  EXPECT_EQ(log.count(4, 9), 1) << "delivery resumed through the survivor";
  EXPECT_TRUE(checker.ok()) << checker.reportText();
}

}  // namespace
}  // namespace gcopss::test
