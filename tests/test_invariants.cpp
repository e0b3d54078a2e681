#include <gtest/gtest.h>

#include "check/invariants.hpp"
#include "world_fixture.hpp"

namespace gcopss::test {
namespace {

using check::Invariant;
using check::InvariantChecker;

// Steady state: a prefix-free two-RP deployment under continuous pub/sub
// traffic WITH live churn — a subscriber joins and another leaves in the
// middle of the publication stream, no quiesce step. Every invariant (RP
// ownership, ST soundness, loop freedom, conservation, delivery) must audit
// clean at every checkpoint; the delivery audit's subscription ledger keeps
// the entitled audience correct across the churn.
TEST(InvariantAudit, SteadyStateAuditsClean) {
  LineWorld w(5);
  InvariantChecker::Options opts;
  opts.checkDelivery = true;
  auto& checker = w.enableFullAudit(opts);

  copss::RpAssignment a;
  a.prefixToRp[Name::parse("/1")] = w.routerIds[1];
  a.prefixToRp[Name::parse("/2")] = w.routerIds[3];
  w.installAssignment(a);

  w.sim->scheduleAt(0, [&]() {
    w.clients[0]->subscribe(Name::parse("/1"));
    w.clients[2]->subscribe(Name::parse("/1/1"));
    w.clients[4]->subscribe(Name::parse("/2"));
  });
  std::uint64_t seq = 0;
  for (int i = 0; i < 100; ++i) {
    ++seq;
    const Name cd = (i % 2 == 0) ? Name::parse("/1/1") : Name::parse("/2/7");
    w.sim->scheduleAt(ms(50) + ms(3) * i, [&, cd, s = seq]() {
      w.clients[1]->publish(cd, 20, s);
    });
  }
  // Live churn mid-stream: C3 joins while publications are in flight, C0
  // leaves a hundred milliseconds later. Neither may trip the audit.
  w.sim->scheduleAt(ms(150), [&]() { w.clients[3]->subscribe(Name::parse("/1/1")); });
  w.sim->scheduleAt(ms(250), [&]() { w.clients[0]->unsubscribe(Name::parse("/1")); });
  checker.schedulePeriodic(ms(25), ms(500));
  w.sim->run();
  checker.finalAudit();

  EXPECT_TRUE(checker.ok()) << checker.reportText();
  EXPECT_GE(checker.stats().audits, 10u);
  EXPECT_GT(checker.stats().rpClaimsChecked, 0u);
  EXPECT_GT(checker.stats().stEntriesChecked, 0u);
  EXPECT_GT(checker.stats().fibWalks, 0u);
  EXPECT_EQ(checker.stats().publicationsTracked, seq);
  EXPECT_GT(checker.stats().deliveriesObserved, 0u);
}

// The paper's loss-free migration claim, audited continuously: a forced RP
// split happens mid-stream with checkpoints every 10 ms, so audits land in
// every phase (relay, FIB flood, join/confirm/leave). The resulting nested
// RP claims must be recognised as delegated, the transient trees must stay
// loop-free, and no entitled subscriber may miss a publication.
TEST(InvariantAudit, ForcedSplitAuditsCleanMidMigration) {
  LineWorld w(6);
  InvariantChecker::Options opts;
  opts.checkDelivery = true;
  auto& checker = w.enableFullAudit(opts);
  w.singleRootRp(0);

  w.sim->scheduleAt(0, [&]() {
    w.clients[2]->subscribe(Name());
    w.clients[3]->subscribe(Name::parse("/1"));
    w.clients[5]->subscribe(Name::parse("/2"));
  });
  const std::vector<Name> cds = {Name::parse("/1/1"), Name::parse("/1/2"),
                                 Name::parse("/2/1"), Name::parse("/2/2")};
  w.internCds(cds);
  std::uint64_t seq = 0;
  for (int i = 0; i < 50; ++i) {
    for (const Name& cd : cds) {
      ++seq;
      w.sim->scheduleAt(ms(50) + ms(4) * static_cast<SimTime>(seq),
                        [&, cd, s = seq]() { w.clients[1]->publish(cd, 20, s); });
    }
  }
  bool splitHappened = false;
  w.sim->scheduleAt(ms(50) + ms(4) * 100,
                    [&]() { splitHappened = w.routers[0]->forceSplit(); });
  // A late joiner arrives after the split: its join must find the delegated
  // RP, and the delivery ledger must demand only post-join publications.
  w.sim->scheduleAt(ms(650), [&]() { w.clients[4]->subscribe(Name::parse("/2/1")); });
  checker.schedulePeriodic(ms(10), ms(1200));
  w.sim->run();
  checker.finalAudit();

  ASSERT_TRUE(splitHappened);
  EXPECT_TRUE(checker.ok()) << checker.reportText();
  // The audits really did straddle the migration: nested (delegated) claims
  // were present at some checkpoint.
  EXPECT_GT(w.routers[0]->splitsInitiated(), 0u);
  EXPECT_GE(checker.stats().audits, 50u);
  EXPECT_EQ(checker.stats().publicationsTracked, seq);
}

// An RP retiring entirely (the delete-RP half of Section IV-B) under audit.
TEST(InvariantAudit, RetireAuditsClean) {
  LineWorld w(4);
  auto& checker = w.enableFullAudit();
  w.singleRootRp(1);

  w.sim->scheduleAt(0, [&]() { w.clients[3]->subscribe(Name()); });
  for (int i = 0; i < 30; ++i) {
    w.sim->scheduleAt(ms(20) + ms(5) * i, [&, i]() {
      w.clients[0]->publish(Name::parse("/1/1"), 20, 1000 + i);
    });
  }
  w.sim->scheduleAt(ms(90), [&]() { ASSERT_TRUE(w.routers[1]->retireTo(w.routerIds[2])); });
  checker.schedulePeriodic(ms(15), ms(600));
  w.sim->run();
  checker.finalAudit();

  EXPECT_TRUE(checker.ok()) << checker.reportText();
  EXPECT_FALSE(w.routers[1]->isRpFor(Name::parse("/1/1")));
  EXPECT_TRUE(w.routers[2]->isRpFor(Name::parse("/1/1")));
}

// Reliable publish under seeded loss on the publisher's access link: the
// retransmit/ack machinery must close every gap, so the delivery audit and
// its exactly-once cross-check against the clients' own dedup stay clean
// even though the wire loses packets (all accounted by conservation).
TEST(InvariantAudit, ReliablePublishUnderLossStaysExactlyOnce) {
  LineWorld w(5);
  InvariantChecker::Options opts;
  opts.checkDelivery = true;
  auto& checker = w.enableFullAudit(opts);
  w.singleRootRp(2);

  FaultPlan plan;
  plan.seed = 7;
  plan.loseOnLink(w.clientIds[1], w.routerIds[1], 0.25);
  w.net->applyFaultPlan(plan);
  w.clients[1]->enableReliablePublish({ms(30), 8});

  w.sim->scheduleAt(0, [&]() {
    w.clients[0]->subscribe(Name());
    w.clients[4]->subscribe(Name::parse("/3"));
  });
  std::uint64_t seq = 0;
  for (int i = 0; i < 60; ++i) {
    ++seq;
    w.sim->scheduleAt(ms(50) + ms(8) * i, [&, s = seq]() {
      w.clients[1]->publish(Name::parse("/3/1"), 20, s);
    });
  }
  // Mid-run join while retransmissions are in flight: the ledger must only
  // demand post-join publications for C2, retransmitted or not.
  w.sim->scheduleAt(ms(200), [&]() { w.clients[2]->subscribe(Name::parse("/3/1")); });
  w.sim->run();
  checker.finalAudit();

  EXPECT_TRUE(checker.ok()) << checker.reportText();
  EXPECT_GT(w.net->faultStats().randomLoss, 0u);  // the loss really happened
  EXPECT_GT(w.clients[1]->retransmissions(), 0u);
  EXPECT_EQ(checker.stats().publicationsTracked, seq);
}

}  // namespace
}  // namespace gcopss::test
