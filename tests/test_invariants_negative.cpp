#include <gtest/gtest.h>

#include <algorithm>

#include "check/invariants.hpp"
#include "world_fixture.hpp"

namespace gcopss::test {
namespace {

using check::Invariant;
using check::InvariantChecker;
using check::Violation;

bool hasViolation(const InvariantChecker& c, Invariant inv) {
  return std::any_of(c.violations().begin(), c.violations().end(),
                     [&](const Violation& v) { return v.invariant == inv; });
}

const Violation* firstOf(const InvariantChecker& c, Invariant inv) {
  for (const Violation& v : c.violations()) {
    if (v.invariant == inv) return &v;
  }
  return nullptr;
}

// Two routers both claim the same prefix (the split-brain the deploy layer
// normally forbids). The auditor must name the duplicated prefix and one of
// the offending routers.
TEST(InvariantAuditNegative, DuplicateRpClaimIsReported) {
  LineWorld w(4);
  w.expectViolations = true;
  auto& checker = w.enableFullAudit();
  w.singleRootRp(0);

  w.sim->scheduleAt(ms(10), [&]() {
    w.routers[0]->becomeRp(Name::parse("/5"));
    w.routers[2]->becomeRp(Name::parse("/5"));
  });
  w.sim->scheduleAt(ms(50), [&]() { checker.auditNow(); });
  w.sim->run();

  EXPECT_FALSE(checker.ok());
  const Violation* dup = nullptr;
  for (const Violation& v : checker.violations()) {
    if (v.invariant == Invariant::PrefixFreeRp &&
        v.detail.find("duplicate") != std::string::npos) {
      dup = &v;
      break;
    }
  }
  ASSERT_NE(dup, nullptr) << checker.reportText();
  EXPECT_NE(dup->detail.find("/5"), std::string::npos) << dup->detail;
  EXPECT_TRUE(dup->node == w.routerIds[0] || dup->node == w.routerIds[2]);
}

// A router unilaterally claims a sub-prefix of the live root RP without the
// root delegating it (no FIB handoff): nested-claim-without-delegation.
TEST(InvariantAuditNegative, NestedClaimWithoutDelegationIsReported) {
  LineWorld w(4);
  w.expectViolations = true;
  auto& checker = w.enableFullAudit();
  w.singleRootRp(0);

  w.sim->scheduleAt(ms(10), [&]() { w.routers[3]->becomeRp(Name::parse("/1")); });
  w.sim->scheduleAt(ms(50), [&]() { checker.auditNow(); });
  w.sim->run();

  EXPECT_FALSE(checker.ok());
  const Violation* v = firstOf(checker, Invariant::PrefixFreeRp);
  ASSERT_NE(v, nullptr) << checker.reportText();
  EXPECT_NE(v->detail.find("delegation"), std::string::npos) << v->detail;
}

// A subscriber's access link goes down for a window in the middle of a
// forced RP split, killing the publications multicast during that window.
// The delivery audit must report exactly that subscriber, with the lost
// sequence numbers as witnesses, and nothing else.
TEST(InvariantAuditNegative, DroppedMigrationPublicationIsWitnessed) {
  LineWorld w(6);
  w.expectViolations = true;
  InvariantChecker::Options opts;
  opts.checkDelivery = true;
  auto& checker = w.enableFullAudit(opts);
  w.singleRootRp(0);

  // Subscriber C3's access link is dead for 30 ms starting at the split.
  FaultPlan plan;
  plan.seed = 11;
  plan.linkDown(w.clientIds[3], w.routerIds[3], ms(450), ms(480));
  w.net->applyFaultPlan(plan);

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
  w.sim->scheduleAt(ms(450), [&]() { splitHappened = w.routers[0]->forceSplit(); });
  w.sim->run();
  checker.finalAudit();

  ASSERT_TRUE(splitHappened);
  EXPECT_FALSE(checker.ok());
  EXPECT_TRUE(hasViolation(checker, Invariant::MigrationDelivery))
      << checker.reportText();
  for (const Violation& v : checker.violations()) {
    // Only the blacked-out subscriber may be starved; every violation must
    // carry at least one witness publication from the down window.
    ASSERT_EQ(v.invariant, Invariant::MigrationDelivery) << checker.reportText();
    EXPECT_EQ(v.node, w.clientIds[3]);
    ASSERT_FALSE(v.witnessSeqs.empty());
    for (std::uint64_t s : v.witnessSeqs) {
      // Publication must have been in flight toward C3 during the down
      // window (a few ms of propagation ahead of the publish instant).
      const SimTime at = ms(50) + ms(4) * static_cast<SimTime>(s);
      EXPECT_GE(at, ms(435));
      EXPECT_LE(at, ms(480));
    }
  }
}

// Two routers hold forged claims on the same prefix at the same epoch.
// Epochs are minted monotonically (max observed + 1), so no legal transition
// can produce this — the audit must flag it even though a takeover flood or
// reclaim handshake would excuse a plain duplicate claim.
TEST(InvariantAuditNegative, ForgedSameEpochDuplicateClaimIsReported) {
  LineWorld w(4);
  w.expectViolations = true;
  auto& checker = w.enableFullAudit();
  w.singleRootRp(0);

  w.sim->scheduleAt(ms(10), [&]() {
    w.routers[1]->becomeRp(Name::parse("/7"), 5);
    w.routers[3]->becomeRp(Name::parse("/7"), 5);
  });
  w.sim->scheduleAt(ms(50), [&]() { checker.auditNow(); });
  w.sim->run();

  EXPECT_FALSE(checker.ok());
  const Violation* dup = nullptr;
  for (const Violation& v : checker.violations()) {
    if (v.invariant == Invariant::EpochMonotonic &&
        v.detail.find("same epoch") != std::string::npos) {
      dup = &v;
      break;
    }
  }
  ASSERT_NE(dup, nullptr) << checker.reportText();
  EXPECT_NE(dup->detail.find("/7"), std::string::npos) << dup->detail;
  EXPECT_NE(dup->detail.find("epoch 5"), std::string::npos) << dup->detail;
  EXPECT_TRUE(dup->node == w.routerIds[1] || dup->node == w.routerIds[3]);
}

// A prefix the audit has seen owned at epoch 4 reappears claimed at epoch 2
// with no control packet in flight to excuse it: the stale-owner resurrection
// the reconciliation handshake exists to prevent.
TEST(InvariantAuditNegative, EpochRegressionIsReported) {
  LineWorld w(4);
  w.expectViolations = true;
  auto& checker = w.enableFullAudit();
  w.singleRootRp(0);

  w.sim->scheduleAt(ms(10), [&]() { w.routers[2]->becomeRp(Name::parse("/9"), 4); });
  // First audit records the high-water mark (4) for /9.
  w.sim->scheduleAt(ms(30), [&]() { checker.auditNow(); });
  // Forge the regression: the same router re-claims below the high water.
  // (becomeRp() would mint max(seen)+1; only the forging overload can go
  // backwards, standing in for a corrupted restart.)
  w.sim->scheduleAt(ms(50), [&]() { w.routers[2]->becomeRp(Name::parse("/9"), 2); });
  w.sim->scheduleAt(ms(70), [&]() { checker.auditNow(); });
  w.sim->run();

  const Violation* reg = nullptr;
  for (const Violation& v : checker.violations()) {
    if (v.invariant == Invariant::EpochMonotonic &&
        v.detail.find("regression") != std::string::npos) {
      reg = &v;
      break;
    }
  }
  ASSERT_NE(reg, nullptr) << checker.reportText();
  EXPECT_EQ(reg->node, w.routerIds[2]);
  EXPECT_NE(reg->detail.find("/9"), std::string::npos) << reg->detail;
  EXPECT_NE(reg->detail.find("high water 4"), std::string::npos) << reg->detail;
}

// A single subscription entry is knocked out of a face's Bloom filter while
// the exact table still holds it — the silent-starvation desync the ST
// soundness audit exists to catch.
TEST(InvariantAuditNegative, CorruptedStBloomEntryIsReported) {
  LineWorld w(4);
  w.expectViolations = true;
  auto& checker = w.enableFullAudit();
  w.singleRootRp(1);

  w.sim->scheduleAt(0, [&]() {
    w.clients[0]->subscribe(Name::parse("/1"));
    w.clients[3]->subscribe(Name::parse("/2"));
  });
  w.sim->scheduleAt(ms(20), [&]() { checker.auditNow(); });
  bool cleanBeforeCorruption = false;
  w.sim->scheduleAt(ms(30), [&]() {
    cleanBeforeCorruption = checker.ok();
    // The RP's ST entry for C0's subscription lives on the face toward R0.
    w.routers[1]->st().corruptBloomForAudit(w.routerIds[0], Name::parse("/1"));
  });
  w.sim->scheduleAt(ms(40), [&]() { checker.auditNow(); });
  w.sim->run();

  EXPECT_TRUE(cleanBeforeCorruption);
  EXPECT_FALSE(checker.ok());
  const Violation* v = firstOf(checker, Invariant::StSoundness);
  ASSERT_NE(v, nullptr) << checker.reportText();
  EXPECT_EQ(v->node, w.routerIds[1]);
  EXPECT_NE(v->detail.find("/1"), std::string::npos) << v->detail;
}

}  // namespace
}  // namespace gcopss::test
