#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/name.hpp"
#include "gcopss/client.hpp"
#include "net/network.hpp"
#include "net/observer.hpp"

namespace gcopss::copss {
class CopssRouter;
}

namespace gcopss::check {

// The paper's correctness claims, as machine-checked global invariants.
enum class Invariant : std::uint8_t {
  PrefixFreeRp,        // unique RP ownership: no duplicate or undelegated
                       // nested claim across live routers (Section III-B)
  StSoundness,         // every exact subscription passes its face's Bloom
                       // filter — a miss silently starves a subtree
  MigrationDelivery,   // every publication reaches every entitled subscriber
                       // exactly once, including mid-migration (Section IV-B)
  PacketConservation,  // injected = delivered + dropped(reason) + in-flight
  LoopFreedom,         // CD-FIB walks terminate at a single agreed RP
  EpochMonotonic,      // ownership epochs never regress, and no two live
                       // routers claim a prefix at the same epoch
};

const char* invariantName(Invariant inv);

// One audited failure: when, where, what, and which publications witness it.
struct Violation {
  Invariant invariant;
  SimTime at = 0;
  NodeId node = kInvalidNode;  // offending node (kInvalidNode: global)
  std::string detail;
  std::vector<std::uint64_t> witnessSeqs;
};

// Informational counters accumulated across audits (never violations).
struct AuditStats {
  std::uint64_t audits = 0;
  std::uint64_t rpClaimsChecked = 0;
  std::uint64_t stEntriesChecked = 0;
  std::uint64_t fibWalks = 0;
  std::uint64_t publicationsTracked = 0;
  std::uint64_t deliveriesObserved = 0;
  // Bloom false-positive drift, measured against the exact-map ground truth
  // over the audit probe set, vs the filter's own fill-level prediction.
  std::uint64_t bloomProbes = 0;
  std::uint64_t bloomFalseProbes = 0;
  double maxPredictedBloomFp = 0.0;

  double measuredBloomFpRate() const {
    return bloomProbes == 0
               ? 0.0
               : static_cast<double>(bloomFalseProbes) / static_cast<double>(bloomProbes);
  }
};

// Audits global G-COPSS invariants over a deployed Network at configurable
// checkpoints. Installs itself as the Network's PacketObserver to derive
// packet conservation and publication delivery from raw packet movement
// (it never trusts router-side counters), and inspects router/client state
// directly for the control-plane invariants.
//
// Lifecycle: construct after the world is wired (routers/clients attached),
// before sim.run(). Call auditNow() at checkpoints and/or schedulePeriodic()
// to let the DES drive audits; call finalAudit() after the run drains.
// Violations accumulate in report() — tests assert `checker.ok()` and print
// `checker.reportText()` on failure.
class InvariantChecker : public PacketObserver {
 public:
  struct Options {
    bool checkPrefixFree = true;
    bool checkStSoundness = true;
    bool checkConservation = true;
    bool checkLoopFreedom = true;
    // Epoch monotonicity across audits (needs >= 2 audits to witness a
    // regression; the reconciliation-handshake window is suppressed the same
    // way migration floods are).
    bool checkEpochs = true;
    // Delivery auditing is opt-in. The entitled audience is derived from a
    // per-client subscription-interval ledger fed by the wire-observed
    // (un)subscribes, so it stays correct under live churn — no quiesce step
    // required.
    bool checkDelivery = false;
    // A publication must have reached its audience this long after being
    // published for finalAudit() to demand it (in-flight ones are skipped).
    SimTime deliverySettle = ms(200);
    // A subscription only entitles its client to publications issued at
    // least this long after the subscribe left the client (the join needs
    // time to propagate to the RP tree); symmetrically, an unsubscribe
    // within deliverySettle of a publication waives the delivery demand.
    SimTime subscriptionSettle = ms(20);
    // Measured Bloom FP rate above this ceiling is a violation (needs at
    // least 100 probes, so tiny probe sets cannot trip it).
    double bloomFpCeiling = 0.05;
    // Extra CDs to probe in the loop-freedom/ownership walks, beyond the
    // auto-derived set (all routed prefixes + all RP claims).
    std::vector<Name> extraProbes;
    std::size_t maxViolations = 64;  // stop recording past this many
  };

  InvariantChecker(Network& net, std::vector<copss::CopssRouter*> routers,
                   std::vector<gc::GCopssClient*> clients)
      : InvariantChecker(net, std::move(routers), std::move(clients), Options{}) {}
  InvariantChecker(Network& net, std::vector<copss::CopssRouter*> routers,
                   std::vector<gc::GCopssClient*> clients, Options opts);
  ~InvariantChecker() override;
  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  // Run the state invariants (RP ownership, ST soundness, loop freedom,
  // conservation) against the current instant.
  void auditNow();
  // Schedule auditNow() every `interval` until `until` (inclusive).
  void schedulePeriodic(SimTime interval, SimTime until);
  // End-of-run audit: state invariants with strict conservation (nothing may
  // still be in flight once the event queue drained) plus the delivery /
  // exactly-once audit when enabled.
  void finalAudit();

  bool ok() const { return violations_.empty(); }
  const std::vector<Violation>& violations() const { return violations_; }
  const AuditStats& stats() const { return stats_; }
  // Structured multi-line report (one line per violation: time, node,
  // invariant, detail, witness packet seqs) suitable for a failing test.
  std::string reportText() const;

  // --- PacketObserver (called by Network; not for direct use) ---
  void onWireSend(NodeId from, NodeId to, const PacketPtr& pkt, SimTime now) override;
  void onCpuEnqueue(NodeId at, NodeId fromFace, const PacketPtr& pkt, SimTime now) override;
  void onHandle(NodeId at, NodeId fromFace, const PacketPtr& pkt, SimTime now) override;
  void onDrop(NodeId at, const PacketPtr& pkt, DropReason reason, SimTime now) override;

 private:
  void addViolation(Invariant inv, NodeId node, std::string detail,
                    std::vector<std::uint64_t> witness = {});
  void auditRpOwnership();
  void auditStSoundness();
  void auditLoopFreedom();
  void auditEpochMonotonicity();
  void auditConservation(bool strict);
  void auditDelivery();
  bool entitledAt(NodeId client, const std::vector<Name>& cds,
                  SimTime publishedAt) const;
  std::vector<Name> probeSet() const;
  bool liveRouter(const copss::CopssRouter* r) const;
  bool migrationControlInFlightFor(const Name& probe) const;
  void retireMigrationCopy(const PacketPtr& pkt);

  // A client-originated publication; the entitled audience is derived at
  // audit time from the subscription-interval ledger.
  struct PubRecord {
    std::vector<Name> cds;
    SimTime publishedAt = 0;
    std::set<NodeId> delivered;  // client nodes that accepted it
  };

  // One contiguous span a client was subscribed to a CD. from == -1: already
  // subscribed when the checker attached (always settled). to == -1: open.
  struct SubInterval {
    SimTime from = -1;
    SimTime to = -1;
  };

  Network& net_;
  std::vector<copss::CopssRouter*> routers_;
  std::vector<gc::GCopssClient*> clients_;
  std::map<NodeId, gc::GCopssClient*> clientById_;
  Options opts_;

  // -- conservation ledger (pure packet-copy accounting) --
  std::uint64_t wireSends_ = 0;
  std::uint64_t wireFaultDrops_ = 0;
  std::uint64_t queueDrops_ = 0;  // sender face-queue refusals (wire-side)
  std::uint64_t wireArrivals_ = 0;   // enqueues with a real arrival face
  std::uint64_t localEnqueues_ = 0;  // enqueues originated on-node
  std::uint64_t nodeFailedDrops_ = 0;
  std::uint64_t bufferDrops_ = 0;
  std::uint64_t crashedQueuedDrops_ = 0;
  std::uint64_t handled_ = 0;
  // Network counter baselines at attach, for the cross-check against the
  // Network's own meters.
  std::uint64_t baseLinkPackets_ = 0;
  std::uint64_t baseDrops_ = 0;

  // In-flight ownership-control packets (RpHandoff / FibAdd floods, plus the
  // RpReclaim/RpDemote reconciliation handshake) by identity, with a copy
  // count (a flood sends one packet object to many faces) and the prefixes
  // they carry. A FIB-walk cycle, duplicate claim or epoch mismatch covered
  // by one of these is the benign in-flight transient, not a protocol
  // defect: links are FIFO and event handling is atomic, so the control
  // packet settles the disagreement before any audit can observe it again.
  std::map<const Packet*, std::pair<int, std::vector<Name>>> migrationInFlight_;

  // -- epoch audit state --
  // Highest claim epoch witnessed per prefix across all audits (fed from
  // live routers' claims and observed high-water marks).
  std::map<Name, std::uint64_t> epochHighWater_;

  // -- delivery ledger --
  // A publication's identity: its publisher and that publisher's seq.
  using PubKey = std::pair<NodeId, std::uint64_t>;
  std::map<PubKey, PubRecord> pubs_;
  std::map<NodeId, std::set<PubKey>> accepted_;  // client -> publications
  std::map<NodeId, std::uint64_t> baseReceived_;  // client received() at attach
  // Per-(client, CD) subscription intervals, wire-observed; seeded from the
  // clients' subscription sets at attach.
  std::map<NodeId, std::map<Name, std::vector<SubInterval>>> subLedger_;

  std::vector<Violation> violations_;
  std::uint64_t suppressedViolations_ = 0;
  AuditStats stats_;
};

}  // namespace gcopss::check
