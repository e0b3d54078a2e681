#pragma once

#include <functional>
#include <map>
#include <ranges>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/seq_window.hpp"
#include "common/thread_annotations.hpp"
#include "copss/balancer.hpp"
#include "copss/packets.hpp"
#include "copss/st.hpp"
#include "ndn/forwarder.hpp"
#include "net/network.hpp"

namespace gcopss::copss {

// A G-COPSS router (Fig. 2): an NDN forwarding engine plus the COPSS engine
// (Subscription Table, RP role, dynamic RP balancing). Backward compatible
// with plain NDN: Interest/Data without COPSS encapsulation flow through the
// embedded NDN forwarder untouched, so query/response applications (the QR
// snapshot broker) run over the same routers.
//
// Data path for a publication (Section III-C):
//   host --Multicast--> first-hop router: pre-hash CDs, encapsulate in an
//   Interest named by the CD, forward along the CD FIB toward the unique
//   (prefix-free) RP; the RP decapsulates and multicasts down the ST tree;
//   transit routers forward Multicast packets by ST prefix match.
class CopssRouter : public Node {
 public:
  struct Options {
    SubscriptionTable::Options st;
    ndn::Forwarder::Options ndn;
    // Hybrid-G-COPSS: this router is an IP-speed core that forwards group
    // multicast at plain-IP cost and never inspects CDs beyond the group.
    bool ipSpeedCore = false;
    // Dynamic RP balancing (Section IV-B).
    bool autoBalance = false;
    RpLoadBalancer::Options balance;
  };

  // Forwarding budget of the restart reclaim probe: routers relay fresh
  // copies this many hops past the claimant's neighbours (duplicate-
  // suppressed per nonce) and route answering demotes back along the reverse
  // path. Behind a healed partition the direct neighbours may be as stale as
  // the claimant, so a one-hop probe would leave the split brain standing.
  static constexpr std::uint32_t kReclaimTtl = 2;

  CopssRouter(NodeId id, Network& net) : CopssRouter(id, net, Options{}) {}
  CopssRouter(NodeId id, Network& net, Options opts);

  // ---- static control plane (installed by the deployment helper) ----
  void addCdRoute(const Name& prefix, NodeId nextHopFace);
  // Claim `prefix` at the next ownership epoch (highest observed + 1); the
  // explicit-epoch overload is for the deploy layer (initial epoch 1) and for
  // tests that forge conflicting claims on purpose.
  void becomeRp(const Name& prefix);
  void becomeRp(const Name& prefix, std::uint64_t epoch);
  bool isRpFor(const Name& cd) const;
  bool isRpFor(NameId cd) const;
  // The prefixes this router claims as RP: the keys of rpEpochs().
  auto rpPrefixes() const { return std::views::keys(rpEpochs_); }
  // ---- ownership epochs (split-brain reconciliation) ----
  // Epoch of this router's own claim on `prefix` (0: no claim).
  std::uint64_t claimEpoch(const Name& prefix) const;
  // Highest epoch this router has observed for `prefix`, through its own
  // claims, FIB floods, handoffs, heartbeats or reconciliation traffic.
  std::uint64_t epochSeen(const Name& prefix) const;
  const std::map<Name, std::uint64_t>& rpEpochs() const { return rpEpochs_; }
  const std::map<Name, std::uint64_t>& epochsSeen() const { return epochSeen_; }
  // Record an externally-learned epoch (deploy stamps the initial assignment
  // on every router so epoch 1 is network-wide knowledge from the start).
  void observeEpoch(const Name& prefix, std::uint64_t epoch);
  // Faces leading to end hosts (not flooded with FIB updates).
  void markHostFace(NodeId face) { hostFaces_.insert(face); }
  bool isHostFace(NodeId face) const { return hostFaces_.count(face) > 0; }

  // Candidate routers eligible to become a new RP when auto-balancing.
  void setRpCandidates(std::vector<NodeId> candidates) {
    rpCandidates_ = std::move(candidates);
  }
  // Notification hook: this RP migrated `cds` to `newRp`.
  std::function<void(NodeId newRp, const std::vector<Name>& cds)> onRpSplit;

  // ---- node-local application support (e.g. a broker co-located with the
  // router, the paper's "decentralized set of servers") ----
  // Subscribe the local application to `cd`; matching multicasts are handed
  // to `onLocalMulticast` instead of a network face.
  void subscribeLocal(const Name& cd);
  std::function<void(const MulticastPacket&, SimTime now)> onLocalMulticast;

  // ---- Node interface ----
  void handle(NodeId fromFace, const PacketPtr& pkt) override;
  SimTime serviceTime(const PacketPtr& pkt) const override;

  // ---- introspection (tests / benches) ----
  SubscriptionTable& st() { return st_; }
  const SubscriptionTable& st() const { return st_; }
  ndn::Forwarder& ndnEngine() { return fwd_; }
  ndn::Fib& cdFib() { return cdFib_; }
  std::uint64_t multicastsForwarded() const { return multicastsForwarded_; }
  std::uint64_t rpDecapsulations() const { return rpDecapsulations_; }
  std::uint64_t unroutablePublications() const { return unroutable_; }
  std::uint64_t duplicatesSuppressed() const { return dupSuppressed_; }
  std::uint64_t splitsInitiated() const { return splitsInitiated_; }
  // -- recovery counters (aggregated by metrics::collectFaultRecovery) --
  std::uint64_t acksSent() const { return acksSent_; }
  std::uint64_t heartbeatsSent() const { return heartbeatsSent_; }
  std::uint64_t failovers() const { return failovers_; }
  SimTime lastFailoverAt() const { return lastFailoverAt_; }
  std::uint64_t resyncRequestsSent() const { return resyncRequestsSent_; }
  std::uint64_t subscriptionReplays() const { return subscriptionReplays_; }
  std::uint64_t joinReplays() const { return joinReplays_; }
  std::uint64_t reclaimsSent() const { return reclaimsSent_; }
  std::uint64_t reclaimForwards() const { return reclaimForwards_; }
  std::uint64_t demotions() const { return demotions_; }
  std::uint64_t staleAnnouncementsIgnored() const { return staleAnnouncementsIgnored_; }

  // Force a split now (tests); returns false if no split is possible.
  bool forceSplit();

  // Retire as an RP entirely: migrate every served prefix to `target` using
  // the same loss-free handoff machinery (the "delete RPs" half of Section
  // IV-B's dynamic add/delete). Returns false if this router serves nothing
  // or target is this router.
  bool retireTo(NodeId target);

  // Failure recovery: take over `prefixes` whose RP has crashed. Becomes the
  // RP and floods the FIB change; every interested router re-homes onto this
  // router's tree via the join/confirm machinery (leaves toward the dead RP
  // fall into the void, harmlessly). Publications routed to the dead RP
  // during the outage are lost — the recovery bounds the loss window, it
  // cannot undo it (publishers using reliable mode retransmit into the new
  // tree, closing the gap end-to-end). Each prefix is claimed one past the
  // highest epoch observed for it, a standby's beacons included, so the
  // takeover flood outranks any restart-time re-advertisement by the old
  // primary.
  void assumeRp(const std::vector<Name>& prefixes);

  // ---- RP liveness / automatic failover ----
  // As an RP: beacon the served prefixes to `standby` every `interval`
  // (ticks stop past `until` so bounded runs drain the event queue).
  void startRpHeartbeats(NodeId standby, SimTime interval, SimTime until = INT64_MAX);
  // As the standby: if no heartbeat from `rp` arrives for `timeout`, assume
  // the prefixes from the last beacon via assumeRp(). Detection latency is
  // bounded by timeout + timeout/2 (the check period).
  void watchRpLiveness(NodeId rp, SimTime timeout, SimTime until = INT64_MAX);

  // ---- crash/restart lifecycle (invoked by Network::applyFaultPlan) ----
  // A crash loses all volatile COPSS state: ST, pending migrations, scoped
  // aggregation refcounts, served-seq windows. The FIB and RP role survive
  // (modeled as persisted config / routing-protocol state).
  void onCrash() override;
  // A restart asks every neighbour to re-announce (ST resync).
  void onRestart() override;

 protected:
  // Forward a Multicast along the ST tree, to faces not yet served with its
  // (publisher, seq) (per-face suppression: duplicates are dropped per face,
  // never in a way that starves a subtree). Returns how many faces the ST
  // matched, served before or not.
  std::size_t stForward(NodeId excludeFace, const PacketPtr& multicast);

 private:
  // -- packet handlers --
  void onSubscribe(NodeId fromFace, const SubscribePacket& pkt);
  void onUnsubscribe(NodeId fromFace, const UnsubscribePacket& pkt);
  void onMulticast(NodeId fromFace, const PacketPtr& pkt);
  void onEncapInterest(NodeId fromFace, const ndn::InterestPacketPtr& pkt);
  void onFibAdd(NodeId fromFace, const FibAddPacket& pkt);
  void onHandoff(NodeId fromFace, const RpHandoffPacket& pkt);
  void onJoin(NodeId fromFace, const StJoinPacket& pkt);
  void onConfirm(NodeId fromFace, const StConfirmPacket& pkt);
  void onLeave(NodeId fromFace, const StLeavePacket& pkt);
  void onPubAck(NodeId fromFace, const PacketPtr& pkt);
  void onHeartbeat(NodeId fromFace, const PacketPtr& pkt);
  void onResyncRequest(NodeId fromFace, const ResyncRequestPacket& pkt);
  void onReclaim(NodeId fromFace, const RpReclaimPacket& pkt);
  void onDemote(NodeId fromFace, const RpDemotePacket& pkt);
  void heartbeatTick();
  void watchTick();
  // Next epoch this router would claim `prefix` at (highest observed + 1).
  std::uint64_t nextEpochFor(const Name& prefix) const;
  // Drop the claim on `prefix` and point the FIB at `towardFace` (the face
  // that carried the higher-epoch announcement). `rejoinAsSubscriber` is the
  // demotion path: the loser stays in the tree as a plain subscriber.
  void retireClaim(const Name& prefix, NodeId towardFace, bool rejoinAsSubscriber);

  // Deliver a decapsulated publication as the RP: ST multicast + balancing.
  void rpDeliver(NodeId arrivalFace, const PacketPtr& multicast);
  // Expand an unscoped host (un)subscription over the intersecting assigned
  // prefixes and forward one scoped copy toward each RP.
  void propagateControl(const Name& cd, bool subscribe, bool resync = false);
  // Forward one scoped (un)subscribe copy toward its RP (aggregated on a
  // per-(cd, scope) refcount).
  void forwardScoped(const Name& cd, const Name& scope, bool subscribe,
                     bool resync = false);

  void maybeSplit();
  void initiateSplit(NodeId newRp, std::vector<Name> cds);

  // Per-migration state at this router (Section IV-B, phase 3).
  struct TxnState {
    std::vector<Name> cds;
    NodeId newUpstream = kInvalidNode;  // face toward the new RP
    NodeId oldUpstream = kInvalidNode;  // pre-flood FIB face toward the old RP
    bool isOrigin = false;              // this router is the new RP
    bool joinSent = false;
    bool confirmed = false;
    bool leftOld = false;
    std::vector<NodeId> pendingDownstream;  // joins awaiting our confirm
    std::set<NodeId> newDownstream;
  };
  TxnState& txn(std::uint64_t id) { return txns_[id]; }
  void activateAndConfirmDownstream(TxnState& t, std::uint64_t txnId);
  void maybeLeaveOldTree(TxnState& t, std::uint64_t txnId);
  void checkDismantle(std::uint64_t txnId, const std::vector<Name>& cds);

  Options opts_;
  ndn::Forwarder fwd_;
  // Forwarding state is shard-confined: a router is touched only by the
  // shard that owns its node (or sequentially), never by two workers at once.
  GCOPSS_SHARD_CONFINED ndn::Fib cdFib_;  // CD prefix -> face toward serving RP (local = we are RP)
  GCOPSS_SHARD_CONFINED SubscriptionTable st_;
  // Ownership epochs. Both survive a crash: the claim epochs are the
  // persisted RP config (their keys are the claimed prefixes), and the
  // observed high-water marks model routing-protocol state that re-converges
  // with the FIB.
  std::map<Name, std::uint64_t> rpEpochs_;   // own claims: prefix -> epoch
  std::map<Name, std::uint64_t> epochSeen_;  // highest observed per prefix
  std::set<NodeId> hostFaces_;
  std::vector<NodeId> rpCandidates_;
  RpLoadBalancer balancer_;

  std::map<std::uint64_t, TxnState> txns_;
  std::unordered_set<std::uint64_t> seenFloods_;
  // TTL'd reclaim probes already seen: nonce -> arrival face (kInvalidNode
  // for probes we originated). Dedups the relay flood and records the
  // reverse path answering demotes ride back on. Kept separate from
  // seenFloods_ — reclaim nonces and migration txnIds use different
  // counters and could collide. Volatile (cleared on crash).
  std::unordered_map<std::uint64_t, NodeId> seenReclaims_;
  // One row per publisher heard, one SeqWindow per face in it: the
  // publisher's seqs already sent on, or arrived over, that face.
  FirstUseIndex servedRow_;   // publisher -> row
  FirstUseIndex servedSlot_;  // face -> slot
  SeqWindowRows served_;
  // Capacity-recycled scratch for stForward's ST match (moved out and back
  // around the fan-out loop, so reentrant forwards stay correct).
  std::vector<NodeId> matchScratch_;
  // (cd hash, scope hash) -> downstream refcount for scoped propagation.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> scopeRefs_;
  // Scoped subscriptions forwarded per upstream face, kept by Name so they
  // can be replayed verbatim when that neighbour restarts and asks to resync.
  std::map<NodeId, std::set<std::pair<Name, Name>>> sentUpstream_;

  // Heartbeat / failover state.
  NodeId hbStandby_ = kInvalidNode;
  SimTime hbInterval_ = 0;
  SimTime hbUntil_ = 0;
  NodeId watchedRp_ = kInvalidNode;
  SimTime watchTimeout_ = 0;
  SimTime watchUntil_ = 0;
  SimTime lastHeartbeatAt_ = 0;
  std::vector<Name> watchedPrefixes_;
  bool failedOver_ = false;
  // Generation counters: a crash bumps them, so tick closures scheduled
  // before the crash compare their captured generation and bail instead of
  // beaconing (or failing over from) pre-crash state.
  std::uint64_t hbGen_ = 0;
  std::uint64_t watchGen_ = 0;

  std::uint64_t multicastsForwarded_ = 0;
  std::uint64_t rpDecapsulations_ = 0;
  std::uint64_t unroutable_ = 0;
  std::uint64_t dupSuppressed_ = 0;
  std::uint64_t splitsInitiated_ = 0;
  std::uint64_t acksSent_ = 0;
  std::uint64_t heartbeatsSent_ = 0;
  std::uint64_t failovers_ = 0;
  SimTime lastFailoverAt_ = -1;
  std::uint64_t resyncRequestsSent_ = 0;
  std::uint64_t subscriptionReplays_ = 0;
  std::uint64_t joinReplays_ = 0;
  std::uint64_t reclaimsSent_ = 0;
  std::uint64_t reclaimForwards_ = 0;
  std::uint64_t demotions_ = 0;
  std::uint64_t staleAnnouncementsIgnored_ = 0;
  std::uint64_t nextNonce_ = (static_cast<std::uint64_t>(id()) << 32) + 1;
  // Migration-transaction ids (FibAdd flood keys, pending-ST txns): unique
  // network-wide because the router id fills the high half, and minted
  // without shared state, so RPs splitting on different shards never race.
  std::uint64_t nextTxnId_ = (static_cast<std::uint64_t>(id()) << 32) + 1;
};

}  // namespace gcopss::copss
