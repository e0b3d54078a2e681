#include "copss/router.hpp"

#include <algorithm>
#include <cassert>

#include "common/thread_annotations.hpp"

namespace gcopss::copss {

CopssRouter::CopssRouter(NodeId id, Network& net, Options opts)
    : Node(id, net), opts_(opts),
      fwd_(ndn::Forwarder::Hooks{
               [this](NodeId face, PacketPtr pkt) { send(face, std::move(pkt)); },
               nullptr, nullptr},
           opts.ndn, [this]() { return sim().now(); }, net.names()),
      cdFib_(net.names()), st_(opts.st), balancer_(opts.balance) {}

void CopssRouter::addCdRoute(const Name& prefix, NodeId nextHopFace) {
  cdFib_.insert(prefix, nextHopFace);
}

void CopssRouter::becomeRp(const Name& prefix) {
  becomeRp(prefix, nextEpochFor(prefix));
}

void CopssRouter::becomeRp(const Name& prefix, std::uint64_t epoch) {
  cdFib_.removePrefix(prefix);
  cdFib_.insert(prefix, ndn::kLocalFace);
  rpEpochs_[prefix] = epoch;
  observeEpoch(prefix, epoch);
}

std::uint64_t CopssRouter::claimEpoch(const Name& prefix) const {
  const auto it = rpEpochs_.find(prefix);
  return it == rpEpochs_.end() ? 0 : it->second;
}

std::uint64_t CopssRouter::epochSeen(const Name& prefix) const {
  const auto it = epochSeen_.find(prefix);
  return it == epochSeen_.end() ? 0 : it->second;
}

void CopssRouter::observeEpoch(const Name& prefix, std::uint64_t epoch) {
  auto& seen = epochSeen_[prefix];
  if (epoch > seen) seen = epoch;
}

std::uint64_t CopssRouter::nextEpochFor(const Name& prefix) const {
  return std::max(epochSeen(prefix), claimEpoch(prefix)) + 1;
}

void CopssRouter::retireClaim(const Name& prefix, NodeId towardFace,
                              bool rejoinAsSubscriber) {
  rpEpochs_.erase(prefix);
  cdFib_.removePrefix(prefix);
  if (towardFace != kInvalidNode && towardFace != ndn::kLocalFace) {
    cdFib_.insert(prefix, towardFace);
  }
  balancer_.forgetPrefix(prefix);
  if (rejoinAsSubscriber) subscribeLocal(prefix);
}

bool CopssRouter::isRpFor(const Name& cd) const {
  const auto faces = cdFib_.lpm(cd);
  return std::find(faces.begin(), faces.end(), ndn::kLocalFace) != faces.end();
}

bool CopssRouter::isRpFor(NameId cd) const {
  const auto* faces = cdFib_.lpmFaces(cd);
  return faces && faces->count(ndn::kLocalFace) > 0;
}

SimTime CopssRouter::serviceTime(const PacketPtr& pkt) const {
  const SimParams& p = params();
  switch (pkt->kind) {
    case Packet::Kind::Interest: {
      const auto& interest = packet_cast<ndn::InterestPacket>(pkt);
      if (interest.encapsulated) {
        if (opts_.ipSpeedCore) return p.ipForwardCost;
        return isRpFor(interest.nameId) ? p.rpProcessCost : p.copssForwardCost;
      }
      return opts_.ipSpeedCore ? p.ipForwardCost : p.ndnInterestCost;
    }
    case Packet::Kind::Data:
      return opts_.ipSpeedCore ? p.ipForwardCost : p.ndnDataCost;
    case Packet::Kind::Multicast:
      return opts_.ipSpeedCore ? p.ipForwardCost : p.copssForwardCost;
    case Packet::Kind::Subscribe:
    case Packet::Kind::Unsubscribe:
      return p.subscribeCost;
    default:
      return p.fibUpdateCost;
  }
}

void CopssRouter::handle(NodeId fromFace, const PacketPtr& pkt) {
  switch (pkt->kind) {
    case Packet::Kind::Interest: {
      auto interest = packet_pointer_cast<ndn::InterestPacket>(pkt);
      if (interest->encapsulated) {
        onEncapInterest(fromFace, interest);
      } else {
        fwd_.onInterest(fromFace, interest);
      }
      return;
    }
    case Packet::Kind::Data:
      fwd_.onData(fromFace, packet_pointer_cast<ndn::DataPacket>(pkt));
      return;
    case Packet::Kind::Subscribe:
      onSubscribe(fromFace, packet_cast<SubscribePacket>(pkt));
      return;
    case Packet::Kind::Unsubscribe:
      onUnsubscribe(fromFace, packet_cast<UnsubscribePacket>(pkt));
      return;
    case Packet::Kind::Multicast:
      onMulticast(fromFace, pkt);
      return;
    case Packet::Kind::FibAdd:
      onFibAdd(fromFace, packet_cast<FibAddPacket>(pkt));
      return;
    case Packet::Kind::RpHandoff:
      onHandoff(fromFace, packet_cast<RpHandoffPacket>(pkt));
      return;
    case Packet::Kind::StJoin:
      onJoin(fromFace, packet_cast<StJoinPacket>(pkt));
      return;
    case Packet::Kind::StConfirm:
      onConfirm(fromFace, packet_cast<StConfirmPacket>(pkt));
      return;
    case Packet::Kind::StLeave:
      onLeave(fromFace, packet_cast<StLeavePacket>(pkt));
      return;
    case Packet::Kind::PubAck:
      onPubAck(fromFace, pkt);
      return;
    case Packet::Kind::RpHeartbeat:
      onHeartbeat(fromFace, pkt);
      return;
    case Packet::Kind::StResync:
      onResyncRequest(fromFace, packet_cast<ResyncRequestPacket>(pkt));
      return;
    case Packet::Kind::RpReclaim:
      onReclaim(fromFace, packet_cast<RpReclaimPacket>(pkt));
      return;
    case Packet::Kind::RpDemote:
      onDemote(fromFace, packet_cast<RpDemotePacket>(pkt));
      return;
    default:
      return;  // IP packets never reach a COPSS router in these experiments
  }
}

// ---------------------------------------------------------------- data path

void CopssRouter::onMulticast(NodeId fromFace, const PacketPtr& pkt) {
  const auto& mcast = packet_cast<MulticastPacket>(pkt);
  if (fromFace == kInvalidNode || hostFaces_.count(fromFace)) {
    // First-hop router: encapsulate in an Interest named by the CD and route
    // toward the (unique, prefix-free) RP. CD hashes are already computed.
    assert(!mcast.cds.empty());
    auto interest = makePacket<ndn::InterestPacket>(
        network().names(), mcast.cds.front(), nextNonce_++,
        ndn::kInterestHeaderBytes + pkt->size, pkt);
    onEncapInterest(kInvalidNode, packet_pointer_cast<ndn::InterestPacket>(interest));
    return;
  }
  // Router-to-router multicast, traveling down an ST tree.
  stForward(fromFace, pkt);
}

void CopssRouter::onEncapInterest(NodeId fromFace,
                                  const ndn::InterestPacketPtr& pkt) {
  const auto* faces = cdFib_.lpmFaces(pkt->nameId);
  if (!faces) {
    ++unroutable_;
    return;
  }
  if (faces->count(ndn::kLocalFace) > 0) {
    rpDeliver(fromFace, pkt->encapsulated);
    return;
  }
  // Prefix-free assignment: a publication has exactly one RP direction.
  send(*faces->begin(), pkt);
}

void CopssRouter::rpDeliver(NodeId arrivalFace, const PacketPtr& multicast) {
  (void)arrivalFace;
  const auto& mcast = packet_cast<MulticastPacket>(multicast);
  ++rpDecapsulations_;
  stForward(kInvalidNode, multicast);
  if (mcast.wantAck && mcast.publisher != kInvalidNode) {
    // Reliable publish: confirm the decapsulation back to the publisher so
    // it can stop retransmitting. Routed hop-by-hop along SPF next hops.
    const NodeId nh = network().topology().nextHop(id(), mcast.publisher);
    if (nh != kInvalidNode) {
      send(nh, makePacket<PubAckPacket>(mcast.publisher, mcast.seq));
      ++acksSent_;
    }
  }
  for (const Name& cd : mcast.cds) balancer_.recordPublication(cd);
  if (opts_.autoBalance) maybeSplit();
}

GCOPSS_HOT std::size_t CopssRouter::stForward(NodeId excludeFace,
                                               const PacketPtr& multicast) {
  const auto& mcast = packet_cast<MulticastPacket>(multicast);
  std::vector<NodeId> faces = std::move(matchScratch_);
  // Batch point of the publish fan-out (DESIGN.md §4e): the packet carries
  // its folded prefix-hash key, so publications sharing a CD set within a
  // tick replay this hop's whole match from the ST's cache; misses walk the
  // faces' Bloom bits.
  st_.matchFacesHashedInto(mcast.cds, mcast.prefixHashes, mcast.matchKey, excludeFace, faces);
  // Transient overlapping trees (during migration, or coarse subscriptions
  // spanning multiple RPs) can deliver a publication here more than once;
  // each face is served exactly once, and an arrival face counts as served.
  // Every probe re-indexes the publisher's row: a send or a local callback
  // may forward again and move the windows.
  if (excludeFace != kInvalidNode) {
    served_.at(servedRow_.of(mcast.publisher), servedSlot_.of(excludeFace))
        .checkAndInsert(mcast.seq);
  }
  for (NodeId face : faces) {
    const bool served = served_.at(servedRow_.of(mcast.publisher), servedSlot_.of(face))
                            .checkAndInsert(mcast.seq);
    // A retransmission re-floods the tree: the served record cannot tell
    // "served" from "sent but lost downstream", so end hosts do the final
    // exact dedup. Local delivery has no link to lose on, so it stays
    // suppressed exactly.
    if (served && (!mcast.retx || face == ndn::kLocalFace)) {
      ++dupSuppressed_;
      continue;
    }
    if (face == ndn::kLocalFace) {
      if (onLocalMulticast) onLocalMulticast(mcast, sim().now());
      continue;
    }
    send(face, multicast);
    ++multicastsForwarded_;
  }
  const std::size_t matched = faces.size();
  matchScratch_ = std::move(faces);
  return matched;
}

void CopssRouter::subscribeLocal(const Name& cd) {
  const bool firstGlobally = st_.subscribe(ndn::kLocalFace, cd);
  if (firstGlobally) propagateControl(cd, /*subscribe=*/true);
}

// ------------------------------------------------------------ subscriptions

void CopssRouter::onSubscribe(NodeId fromFace, const SubscribePacket& pkt) {
  // Resync replays are idempotent: a router that never crashed still holds
  // the entry, and bumping its refcount again would break later Unsubscribe
  // accounting. Only a router that actually lost state re-applies.
  if (pkt.resync && st_.faceSubscribed(fromFace, pkt.cd)) return;
  st_.subscribe(fromFace, pkt.cd);
  if (pkt.scoped) {
    forwardScoped(pkt.cd, pkt.scope, /*subscribe=*/true, pkt.resync);
  } else {
    propagateControl(pkt.cd, /*subscribe=*/true, pkt.resync);
  }
}

void CopssRouter::onUnsubscribe(NodeId fromFace, const UnsubscribePacket& pkt) {
  st_.unsubscribe(fromFace, pkt.cd);
  if (pkt.scoped) {
    forwardScoped(pkt.cd, pkt.scope, /*subscribe=*/false);
  } else {
    propagateControl(pkt.cd, /*subscribe=*/false);
  }
}

void CopssRouter::propagateControl(const Name& cd, bool subscribe, bool resync) {
  // A subscription to `cd` concerns every RP whose served prefix intersects
  // it (Section III-B: subscribing to /1 means subscribing at the RPs of
  // /1/1, /1/2, ... — the ST aggregation happens for free because the single
  // /1 entry prefix-matches all of them on the data path). One scoped copy
  // is launched toward each intersecting assigned prefix; each copy then
  // travels the unique FIB path to its RP, so the resulting ST state is a
  // reverse-path tree per RP rather than a mesh.
  for (const Name& scope : cdFib_.intersecting(cd)) {
    forwardScoped(cd, scope, subscribe, resync);
  }
}

void CopssRouter::forwardScoped(const Name& cd, const Name& scope, bool subscribe,
                                bool resync) {
  const auto key = std::make_pair(cd.hash(), scope.hash());
  if (subscribe) {
    if (++scopeRefs_[key] != 1) return;  // aggregated: tree already joined
  } else {
    const auto it = scopeRefs_.find(key);
    if (it == scopeRefs_.end()) return;
    if (--it->second != 0) return;
    scopeRefs_.erase(it);
  }
  for (NodeId f : cdFib_.lpm(scope)) {
    if (f == ndn::kLocalFace) return;  // we are the RP for this scope
    if (subscribe) {
      auto pkt = makeMutablePacket<SubscribePacket>(cd, scope);
      pkt->resync = resync;
      send(f, PacketPtr(std::move(pkt)));
      sentUpstream_[f].insert({cd, scope});
    } else {
      send(f, makePacket<UnsubscribePacket>(cd, scope));
      const auto up = sentUpstream_.find(f);
      if (up != sentUpstream_.end()) up->second.erase({cd, scope});
    }
    return;  // exactly one upstream direction per scope
  }
}

// ---------------------------------------------------- RP migration (IV-B)

bool CopssRouter::forceSplit() {
  auto cds = balancer_.selectCdsToMove();
  if (cds.empty()) return false;
  for (std::size_t i = 0; i < rpCandidates_.size(); ++i) {
    const NodeId candidate = rpCandidates_[(splitsInitiated_ + i) % rpCandidates_.size()];
    if (candidate != id()) {
      initiateSplit(candidate, std::move(cds));
      return true;
    }
  }
  return false;
}

void CopssRouter::assumeRp(const std::vector<Name>& prefixes) {
  std::vector<std::uint64_t> epochs;
  epochs.reserve(prefixes.size());
  for (const Name& p : prefixes) epochs.push_back(nextEpochFor(p));
  const std::uint64_t txnId = nextTxnId_++;
  TxnState& t = txn(txnId);
  t.cds = prefixes;
  t.isOrigin = true;
  t.confirmed = true;
  for (std::size_t i = 0; i < prefixes.size(); ++i) becomeRp(prefixes[i], epochs[i]);
  seenFloods_.insert(txnId);
  const auto pktOut = makePacket<FibAddPacket>(prefixes, epochs, id(), txnId);
  for (NodeId nb : network().topology().neighbors(id())) {
    if (!hostFaces_.count(nb)) send(nb, pktOut);
  }
}

bool CopssRouter::retireTo(NodeId target) {
  if (target == id() || rpEpochs_.empty()) return false;
  const auto held = rpPrefixes();
  initiateSplit(target, std::vector<Name>(held.begin(), held.end()));
  return true;
}

void CopssRouter::maybeSplit() {
  if (rpCandidates_.empty()) return;
  // Load = CPU service backlog plus the worst egress face-queue backlog: an
  // RP whose uplink is saturated is congested even with an idle CPU
  // (Section IV-B's hot spot is the link, not just the processor).
  if (!balancer_.shouldSplit(cpuBacklog() + faceQueueBacklog(), sim().now())) return;
  auto cds = balancer_.selectCdsToMove();
  if (cds.empty()) return;
  // "Random" candidate selection (the paper uses a random process); keyed on
  // the split counter so runs stay deterministic.
  const std::uint64_t pick = mix64(0x5157 + splitsInitiated_);
  NodeId newRp = rpCandidates_[pick % rpCandidates_.size()];
  if (newRp == id()) newRp = rpCandidates_[(pick + 1) % rpCandidates_.size()];
  if (newRp == id()) return;
  initiateSplit(newRp, std::move(cds));
}

void CopssRouter::initiateSplit(NodeId newRp, std::vector<Name> cds) {
  assert(newRp != id());
  const std::uint64_t txnId = nextTxnId_++;
  ++splitsInitiated_;
  balancer_.markSplit(sim().now());

  const NodeId towardNew = network().topology().nextHop(id(), newRp);
  assert(towardNew != kInvalidNode);

  // Phase 1: resign as RP for the moved CDs; future publications that still
  // reach us are relayed to the new RP via the FIB. The resigning owner mints
  // the successor epoch for each CD so the new RP's claim (and its FIB flood)
  // outranks every announcement from this ownership generation.
  std::vector<std::uint64_t> epochs;
  // gcopss-tidy: allow(hot-alloc) RP split: one control-plane transaction per balancer decision, spaced by its cooldown
  epochs.reserve(cds.size());
  for (const Name& cd : cds) {
    const std::uint64_t successor = nextEpochFor(cd);
    epochs.push_back(successor);
    observeEpoch(cd, successor);
    rpEpochs_.erase(cd);
    cdFib_.removePrefix(cd);
    cdFib_.insert(cd, towardNew);
    balancer_.forgetPrefix(cd);
  }

  // We remain the root of the old subscriber tree, fed by the new RP through
  // the relay path the handoff packet is about to build.
  TxnState& t = txn(txnId);
  t.cds = cds;
  t.newUpstream = towardNew;
  t.oldUpstream = kInvalidNode;
  t.joinSent = true;
  t.confirmed = true;
  t.leftOld = true;

  send(towardNew, makePacket<RpHandoffPacket>(cds, epochs, id(), newRp, txnId));
  if (onRpSplit) onRpSplit(newRp, cds);
}

void CopssRouter::onHandoff(NodeId fromFace, const RpHandoffPacket& pkt) {
  if (pkt.newRp == id()) {
    // Phase 2 endpoint: become the RP, keep the old RP's tree alive through
    // a relay ST entry pointing back along the handoff path. Claims land at
    // the successor epochs minted by the resigning owner.
    TxnState& t = txn(pkt.txnId);
    t.cds = pkt.cds;
    t.isOrigin = true;
    t.confirmed = true;
    t.newDownstream.insert(fromFace);
    for (std::size_t i = 0; i < pkt.cds.size(); ++i) {
      becomeRp(pkt.cds[i], pkt.epochs[i]);
      st_.subscribe(fromFace, pkt.cds[i]);  // relay toward the old RP's tree
    }
    // Phase 3: announce ourselves network-wide.
    seenFloods_.insert(pkt.txnId);
    const auto pktOut = makePacket<FibAddPacket>(pkt.cds, pkt.epochs, id(), pkt.txnId);
    for (NodeId nb : network().topology().neighbors(id())) {
      if (!hostFaces_.count(nb)) send(nb, pktOut);
    }
    return;
  }
  // Transit router on the old->new path: redirect the CDs toward the new RP
  // and install the reverse relay ST entry toward the old RP.
  const NodeId next = network().topology().nextHop(id(), pkt.newRp);
  assert(next != kInvalidNode);
  for (std::size_t i = 0; i < pkt.cds.size(); ++i) {
    const Name& cd = pkt.cds[i];
    observeEpoch(cd, pkt.epochs[i]);
    cdFib_.removePrefix(cd);
    cdFib_.insert(cd, next);
    st_.subscribe(fromFace, cd);
  }
  TxnState& t = txn(pkt.txnId);
  t.cds = pkt.cds;
  t.newUpstream = next;
  send(next, makePacket<RpHandoffPacket>(pkt.cds, pkt.epochs, pkt.oldRp, pkt.newRp,
                                         pkt.txnId));
}

void CopssRouter::onFibAdd(NodeId fromFace, const FibAddPacket& pkt) {
  if (seenFloods_.count(pkt.txnId)) return;
  seenFloods_.insert(pkt.txnId);

  const bool hadTxn = txns_.count(pkt.txnId) > 0;
  TxnState& t = txn(pkt.txnId);
  if (t.cds.empty()) t.cds = pkt.prefixes;

  if (!hadTxn) {
    // Remember the old upstream (pre-flood FIB direction) so we can leave
    // the old tree once the new one is confirmed.
    const auto old = cdFib_.lpm(pkt.prefixes.front());
    for (NodeId f : old) {
      if (f != ndn::kLocalFace) {
        t.oldUpstream = f;
        break;
      }
    }
  }
  bool anyApplied = false;
  for (std::size_t i = 0; i < pkt.prefixes.size(); ++i) {
    const Name& cd = pkt.prefixes[i];
    const std::uint64_t epoch = pkt.epochs[i];
    if (epoch < epochSeen(cd)) {
      // Stale announcement: a higher-epoch owner already claimed this prefix
      // (e.g. a crashed primary re-advertising after its standby took over).
      // The FIB keeps following the newer claim; the flood still continues
      // below so the txn's duplicate suppression stays network-wide.
      ++staleAnnouncementsIgnored_;
      continue;
    }
    observeEpoch(cd, epoch);
    if (claimEpoch(cd) != 0 && claimEpoch(cd) < epoch) {
      // Our own claim lost: atomically retire it (FIB + balancer window)
      // before installing the winner's direction.
      retireClaim(cd, fromFace, /*rejoinAsSubscriber=*/false);
    }
    cdFib_.removePrefix(cd);
    cdFib_.insert(cd, fromFace);
    anyApplied = true;
  }
  if (anyApplied) t.newUpstream = fromFace;

  // Continue the flood (routers only; hosts never see FIB control).
  for (NodeId nb : network().topology().neighbors(id())) {
    if (nb != fromFace && !hostFaces_.count(nb)) {
      send(nb, clonePacket(pkt));
    }
  }

  // Pending-ST join: if any downstream interest intersects the moved CDs,
  // graft ourselves onto the new tree before abandoning the old one.
  if (anyApplied && !t.joinSent && !t.confirmed && !t.isOrigin) {
    bool interested = false;
    for (const Name& cd : pkt.prefixes) {
      if (st_.hasIntersectingSubscription(cd)) {
        interested = true;
        break;
      }
    }
    if (interested) {
      t.joinSent = true;
      send(t.newUpstream, makePacket<StJoinPacket>(t.cds, pkt.txnId));
    }
  }
}

void CopssRouter::onJoin(NodeId fromFace, const StJoinPacket& pkt) {
  TxnState& t = txn(pkt.txnId);
  if (t.cds.empty()) t.cds = pkt.cds;

  // An RP is trivially the root of its own tree, even with no transaction
  // state: a crash wiped txns_, and the joins our resync request made the
  // downstream routers replay must graft here, not wedge as pending.
  bool atRoot = !t.cds.empty();
  for (const Name& cd : t.cds) atRoot = atRoot && isRpFor(cd);

  if (t.confirmed || t.isOrigin || atRoot) {
    // Case 2 of the paper: already in the tree — graft and confirm.
    for (const Name& cd : t.cds) {
      if (!st_.faceSubscribed(fromFace, cd)) st_.subscribe(fromFace, cd);
    }
    t.newDownstream.insert(fromFace);
    send(fromFace, makePacket<StConfirmPacket>(t.cds, pkt.txnId));
    return;
  }
  t.pendingDownstream.push_back(fromFace);
  if (!t.joinSent) {
    // Case 1: not in the tree — join upstream on the downstream's behalf.
    NodeId up = t.newUpstream;
    if (up == kInvalidNode) {
      const auto faces = cdFib_.lpm(t.cds.front());
      for (NodeId f : faces) {
        if (f != ndn::kLocalFace) {
          up = f;
          break;
        }
      }
    }
    if (up != kInvalidNode) {
      t.joinSent = true;
      t.newUpstream = up;
      send(up, makePacket<StJoinPacket>(t.cds, pkt.txnId));
    }
  }
  // Case 3 (pending): nothing else to do — the downstream is queued and will
  // be confirmed when our own confirm arrives.
}

void CopssRouter::onConfirm(NodeId fromFace, const StConfirmPacket& pkt) {
  (void)fromFace;
  TxnState& t = txn(pkt.txnId);
  if (t.confirmed) return;
  t.confirmed = true;
  activateAndConfirmDownstream(t, pkt.txnId);
  maybeLeaveOldTree(t, pkt.txnId);
}

void CopssRouter::activateAndConfirmDownstream(TxnState& t, std::uint64_t txnId) {
  for (NodeId g : t.pendingDownstream) {
    for (const Name& cd : t.cds) {
      if (!st_.faceSubscribed(g, cd)) st_.subscribe(g, cd);
    }
    t.newDownstream.insert(g);
    send(g, makePacket<StConfirmPacket>(t.cds, txnId));
  }
  t.pendingDownstream.clear();
}

void CopssRouter::maybeLeaveOldTree(TxnState& t, std::uint64_t txnId) {
  if (t.leftOld) return;
  t.leftOld = true;
  if (t.oldUpstream != kInvalidNode && t.oldUpstream != t.newUpstream) {
    send(t.oldUpstream, makePacket<StLeavePacket>(t.cds, txnId));
  }
}

void CopssRouter::onLeave(NodeId fromFace, const StLeavePacket& pkt) {
  TxnState& t = txn(pkt.txnId);
  if (t.cds.empty()) t.cds = pkt.cds;
  for (const Name& cd : pkt.cds) {
    if (st_.faceSubscribed(fromFace, cd)) {
      st_.unsubscribe(fromFace, cd);  // relay/join-installed leaf entry
    } else {
      st_.prune(fromFace, cd);  // coarser subscription: stop this CD only
    }
  }
  t.newDownstream.erase(fromFace);
  checkDismantle(pkt.txnId, pkt.cds);
}

// ------------------------------------------------- fault recovery machinery

void CopssRouter::onPubAck(NodeId fromFace, const PacketPtr& pkt) {
  (void)fromFace;
  const auto& ack = packet_cast<PubAckPacket>(pkt);
  const NodeId nh = network().topology().nextHop(id(), ack.publisher);
  if (nh != kInvalidNode) send(nh, pkt);
}

void CopssRouter::onHeartbeat(NodeId fromFace, const PacketPtr& pkt) {
  const auto& hb = packet_cast<RpHeartbeatPacket>(pkt);
  if (hb.standby == id()) {
    if (hb.rp == watchedRp_ && !failedOver_) {
      lastHeartbeatAt_ = sim().now();
      watchedPrefixes_ = hb.prefixes;
      for (std::size_t i = 0; i < hb.prefixes.size(); ++i) {
        observeEpoch(hb.prefixes[i], hb.epochs[i]);
      }
    }
    return;
  }
  const NodeId nh = network().topology().nextHop(id(), hb.standby);
  if (nh != kInvalidNode && nh != fromFace) send(nh, pkt);
}

void CopssRouter::startRpHeartbeats(NodeId standby, SimTime interval, SimTime until) {
  assert(standby != id() && interval > 0);
  hbStandby_ = standby;
  hbInterval_ = interval;
  hbUntil_ = until;
  heartbeatTick();
}

void CopssRouter::heartbeatTick() {
  if (hbStandby_ == kInvalidNode) return;
  // A crash cancels the tick chain (generation bump in onCrash); onRestart
  // re-arms it, so a restarted RP never beacons pre-crash state.
  if (!network().isFailed(id()) && !rpEpochs_.empty()) {
    const NodeId nh = network().topology().nextHop(id(), hbStandby_);
    if (nh != kInvalidNode) {
      const auto held = rpPrefixes();
      std::vector<Name> prefixes(held.begin(), held.end());
      std::vector<std::uint64_t> epochs;
      epochs.reserve(prefixes.size());
      for (const Name& p : prefixes) epochs.push_back(claimEpoch(p));
      send(nh, makePacket<RpHeartbeatPacket>(id(), hbStandby_, std::move(prefixes),
                                             std::move(epochs)));
      ++heartbeatsSent_;
    }
  }
  if (sim().now() + hbInterval_ <= hbUntil_) {
    const std::uint64_t gen = hbGen_;
    sim().schedule(hbInterval_, [this, gen]() {
      if (gen == hbGen_) heartbeatTick();
    });
  }
}

void CopssRouter::watchRpLiveness(NodeId rp, SimTime timeout, SimTime until) {
  assert(rp != id() && timeout > 0);
  watchedRp_ = rp;
  watchTimeout_ = timeout;
  watchUntil_ = until;
  lastHeartbeatAt_ = sim().now();
  failedOver_ = false;
  watchTick();
}

void CopssRouter::watchTick() {
  if (watchedRp_ == kInvalidNode) return;
  // Fail over only after at least one beacon told us which prefixes the RP
  // serves; a standby that never heard from the RP has nothing to assume.
  if (!failedOver_ && !network().isFailed(id()) && !watchedPrefixes_.empty() &&
      sim().now() - lastHeartbeatAt_ > watchTimeout_) {
    failedOver_ = true;
    ++failovers_;
    lastFailoverAt_ = sim().now();
    // The beacons' epochs were observed on arrival, so each claim lands one
    // past the dead primary's last beaconed epoch (or past anything newer).
    assumeRp(watchedPrefixes_);
  }
  const SimTime step = watchTimeout_ / 2 > 0 ? watchTimeout_ / 2 : 1;
  if (sim().now() + step <= watchUntil_) {
    const std::uint64_t gen = watchGen_;
    sim().schedule(step, [this, gen]() {
      if (gen == watchGen_) watchTick();
    });
  }
}

void CopssRouter::onCrash() {
  // Volatile COPSS state is gone; the FIB and RP role survive (persisted
  // config / routing-protocol state, re-converged by the time we restart).
  st_ = SubscriptionTable(opts_.st);
  txns_.clear();
  scopeRefs_.clear();
  sentUpstream_.clear();
  seenFloods_.clear();
  servedRow_ = {};
  servedSlot_ = {};
  served_ = {};
  // Heartbeat/failover volatile state dies with the node: pending tick
  // closures are cancelled via the generation bump, and the last-beacon
  // snapshot is forgotten so a restarted standby cannot fail over from (or
  // beacon) pre-crash state. The heartbeat/watch *configuration*
  // (hbStandby_, watchedRp_, intervals) persists like the RP role does;
  // onRestart re-arms the ticks from it.
  ++hbGen_;
  ++watchGen_;
  watchedPrefixes_.clear();
  seenReclaims_.clear();
  lastHeartbeatAt_ = 0;
  failedOver_ = false;
}

void CopssRouter::onRestart() {
  const SimTime now = sim().now();
  lastHeartbeatAt_ = now;  // a watching standby must re-arm, not fire
  if (hbStandby_ != kInvalidNode && now <= hbUntil_) heartbeatTick();
  if (watchedRp_ != kInvalidNode && now <= watchUntil_) watchTick();
  const auto req = makePacket<ResyncRequestPacket>(id());
  for (NodeId nb : network().topology().neighbors(id())) {
    send(nb, req);
    ++resyncRequestsSent_;
  }
  // Epoch reconciliation handshake: before trusting the persisted RP config,
  // ask the neighbours whether anyone observed a higher epoch while we were
  // down (a standby assuming our role floods epoch+1). A neighbour that did
  // demotes us one hop back; silence means the claims stand.
  if (!rpEpochs_.empty()) {
    const auto held = rpPrefixes();
    std::vector<Name> prefixes(held.begin(), held.end());
    std::vector<std::uint64_t> epochs;
    epochs.reserve(prefixes.size());
    for (const Name& p : prefixes) epochs.push_back(claimEpoch(p));
    // Nonce: dedup key for the TTL'd relay flood and the tag answering
    // demotes carry back. Recorded as self-originated so a copy a ring
    // routes back to us is ignored.
    const std::uint64_t nonce = nextNonce_++;
    seenReclaims_[nonce] = kInvalidNode;
    const auto reclaim = makePacket<RpReclaimPacket>(
        id(), std::move(prefixes), std::move(epochs), kReclaimTtl, nonce);
    for (NodeId nb : network().topology().neighbors(id())) {
      if (!hostFaces_.count(nb)) {
        send(nb, reclaim);
        ++reclaimsSent_;
      }
    }
  }
}

void CopssRouter::onResyncRequest(NodeId fromFace, const ResyncRequestPacket& pkt) {
  (void)pkt;
  // Replay the scoped subscriptions this router had forwarded to the
  // restarted neighbour. Sent verbatim (not through forwardScoped): our own
  // refcounts are intact, only the neighbour's table needs rebuilding.
  const auto it = sentUpstream_.find(fromFace);
  if (it != sentUpstream_.end()) {
    for (const auto& [cd, scope] : it->second) {
      auto sub = makeMutablePacket<SubscribePacket>(cd, scope);
      sub->resync = true;
      send(fromFace, PacketPtr(std::move(sub)));
      ++subscriptionReplays_;
    }
  }
  // Pending-ST replay: joins through the restarted neighbour are re-sent —
  // unconfirmed ones so an in-flight migration completes despite the crash,
  // confirmed ones because the neighbour's active ST entry for them died
  // with its crash (a standby that crashed after its takeover would
  // otherwise keep a tree it can no longer serve).
  for (const auto& [txnId, t] : txns_) {
    if (t.joinSent && t.newUpstream == fromFace) {
      send(fromFace, makePacket<StJoinPacket>(t.cds, txnId));
      ++joinReplays_;
    }
  }
}

void CopssRouter::onReclaim(NodeId fromFace, const RpReclaimPacket& pkt) {
  // Query from a restarted RP (direct, or relayed by a neighbour when the
  // probe carries a TTL). Answer with a demote for every prefix where we
  // observed a higher epoch than the claimant persisted; otherwise record
  // the (still current) claim.
  if (!seenReclaims_.emplace(pkt.nonce, fromFace).second) {
    return;  // duplicate relay (or our own probe looped back): drop
  }
  std::vector<Name> stale;
  std::vector<std::uint64_t> staleEpochs;
  for (std::size_t i = 0; i < pkt.prefixes.size(); ++i) {
    const Name& prefix = pkt.prefixes[i];
    const std::uint64_t claimed = pkt.epochs[i];
    const std::uint64_t seen = epochSeen(prefix);
    if (seen > claimed) {
      stale.push_back(prefix);
      staleEpochs.push_back(seen);
      continue;
    }
    observeEpoch(prefix, claimed);
    if (claimEpoch(prefix) != 0 && claimEpoch(prefix) < claimed) {
      // Our own (lower-epoch) claim loses to the reclaimed one. Counts as a
      // demotion: with the TTL'd relay a rival's probe can reach us hops
      // away and retire the claim before any demote answer would.
      retireClaim(prefix, fromFace, /*rejoinAsSubscriber=*/false);
      ++demotions_;
    }
  }
  if (!stale.empty()) {
    send(fromFace, makePacket<RpDemotePacket>(id(), std::move(stale),
                                              std::move(staleEpochs), pkt.nonce));
  }
  // TTL'd relay: push the probe past the direct neighbours so a router that
  // actually witnessed the takeover — a few hops behind a healed partition —
  // gets to answer too. Fresh copies (a Packet is immutable once sent), one
  // hop less of budget, duplicate-suppressed above by nonce.
  if (pkt.ttl > 0) {
    for (NodeId nb : network().topology().neighbors(id())) {
      if (nb == fromFace || hostFaces_.count(nb)) continue;
      send(nb, makePacket<RpReclaimPacket>(pkt.origin, pkt.prefixes, pkt.epochs,
                                           pkt.ttl - 1, pkt.nonce));
      ++reclaimForwards_;
    }
  }
}

void CopssRouter::onDemote(NodeId fromFace, const RpDemotePacket& pkt) {
  for (std::size_t i = 0; i < pkt.prefixes.size(); ++i) {
    const Name& prefix = pkt.prefixes[i];
    const std::uint64_t epoch = pkt.epochs[i];
    const std::uint64_t seenBefore = epochSeen(prefix);
    observeEpoch(prefix, epoch);
    // Idempotent: several neighbours may each answer our reclaim; only the
    // first demote per prefix finds a live claim to retire.
    if (rpEpochs_.count(prefix) > 0 && claimEpoch(prefix) < epoch) {
      retireClaim(prefix, fromFace, /*rejoinAsSubscriber=*/true);
      ++demotions_;
    } else if (rpEpochs_.count(prefix) == 0 && epoch > seenBefore &&
               fromFace != ndn::kLocalFace) {
      // Route repair along the reverse path: a demote carrying an epoch we
      // had never witnessed means the current owner's takeover flood missed
      // us (e.g. we were down behind a partition). Our route for the prefix
      // predates that epoch, so re-point it toward the face the demote came
      // from — the answering witness knows the way, restoring a loop-free
      // gradient toward the live RP as the demote rides back hop by hop.
      cdFib_.removePrefix(prefix);
      cdFib_.insert(prefix, fromFace);
    }
  }
  // Answer to a relayed probe: ride the recorded reverse path back toward
  // the claimant (kInvalidNode marks the claimant itself — stop there).
  const auto it = seenReclaims_.find(pkt.nonce);
  if (it != seenReclaims_.end() && it->second != kInvalidNode && it->second != fromFace) {
    send(it->second,
         makePacket<RpDemotePacket>(pkt.origin, pkt.prefixes, pkt.epochs, pkt.nonce));
  }
}

void CopssRouter::checkDismantle(std::uint64_t txnId, const std::vector<Name>& cds) {
  TxnState& t = txn(txnId);
  for (const Name& cd : cds) {
    if (isRpFor(cd)) return;                  // tree roots never dismantle
    if (!st_.matchFaces({cd}).empty()) return;  // live downstream remains
  }
  // No remaining interest below us: unhook from both trees.
  if (t.confirmed && t.newUpstream != kInvalidNode) {
    send(t.newUpstream, makePacket<StLeavePacket>(t.cds, txnId));
    t.confirmed = false;
  }
  if (!t.leftOld && t.oldUpstream != kInvalidNode) {
    send(t.oldUpstream, makePacket<StLeavePacket>(t.cds, txnId));
    t.leftOld = true;
  }
}

}  // namespace gcopss::copss
