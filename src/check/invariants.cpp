#include "check/invariants.hpp"

#include <algorithm>
#include <sstream>

#include "copss/packets.hpp"
#include "copss/router.hpp"

namespace gcopss::check {

const char* invariantName(Invariant inv) {
  switch (inv) {
    case Invariant::PrefixFreeRp: return "prefix-free-rp";
    case Invariant::StSoundness: return "st-soundness";
    case Invariant::MigrationDelivery: return "migration-delivery";
    case Invariant::PacketConservation: return "packet-conservation";
    case Invariant::LoopFreedom: return "loop-freedom";
    case Invariant::EpochMonotonic: return "epoch-monotonic";
  }
  return "?";
}

InvariantChecker::InvariantChecker(Network& net,
                                   std::vector<copss::CopssRouter*> routers,
                                   std::vector<gc::GCopssClient*> clients,
                                   Options opts)
    : net_(net), routers_(std::move(routers)), clients_(std::move(clients)),
      opts_(std::move(opts)) {
  for (gc::GCopssClient* c : clients_) {
    clientById_[c->id()] = c;
    baseReceived_[c->id()] = c->received();
    // Seed the subscription ledger: whatever the client already holds at
    // attach counts as subscribed-since-forever (always settled).
    for (const Name& cd : c->subscriptions()) {
      subLedger_[c->id()][cd].push_back(SubInterval{});
    }
  }
  baseLinkPackets_ = net_.totalLinkPackets();
  baseDrops_ = net_.totalDrops();
  net_.setObserver(this);
}

InvariantChecker::~InvariantChecker() {
  if (net_.observer() == this) net_.setObserver(nullptr);
}

bool InvariantChecker::liveRouter(const copss::CopssRouter* r) const {
  return !net_.isFailed(r->id());
}

void InvariantChecker::addViolation(Invariant inv, NodeId node, std::string detail,
                                    std::vector<std::uint64_t> witness) {
  if (violations_.size() >= opts_.maxViolations) {
    ++suppressedViolations_;
    return;
  }
  violations_.push_back(Violation{inv, net_.sim().now(), node, std::move(detail),
                                  std::move(witness)});
}

// ------------------------------------------------------------ observer taps

void InvariantChecker::onWireSend(NodeId from, NodeId to, const PacketPtr& pkt,
                                  SimTime now) {
  (void)to;
  ++wireSends_;
  switch (pkt->kind) {
    case Packet::Kind::RpHandoff:
    case Packet::Kind::FibAdd:
    case Packet::Kind::RpReclaim:
    case Packet::Kind::RpDemote: {
      auto& entry = migrationInFlight_[pkt.get()];
      ++entry.first;
      if (entry.second.empty()) {
        switch (pkt->kind) {
          case Packet::Kind::RpHandoff:
            entry.second = packet_cast<copss::RpHandoffPacket>(pkt).cds;
            break;
          case Packet::Kind::FibAdd:
            entry.second = packet_cast<copss::FibAddPacket>(pkt).prefixes;
            break;
          case Packet::Kind::RpReclaim:
            entry.second = packet_cast<copss::RpReclaimPacket>(pkt).prefixes;
            break;
          default:
            entry.second = packet_cast<copss::RpDemotePacket>(pkt).prefixes;
            break;
        }
      }
      break;
    }
    default:
      break;
  }
  if (!opts_.checkDelivery) return;
  // Subscription-interval ledger: a client-originated (unscoped, non-resync)
  // (un)subscribe opens/closes the interval for that (client, CD). Resync
  // replays re-announce state the ledger already holds; scoped copies are
  // router-internal fan-out.
  if (pkt->kind == Packet::Kind::Subscribe && clientById_.count(from)) {
    const auto& sub = packet_cast<copss::SubscribePacket>(pkt);
    if (!sub.scoped && !sub.resync) {
      auto& intervals = subLedger_[from][sub.cd];
      if (intervals.empty() || intervals.back().to != -1) {
        intervals.push_back(SubInterval{now, -1});
      }
    }
    return;
  }
  if (pkt->kind == Packet::Kind::Unsubscribe && clientById_.count(from)) {
    const auto& unsub = packet_cast<copss::UnsubscribePacket>(pkt);
    if (!unsub.scoped) {
      auto& intervals = subLedger_[from][unsub.cd];
      if (!intervals.empty() && intervals.back().to == -1) {
        intervals.back().to = now;
      }
    }
    return;
  }
  if (pkt->kind != Packet::Kind::Multicast) return;
  // A Multicast leaving its own publisher's node is a fresh publication (a
  // retransmission reuses the seq and keeps the original record). Who is
  // entitled to it is decided at audit time, from the ledger.
  const auto& mcast = packet_cast<copss::MulticastPacket>(pkt);
  if (mcast.publisher != from || !clientById_.count(from)) return;
  const auto [it, fresh] = pubs_.try_emplace(PubKey{from, mcast.seq});
  if (!fresh) return;
  it->second.cds = mcast.cds;
  it->second.publishedAt = now;
  ++stats_.publicationsTracked;
}

void InvariantChecker::onCpuEnqueue(NodeId at, NodeId fromFace, const PacketPtr& pkt,
                                    SimTime now) {
  (void)at; (void)pkt; (void)now;
  if (fromFace == kInvalidNode) {
    ++localEnqueues_;
  } else {
    ++wireArrivals_;
  }
}

void InvariantChecker::onHandle(NodeId at, NodeId fromFace, const PacketPtr& pkt,
                                SimTime now) {
  (void)fromFace; (void)now;
  ++handled_;
  retireMigrationCopy(pkt);
  if (!opts_.checkDelivery || pkt->kind != Packet::Kind::Multicast) return;
  const auto it = clientById_.find(at);
  if (it == clientById_.end()) return;
  const auto& mcast = packet_cast<copss::MulticastPacket>(pkt);
  if (mcast.publisher == at) return;  // own echo, the client drops it too
  ++stats_.deliveriesObserved;
  // Replicate the client's accept decision (subscription match + exact
  // dedup) so finalAudit can cross-check the client's own received()
  // counter — a disagreement means the end-host dedup misbehaved.
  const PubKey key{mcast.publisher, mcast.seq};
  std::set<PubKey>& acc = accepted_[at];
  if (acc.count(key)) return;
  bool matches = false;
  const auto& subs = it->second->subscriptions();
  for (const Name& cd : mcast.cds) {
    for (std::size_t len = 0; len <= cd.size() && !matches; ++len) {
      matches = subs.count(cd.prefix(len)) > 0;
    }
    if (matches) break;
  }
  if (!matches) return;
  acc.insert(key);
  const auto pit = pubs_.find(key);
  if (pit != pubs_.end()) pit->second.delivered.insert(at);
}

void InvariantChecker::onDrop(NodeId at, const PacketPtr& pkt, DropReason reason,
                              SimTime now) {
  (void)at; (void)now;
  retireMigrationCopy(pkt);
  switch (reason) {
    case DropReason::WireFault: ++wireFaultDrops_; break;
    case DropReason::NodeFailed: ++nodeFailedDrops_; break;
    case DropReason::BufferFull: ++bufferDrops_; break;
    case DropReason::CrashedQueued: ++crashedQueuedDrops_; break;
    case DropReason::QueueDrop: ++queueDrops_; break;
  }
}

void InvariantChecker::retireMigrationCopy(const PacketPtr& pkt) {
  if (pkt->kind != Packet::Kind::RpHandoff && pkt->kind != Packet::Kind::FibAdd &&
      pkt->kind != Packet::Kind::RpReclaim && pkt->kind != Packet::Kind::RpDemote) {
    return;
  }
  const auto it = migrationInFlight_.find(pkt.get());
  if (it == migrationInFlight_.end()) return;
  if (--it->second.first <= 0) migrationInFlight_.erase(it);
}

bool InvariantChecker::migrationControlInFlightFor(const Name& probe) const {
  for (const auto& [ptr, entry] : migrationInFlight_) {
    (void)ptr;
    for (const Name& cd : entry.second) {
      if (cd.isPrefixOf(probe)) return true;
    }
  }
  return false;
}

// ------------------------------------------------------------- state audits

void InvariantChecker::auditNow() {
  ++stats_.audits;
  if (opts_.checkPrefixFree) auditRpOwnership();
  if (opts_.checkStSoundness) auditStSoundness();
  if (opts_.checkLoopFreedom) auditLoopFreedom();
  if (opts_.checkEpochs) auditEpochMonotonicity();
  if (opts_.checkConservation) auditConservation(/*strict=*/false);
}

void InvariantChecker::schedulePeriodic(SimTime interval, SimTime until) {
  net_.sim().schedule(interval, [this, interval, until]() {
    auditNow();
    if (net_.sim().now() + interval <= until) schedulePeriodic(interval, until);
  });
}

void InvariantChecker::finalAudit() {
  ++stats_.audits;
  if (opts_.checkPrefixFree) auditRpOwnership();
  if (opts_.checkStSoundness) auditStSoundness();
  if (opts_.checkLoopFreedom) auditLoopFreedom();
  if (opts_.checkEpochs) auditEpochMonotonicity();
  if (opts_.checkConservation) auditConservation(/*strict=*/true);
  if (opts_.checkDelivery) auditDelivery();
}

void InvariantChecker::auditRpOwnership() {
  // Claims by live routers only: a crashed RP's role is dormant persisted
  // state, not an active claim on the CD space.
  std::vector<std::pair<Name, copss::CopssRouter*>> claims;
  for (copss::CopssRouter* r : routers_) {
    if (!liveRouter(r)) continue;
    for (const Name& p : r->rpPrefixes()) claims.emplace_back(p, r);
  }
  stats_.rpClaimsChecked += claims.size();
  for (std::size_t i = 0; i < claims.size(); ++i) {
    for (std::size_t j = i + 1; j < claims.size(); ++j) {
      const auto& [pi, ri] = claims[i];
      const auto& [pj, rj] = claims[j];
      if (ri == rj) continue;  // one router's own set is trivially consistent
      if (pi == pj) {
        // A duplicate claim is the benign in-flight transient while the
        // control traffic that settles it (takeover flood, reclaim/demote
        // handshake) is still traveling; with the wire quiet it is the
        // genuine split-brain.
        if (!migrationControlInFlightFor(pi)) {
          addViolation(Invariant::PrefixFreeRp, ri->id(),
                       "duplicate RP claim: " + pi.toString() + " claimed by node " +
                           std::to_string(ri->id()) + " and node " +
                           std::to_string(rj->id()));
        }
        continue;
      }
      // Nested claims arise legitimately after a balancer split (the old RP
      // keeps the coarse prefix, the new RP serves a carved-out leaf), but
      // only when the coarse RP has delegated: its own FIB must route the
      // finer prefix away instead of still resolving it locally. A coarse RP
      // that would still decapsulate the finer CD means two RPs serve it.
      const auto flagUndelegated = [&](copss::CopssRouter* coarse,
                                       copss::CopssRouter* fine,
                                       const Name& cp, const Name& fp) {
        const auto faces = coarse->cdFib().lpm(fp);
        if (std::find(faces.begin(), faces.end(), ndn::kLocalFace) != faces.end()) {
          addViolation(Invariant::PrefixFreeRp, coarse->id(),
                       "nested RP claim without delegation: node " +
                           std::to_string(coarse->id()) + " serves " +
                           cp.toString() + " and still resolves " + fp.toString() +
                           " locally while node " + std::to_string(fine->id()) +
                           " claims it");
        }
      };
      if (pi.isStrictPrefixOf(pj)) flagUndelegated(ri, rj, pi, pj);
      if (pj.isStrictPrefixOf(pi)) flagUndelegated(rj, ri, pj, pi);
    }
  }
}

void InvariantChecker::auditStSoundness() {
  const std::vector<Name> probes = probeSet();
  for (copss::CopssRouter* r : routers_) {
    if (!liveRouter(r)) continue;
    const auto& st = r->st();
    for (NodeId face : st.faces()) {
      // Soundness: every live exact subscription must pass the filter.
      for (const Name& cd : st.cdsOnFace(face)) {
        ++stats_.stEntriesChecked;
        if (!st.bloomMightContain(face, cd)) {
          addViolation(Invariant::StSoundness, r->id(),
                       "subscription " + cd.toString() + " on face " +
                           std::to_string(face) +
                           " is missing from the face's Bloom filter "
                           "(multicasts to it are silently starved)");
        }
      }
      // False-positive drift, measured against the exact map over the audit
      // probe set (informational unless it blows past the ceiling).
      if (st.options().useBloom) {
        stats_.maxPredictedBloomFp =
            std::max(stats_.maxPredictedBloomFp, st.predictedFalsePositiveRate(face));
        std::uint64_t faceProbes = 0;
        std::uint64_t falseProbes = 0;
        for (const Name& p : probes) {
          ++faceProbes;
          if (st.bloomMightContain(face, p) && !st.faceSubscribed(face, p)) {
            ++falseProbes;
          }
        }
        stats_.bloomProbes += faceProbes;
        stats_.bloomFalseProbes += falseProbes;
      }
    }
  }
  if (stats_.bloomProbes >= 100 &&
      stats_.measuredBloomFpRate() > opts_.bloomFpCeiling) {
    addViolation(Invariant::StSoundness, kInvalidNode,
                 "measured Bloom false-positive rate " +
                     std::to_string(stats_.measuredBloomFpRate()) +
                     " exceeds ceiling " + std::to_string(opts_.bloomFpCeiling));
  }
}

std::vector<Name> InvariantChecker::probeSet() const {
  std::set<Name> probes(opts_.extraProbes.begin(), opts_.extraProbes.end());
  for (copss::CopssRouter* r : routers_) {
    if (!liveRouter(r)) continue;
    for (const Name& prefix : r->cdFib().prefixes()) probes.insert(prefix);
    for (const Name& p : r->rpPrefixes()) probes.insert(p);
  }
  for (const auto& [key, rec] : pubs_) {
    (void)key;
    probes.insert(rec.cds.begin(), rec.cds.end());
  }
  return {probes.begin(), probes.end()};
}

void InvariantChecker::auditLoopFreedom() {
  std::map<NodeId, copss::CopssRouter*> routerById;
  for (copss::CopssRouter* r : routers_) routerById[r->id()] = r;

  for (const Name& probe : probeSet()) {
    // Is anyone (live) responsible for this CD? Dead ends only matter then.
    bool claimed = false;
    for (copss::CopssRouter* r : routers_) {
      if (!liveRouter(r)) continue;
      for (const Name& p : r->rpPrefixes()) {
        if (p.isPrefixOf(probe)) { claimed = true; break; }
      }
      if (claimed) break;
    }

    std::set<NodeId> owners;
    for (copss::CopssRouter* start : routers_) {
      if (!liveRouter(start)) continue;
      ++stats_.fibWalks;
      std::vector<NodeId> path{start->id()};
      std::set<NodeId> visited{start->id()};
      copss::CopssRouter* cur = start;
      for (;;) {
        const auto faces = cur->cdFib().lpm(probe);
        if (faces.empty()) {
          if (claimed) {
            addViolation(Invariant::LoopFreedom, cur->id(),
                         "dead end: no CD route for claimed " + probe.toString() +
                             " at node " + std::to_string(cur->id()));
          }
          break;
        }
        const NodeId next = faces.front();
        if (next == ndn::kLocalFace) {
          owners.insert(cur->id());
          break;
        }
        if (net_.isFailed(next)) break;  // blackhole: bounded loss, not a loop
        const auto rit = routerById.find(next);
        if (rit == routerById.end()) {
          addViolation(Invariant::LoopFreedom, cur->id(),
                       "CD route for " + probe.toString() + " at node " +
                           std::to_string(cur->id()) + " points at non-router " +
                           std::to_string(next));
          break;
        }
        if (!visited.insert(next).second) {
          // A cycle in the FIB snapshot is benign while a handoff/FIB-flood
          // control packet covering this CD is still on the wire: links are
          // FIFO, so data chasing the loop edge arrives after the control
          // packet has rewritten that hop's FIB. Only a cycle with no such
          // packet in flight is a real routing defect.
          if (!migrationControlInFlightFor(probe)) {
            std::string p;
            for (NodeId n : path) p += std::to_string(n) + "->";
            p += std::to_string(next);
            addViolation(Invariant::LoopFreedom, cur->id(),
                         "forwarding loop for " + probe.toString() + ": " + p);
          }
          break;
        }
        path.push_back(next);
        cur = rit->second;
      }
    }
    if (owners.size() > 1 && !migrationControlInFlightFor(probe)) {
      std::string list;
      for (NodeId o : owners) list += (list.empty() ? "" : ",") + std::to_string(o);
      addViolation(Invariant::PrefixFreeRp, kInvalidNode,
                   "divergent RP ownership for " + probe.toString() +
                       ": routers disagree between RPs {" + list + "}");
    }
  }
}

void InvariantChecker::auditEpochMonotonicity() {
  // Live claims, with the epoch each claimant believes it holds.
  struct Claim {
    const Name* prefix;
    std::uint64_t epoch;
    copss::CopssRouter* router;
  };
  std::vector<Claim> claims;
  for (copss::CopssRouter* r : routers_) {
    if (!liveRouter(r)) continue;
    for (const auto& [prefix, epoch] : r->rpEpochs()) {
      claims.push_back(Claim{&prefix, epoch, r});
    }
  }
  // Two live routers claiming a prefix at the SAME epoch is a forged or
  // corrupted claim — epochs are minted monotonically, so this cannot arise
  // from any legal transition and is never suppressed.
  for (std::size_t i = 0; i < claims.size(); ++i) {
    for (std::size_t j = i + 1; j < claims.size(); ++j) {
      if (claims[i].router != claims[j].router &&
          *claims[i].prefix == *claims[j].prefix &&
          claims[i].epoch == claims[j].epoch) {
        addViolation(Invariant::EpochMonotonic, claims[i].router->id(),
                     "two live claims on " + claims[i].prefix->toString() +
                         " at the same epoch " + std::to_string(claims[i].epoch) +
                         " (nodes " + std::to_string(claims[i].router->id()) + ", " +
                         std::to_string(claims[j].router->id()) + ")");
      }
    }
  }
  // Regression: a live claim below the high-water mark means a stale owner
  // re-surfaced. Benign only while the control traffic that demotes it is
  // still in flight (reclaim/demote handshake, takeover flood).
  for (const Claim& c : claims) {
    const auto hw = epochHighWater_.find(*c.prefix);
    if (hw != epochHighWater_.end() && c.epoch < hw->second &&
        !migrationControlInFlightFor(*c.prefix)) {
      addViolation(Invariant::EpochMonotonic, c.router->id(),
                   "epoch regression on " + c.prefix->toString() + ": node " +
                       std::to_string(c.router->id()) + " claims epoch " +
                       std::to_string(c.epoch) + " below the observed high water " +
                       std::to_string(hw->second));
    }
  }
  // Advance the high water from live claims AND every live router's observed
  // marks, so a standby's higher-epoch takeover raises the bar even while
  // the audit never caught the claim itself.
  for (const Claim& c : claims) {
    auto& hw = epochHighWater_[*c.prefix];
    if (c.epoch > hw) hw = c.epoch;
  }
  for (copss::CopssRouter* r : routers_) {
    if (!liveRouter(r)) continue;
    for (const auto& [prefix, epoch] : r->epochsSeen()) {
      auto& hw = epochHighWater_[prefix];
      if (epoch > hw) hw = epoch;
    }
  }
}

void InvariantChecker::auditConservation(bool strict) {
  // Queue drops are wire-side losses: the copy was put on the wire
  // (onWireSend fired) but the sender's face queue refused it.
  const auto wireDelta =
      static_cast<std::int64_t>(wireSends_) -
      static_cast<std::int64_t>(wireFaultDrops_ + queueDrops_ + wireArrivals_);
  const auto cpuDelta =
      static_cast<std::int64_t>(wireArrivals_ + localEnqueues_) -
      static_cast<std::int64_t>(nodeFailedDrops_ + bufferDrops_ +
                                crashedQueuedDrops_ + handled_);
  const auto leak = [&](const char* where, std::int64_t d) {
    addViolation(Invariant::PacketConservation, kInvalidNode,
                 std::string(where) + " ledger off by " + std::to_string(d) +
                     " (sent=" + std::to_string(wireSends_) +
                     " wireDrop=" + std::to_string(wireFaultDrops_) +
                     " queueDrop=" + std::to_string(queueDrops_) +
                     " arrived=" + std::to_string(wireArrivals_) +
                     " local=" + std::to_string(localEnqueues_) +
                     " cpuDrop=" +
                     std::to_string(nodeFailedDrops_ + bufferDrops_ +
                                    crashedQueuedDrops_) +
                     " handled=" + std::to_string(handled_) + ")");
  };
  if (wireDelta < 0) leak("wire", wireDelta);
  if (cpuDelta < 0) leak("cpu", cpuDelta);
  // Once the event queue has drained nothing can still be in flight: every
  // copy must be accounted delivered or dropped.
  if (strict && net_.sim().pendingEvents() == 0) {
    if (wireDelta != 0) leak("wire (drained)", wireDelta);
    if (cpuDelta != 0) leak("cpu (drained)", cpuDelta);
  }
  // Cross-check against the Network's own meters: the observer and the
  // meters count at the same sites, so any skew is an accounting bug.
  const std::uint64_t meterSends = net_.totalLinkPackets() - baseLinkPackets_;
  const std::uint64_t meterDrops = net_.totalDrops() - baseDrops_;
  const std::uint64_t ledgerDrops = wireFaultDrops_ + queueDrops_ +
                                    nodeFailedDrops_ + bufferDrops_ +
                                    crashedQueuedDrops_;
  if (meterSends != wireSends_) {
    addViolation(Invariant::PacketConservation, kInvalidNode,
                 "link-packet meter " + std::to_string(meterSends) +
                     " != observed wire sends " + std::to_string(wireSends_));
  }
  if (meterDrops != ledgerDrops) {
    addViolation(Invariant::PacketConservation, kInvalidNode,
                 "drop meter " + std::to_string(meterDrops) +
                     " != observed drops " + std::to_string(ledgerDrops));
  }
}

// Entitled iff some subscription interval covering a prefix of a carried CD
// (a) opened at least subscriptionSettle before the publication (the join
// had time to reach the tree), and (b) stayed open through deliverySettle
// past it (an unsubscribe racing the delivery waives the demand). Churn can
// only shrink the demanded set, never create a false violation.
bool InvariantChecker::entitledAt(NodeId client, const std::vector<Name>& cds,
                                  SimTime publishedAt) const {
  const auto lit = subLedger_.find(client);
  if (lit == subLedger_.end()) return false;
  for (const Name& cd : cds) {
    for (std::size_t len = 0; len <= cd.size(); ++len) {
      const auto iit = lit->second.find(cd.prefix(len));
      if (iit == lit->second.end()) continue;
      for (const SubInterval& iv : iit->second) {
        const bool settledBefore =
            iv.from == -1 || iv.from + opts_.subscriptionSettle <= publishedAt;
        const bool heldThrough =
            iv.to == -1 || iv.to >= publishedAt + opts_.deliverySettle;
        if (settledBefore && heldThrough) return true;
      }
    }
  }
  return false;
}

void InvariantChecker::auditDelivery() {
  const SimTime now = net_.sim().now();
  for (const auto& [key, rec] : pubs_) {
    const auto& [publisher, seq] = key;
    if (rec.publishedAt + opts_.deliverySettle > now) continue;  // still settling
    for (const auto& [cid, client] : clientById_) {
      (void)client;
      if (cid == publisher) continue;  // clients drop their own echoes
      if (!entitledAt(cid, rec.cds, rec.publishedAt)) continue;
      if (!rec.delivered.count(cid)) {
        std::string cds;
        for (const Name& cd : rec.cds) cds += (cds.empty() ? "" : ",") + cd.toString();
        addViolation(Invariant::MigrationDelivery, cid,
                     "publication seq " + std::to_string(seq) + " to [" + cds +
                         "] from node " + std::to_string(publisher) +
                         " never reached entitled subscriber node " +
                         std::to_string(cid),
                     {seq});
      }
    }
  }
  // Exactly-once cross-check: the checker's replicated accept count must
  // agree with each client's own dedup (PR 1's reliable-publish guarantee).
  for (const gc::GCopssClient* c : clients_) {
    const std::uint64_t mine =
        accepted_.count(c->id()) ? accepted_.at(c->id()).size() : 0;
    const std::uint64_t theirs = c->received() - baseReceived_.at(c->id());
    if (mine != theirs) {
      addViolation(Invariant::MigrationDelivery, c->id(),
                   "client accepted " + std::to_string(theirs) +
                       " publications but the audit ledger saw " +
                       std::to_string(mine) +
                       " distinct entitled deliveries (dedup mismatch)");
    }
  }
}

// ---------------------------------------------------------------- reporting

std::string InvariantChecker::reportText() const {
  std::ostringstream out;
  out << "invariant audit: " << violations_.size() << " violation(s) over "
      << stats_.audits << " audit(s)\n";
  for (const Violation& v : violations_) {
    out << "  [t=" << toMs(v.at) << "ms]";
    if (v.node != kInvalidNode) out << " node " << v.node;
    out << " " << invariantName(v.invariant) << ": " << v.detail;
    if (!v.witnessSeqs.empty()) {
      out << " (witness seqs:";
      for (std::uint64_t s : v.witnessSeqs) out << " " << s;
      out << ")";
    }
    out << "\n";
  }
  if (suppressedViolations_ > 0) {
    out << "  ... " << suppressedViolations_ << " further violation(s) suppressed\n";
  }
  out << "  stats: rpClaims=" << stats_.rpClaimsChecked
      << " stEntries=" << stats_.stEntriesChecked << " fibWalks=" << stats_.fibWalks
      << " pubs=" << stats_.publicationsTracked
      << " deliveries=" << stats_.deliveriesObserved
      << " bloomFp=" << stats_.measuredBloomFpRate()
      << " (predicted<=" << stats_.maxPredictedBloomFp << ")\n";
  return out.str();
}

}  // namespace gcopss::check
