#include "gcopss/client.hpp"

#include <algorithm>

namespace gcopss::gc {

void GCopssClient::subscribe(const Name& cd) {
  if (!subscriptions_.insert(cd).second) return;
  const std::uint64_t h = cd.hash();
  subscriptionHashes_.insert(
      std::upper_bound(subscriptionHashes_.begin(), subscriptionHashes_.end(), h), h);
  send(edgeFace_, makePacket<copss::SubscribePacket>(cd));
}

void GCopssClient::unsubscribe(const Name& cd) {
  if (subscriptions_.erase(cd) == 0) return;
  subscriptionHashes_.erase(
      std::lower_bound(subscriptionHashes_.begin(), subscriptionHashes_.end(), cd.hash()));
  send(edgeFace_, makePacket<copss::UnsubscribePacket>(cd));
}

void GCopssClient::resubscribe(const std::vector<Name>& cds) {
  const std::set<Name> target(cds.begin(), cds.end());
  std::vector<Name> toDrop;
  for (const Name& cur : subscriptions_) {
    if (!target.count(cur)) toDrop.push_back(cur);
  }
  for (const Name& cd : toDrop) unsubscribe(cd);
  for (const Name& cd : target) subscribe(cd);
}

void GCopssClient::publish(const Name& cd, Bytes payload, std::uint64_t seq,
                           game::ObjectId obj) {
  if (!reliableEnabled_) {
    send(edgeFace_, makePacket<GameUpdatePacket>(cd, payload, sim().now(), seq, id(), obj));
    return;
  }
  auto pkt = makeMutablePacket<GameUpdatePacket>(cd, payload, sim().now(), seq, id(), obj);
  pkt->wantAck = true;
  pending_[seq] = PendingPub{cd, payload, obj, sim().now(), 0};
  scheduleRetry(seq, reliable_.ackTimeout);
  send(edgeFace_, PacketPtr(std::move(pkt)));
}

void GCopssClient::scheduleRetry(std::uint64_t seq, SimTime delay) {
  sim().schedule(delay, [this, seq]() {
    const auto it = pending_.find(seq);
    if (it == pending_.end()) return;  // acked in the meantime
    if (it->second.attempts >= reliable_.maxRetries) {
      ++publishFailures_;
      pending_.erase(it);
      return;
    }
    ++it->second.attempts;
    ++retransmissions_;
    // Rebuild with the original publish time (true end-to-end latency) and
    // the retx flag (routers re-flood past their seq-suppression records).
    auto pkt = makeMutablePacket<GameUpdatePacket>(
        it->second.cd, it->second.payload, it->second.publishedAt, seq, id(),
        it->second.obj);
    pkt->wantAck = true;
    pkt->retx = true;
    send(edgeFace_, PacketPtr(std::move(pkt)));
    scheduleRetry(seq, reliable_.ackTimeout << it->second.attempts);
  });
}

void GCopssClient::publishTwoStep(const Name& cd, Bytes payload, std::uint64_t seq) {
  const Name content = contentPrefixFor(id()).append(std::to_string(seq));
  held_[content] = HeldContent{payload, sim().now(), seq};
  send(edgeFace_, makePacket<copss::AnnouncePacket>(cd, content, payload, sim().now(),
                                                    seq, id()));
}

void GCopssClient::expressInterest(const Name& name) {
  send(edgeFace_, makePacket<ndn::InterestPacket>(network().names(), name, nextNonce_++));
}

bool GCopssClient::matchesSubscription(const copss::MulticastPacket& mcast) const {
  // A subscribed CD matching any prefix level of a carried CD means this
  // publication is in view.
  for (std::uint64_t h : mcast.prefixHashes) {
    if (std::binary_search(subscriptionHashes_.begin(), subscriptionHashes_.end(), h)) {
      return true;
    }
  }
  return false;
}

void GCopssClient::handle(NodeId fromFace, const PacketPtr& pkt) {
  (void)fromFace;
  switch (pkt->kind) {
    case Packet::Kind::Multicast: {
      const auto& mcast = packet_cast<copss::MulticastPacket>(pkt);
      if (mcast.publisher == id()) return;  // own update echoed back
      if (seenSeqs_.at(denseNodeIndex(mcast.publisher), 0).checkAndInsert(mcast.seq)) {
        return;  // duplicate delivery
      }
      if (!matchesSubscription(mcast)) {
        // Bloom false positive upstream, or aliased hybrid group traffic the
        // edge could not filter exactly — the host filters exactly.
        ++filteredOut_;
        return;
      }
      ++received_;
      if (const auto* ann = dynamic_cast<const copss::AnnouncePacket*>(&mcast)) {
        // Two-step: the snippet names the content; pull it.
        ++twoStepFetches_;
        expressInterest(ann->contentName);
        return;
      }
      if (onMulticast_) onMulticast_(mcast, sim().now());
      return;
    }
    case Packet::Kind::Interest: {
      // Two-step publisher side: serve a held content.
      const auto& interest = packet_cast<ndn::InterestPacket>(pkt);
      const auto it = held_.find(interest.name);
      if (it == held_.end()) return;
      ++twoStepServed_;
      send(edgeFace_, makePacket<ndn::DataPacket>(interest.name, it->second.size,
                                                  it->second.publishedAt, it->second.seq));
      return;
    }
    case Packet::Kind::Data:
      if (onData_) {
        onData_(packet_pointer_cast<ndn::DataPacket>(pkt), sim().now());
      }
      return;
    case Packet::Kind::PubAck: {
      const auto& ack = packet_cast<copss::PubAckPacket>(pkt);
      if (ack.publisher == id() && pending_.erase(ack.seq) > 0) ++acksReceived_;
      return;
    }
    case Packet::Kind::StResync: {
      // Edge router restarted with an empty Subscription Table: re-announce
      // everything we subscribe to. The resync flag keeps replays idempotent
      // at routers that did not lose state.
      for (const Name& cd : subscriptions_) {
        auto sub = makeMutablePacket<copss::SubscribePacket>(cd);
        sub->resync = true;
        send(edgeFace_, PacketPtr(std::move(sub)));
        ++resubscribesSent_;
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace gcopss::gc
