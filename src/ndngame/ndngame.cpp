#include "ndngame/ndngame.hpp"

#include <cassert>

namespace gcopss::ndngame {

NdnRouterNode::NdnRouterNode(NodeId id, Network& net, ndn::Forwarder::Options opts)
    : Node(id, net),
      fwd_(ndn::Forwarder::Hooks{
               [this](NodeId face, PacketPtr pkt) { send(face, std::move(pkt)); },
               nullptr, nullptr},
           opts, [this]() { return sim().now(); }, net.names()) {}

void NdnRouterNode::handle(NodeId fromFace, const PacketPtr& pkt) {
  switch (pkt->kind) {
    case Packet::Kind::Interest:
      fwd_.onInterest(fromFace, packet_pointer_cast<ndn::InterestPacket>(pkt));
      return;
    case Packet::Kind::Data:
      fwd_.onData(fromFace, packet_pointer_cast<ndn::DataPacket>(pkt));
      return;
    default:
      return;
  }
}

SimTime NdnRouterNode::serviceTime(const PacketPtr& pkt) const {
  return pkt->kind == Packet::Kind::Interest ? params().ndnInterestCost
                                             : params().ndnDataCost;
}

NdnGamePlayer::NdnGamePlayer(NodeId id, Network& net, std::uint32_t playerIdx,
                             NodeId edgeFace, Options opts)
    : Node(id, net), playerIdx_(playerIdx), edgeFace_(edgeFace), opts_(opts) {}

Name NdnGamePlayer::prefixFor(std::uint32_t playerIdx) {
  return Name({"player", std::to_string(playerIdx)});
}

void NdnGamePlayer::start() {
  for (std::uint32_t peer : peers_) {
    PeerState& st = peerState_[peer];
    for (std::size_t i = 0; i < opts_.window; ++i) {
      expressInterest(peer, st.nextToRequest++, opts_.rto);
    }
  }
}

void NdnGamePlayer::publishUpdate(const Name& cd, Bytes size, std::uint64_t seq) {
  pending_.push_back(UpdateEntry{seq, sim().now(), cd, size});
  if (!producerTimerRunning_) {
    producerTimerRunning_ = true;
    sim().schedule(opts_.accumulation, [this]() { produceSegment(); });
  }
}

void NdnGamePlayer::produceSegment() {
  producerTimerRunning_ = false;
  if (pending_.empty()) return;
  Bytes payload = kSegmentOverhead;
  for (const auto& e : pending_) payload += e.size;
  ++segSeq_;
  const Name name = prefixFor(playerIdx_).append("u").append(std::to_string(segSeq_));
  // createdAt carries the segment's production time; per-update latency uses
  // each entry's own publishedAt.
  auto seg = makePacket<UpdateSegment>(name, payload, sim().now(), segSeq_,
                                                   std::move(pending_));
  pending_.clear();
  segments_[segSeq_] = seg;
  if (waitingInterests_.erase(segSeq_) > 0) respond(segSeq_);
}

void NdnGamePlayer::respond(std::uint64_t segSeq) {
  const auto it = segments_.find(segSeq);
  assert(it != segments_.end());
  send(edgeFace_, it->second);
}

void NdnGamePlayer::expressInterest(std::uint32_t peer, std::uint64_t segSeq,
                                    SimTime rto) {
  PeerState& st = peerState_[peer];
  if (st.received.count(segSeq)) return;
  st.outstanding.insert(segSeq);
  const Name name = prefixFor(peer).append("u").append(std::to_string(segSeq));
  send(edgeFace_, makePacket<ndn::InterestPacket>(network().names(), name, nextNonce_++));
  // Timeout: if still outstanding after `rto`, re-express with backoff.
  sim().schedule(rto, [this, peer, segSeq, rto]() {
    const auto it = peerState_.find(peer);
    if (it == peerState_.end() || !it->second.outstanding.count(segSeq)) return;
    ++retransmissions_;
    const SimTime next = std::min(rto * 2, opts_.rtoMax);
    expressInterest(peer, segSeq, next);
  });
}

void NdnGamePlayer::onSegment(const UpdateSegment& seg) {
  // Name: /player/<peer>/u/<seq>
  if (seg.name.size() < 4) return;
  const auto peer = static_cast<std::uint32_t>(std::stoul(seg.name.at(1)));
  const auto it = peerState_.find(peer);
  if (it == peerState_.end()) return;
  PeerState& st = it->second;
  if (!st.received.insert(seg.seq).second) return;  // duplicate
  st.outstanding.erase(seg.seq);
  const SimTime now = sim().now();
  for (const UpdateEntry& e : seg.updates) {
    if (seesCd_ && !seesCd_(e.cd)) continue;  // outside my AoI
    if (onDelivery_) onDelivery_(e, now);
  }
  // Slide the pipeline forward by one.
  expressInterest(peer, st.nextToRequest++, opts_.rto);
}

void NdnGamePlayer::handle(NodeId fromFace, const PacketPtr& pkt) {
  (void)fromFace;
  switch (pkt->kind) {
    case Packet::Kind::Interest: {
      const auto& interest = packet_cast<ndn::InterestPacket>(pkt);
      // Producer side: /player/<me>/u/<seq>.
      if (interest.name.size() < 4) return;
      const std::uint64_t segSeq = std::stoull(interest.name.at(3));
      if (segments_.count(segSeq)) {
        respond(segSeq);
      } else {
        waitingInterests_.insert(segSeq);  // reply when produced (pipelining)
      }
      return;
    }
    case Packet::Kind::Data: {
      const auto* seg = dynamic_cast<const UpdateSegment*>(pkt.get());
      if (seg) onSegment(*seg);
      return;
    }
    default:
      return;
  }
}

}  // namespace gcopss::ndngame
