#include "copss/hybrid.hpp"

#include "ndn/packets.hpp"

namespace gcopss::copss {

std::vector<Name> HybridEdgeRouter::allGroupNames(std::size_t numGroups) {
  std::vector<Name> out;
  // gcopss-tidy: allow(hot-alloc) control plane: a host's root subscription at a hybrid edge, once per Subscribe, never per publication
  out.reserve(numGroups);
  for (std::size_t i = 0; i < numGroups; ++i) out.push_back(groupName(i));
  return out;
}

Name HybridEdgeRouter::groupFor(const Name& cd) const {
  // Hash the high-level CD component (not the leaf), so /1, /1/2 and /1/_
  // all alias to the same group and the edge mapping table stays small.
  const std::string& top = cd.empty() ? std::string() : cd.at(0);
  return groupName(groupIndexFor(top, numGroups_));
}

void HybridEdgeRouter::onHostSubscribe(const Name& cd, bool subscribe) {
  std::vector<Name> groups;
  if (cd.empty()) {
    groups = allGroupNames(numGroups_);  // the root subscriber needs them all
  } else {
    groups.push_back(groupFor(cd));
  }
  for (const Name& g : groups) {
    if (subscribe) {
      if (++groupRefs_[g] == 1) {
        // First local interest in this group: join the group tree.
        for (NodeId f : cdFib().lpm(g)) {
          if (f != ndn::kLocalFace) {
            send(f, makePacket<SubscribePacket>(g));
            break;
          }
        }
      }
    } else {
      const auto it = groupRefs_.find(g);
      if (it != groupRefs_.end() && --it->second == 0) {
        groupRefs_.erase(it);
        for (NodeId f : cdFib().lpm(g)) {
          if (f != ndn::kLocalFace) {
            send(f, makePacket<UnsubscribePacket>(g));
            break;
          }
        }
      }
    }
  }
}

void HybridEdgeRouter::handle(NodeId fromFace, const PacketPtr& pkt) {
  const bool fromHost = fromFace == kInvalidNode || isHostFace(fromFace);
  switch (pkt->kind) {
    case Packet::Kind::Multicast: {
      const auto& mcast = packet_cast<MulticastPacket>(pkt);
      if (fromHost) {
        // Re-publish as group traffic, keeping the original CDs inside for
        // receiver-side filtering.
        std::vector<Name> cds;
        cds.push_back(groupFor(mcast.cds.front()));
        cds.insert(cds.end(), mcast.cds.begin(), mcast.cds.end());
        auto wrapped = makePacket<MulticastPacket>(std::move(cds), mcast.payloadSize,
                                                   mcast.publishedAt, mcast.seq,
                                                   mcast.publisher);
        CopssRouter::handle(fromFace, wrapped);
        return;
      }
      // From the core: deliver to interested hosts (the ST forward
      // CopssRouter::handle would run); count pure aliasing waste.
      if (stForward(fromFace, pkt) == 0) ++unwanted_;
      return;
    }
    case Packet::Kind::Subscribe: {
      if (fromHost) onHostSubscribe(packet_cast<SubscribePacket>(pkt).cd, true);
      CopssRouter::handle(fromFace, pkt);
      return;
    }
    case Packet::Kind::Unsubscribe: {
      if (fromHost) onHostSubscribe(packet_cast<UnsubscribePacket>(pkt).cd, false);
      CopssRouter::handle(fromFace, pkt);
      return;
    }
    default:
      CopssRouter::handle(fromFace, pkt);
      return;
  }
}

}  // namespace gcopss::copss
