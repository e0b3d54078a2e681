#include "gcopss/broker.hpp"

#include <algorithm>
#include <cassert>

namespace gcopss::gc {

SnapshotBroker::SnapshotBroker(NodeId id, Network& net, Options opts,
                               const game::GameMap& map, game::ObjectDatabase db,
                               std::vector<Name> servingLeafCds, BrokerOptions bopts)
    : CopssRouter(id, net, opts), map_(&map), db_(std::move(db)),
      serving_(std::move(servingLeafCds)),
      servingSet_(serving_.begin(), serving_.end()), bopts_(bopts) {}

Name SnapshotBroker::qrPrefix(const Name& leafCd) {
  return Name({"snapshot"}).append(leafCd);
}

Name SnapshotBroker::qrName(const Name& leafCd, game::ObjectId o) {
  return qrPrefix(leafCd).append("o").append(std::to_string(o));
}

Name SnapshotBroker::snapGroupCd(const Name& leafCd) {
  return Name({"snap"}).append(leafCd);
}

void SnapshotBroker::start() {
  // The broker "only subscribes to the leaf CDs representing its serving
  // area and calculates snapshots on receiving updates".
  for (const Name& leaf : serving_) subscribeLocal(leaf);
  onLocalMulticast = [this](const copss::MulticastPacket& mcast, SimTime) {
    const auto* upd = dynamic_cast<const GameUpdatePacket*>(&mcast);
    if (!upd) return;
    if (!servingSet_.count(upd->cds.front())) return;
    db_.applyUpdate(upd->objectId, upd->payloadSize);
    ++updatesApplied_;
  };
  ndnEngine().setLocalInterestHook(
      [this](NodeId, const ndn::InterestPacketPtr& interest) {
        onQrInterest(interest);
      });
}

Bytes SnapshotBroker::objectBytes(game::ObjectId id) const {
  const Bytes b = db_.object(id).snapshotBytes();
  return b > 0 ? b : bopts_.unchangedObjectBytes;
}

void SnapshotBroker::onQrInterest(const ndn::InterestPacketPtr& interest) {
  // /snapshot/<leaf components>/o/<objId>
  const Name& n = interest->name;
  if (n.size() < 3 || n.at(0) != "snapshot" || n.at(n.size() - 2) != "o") return;
  const auto objId = static_cast<game::ObjectId>(std::stoul(n.at(n.size() - 1)));
  ++qrServed_;
  auto data = makePacket<ndn::DataPacket>(n, objectBytes(objId), sim().now(),
                                                      objId);
  ndnEngine().putData(data);
}

void SnapshotBroker::handle(NodeId fromFace, const PacketPtr& pkt) {
  CopssRouter::handle(fromFace, pkt);
  if (pkt->kind == Packet::Kind::Subscribe) {
    const Name& cd = packet_cast<copss::SubscribePacket>(pkt).cd;
    if (!cd.empty() && cd.at(0) == "snap") {
      const Name leaf = Name(std::vector<std::string>(cd.components().begin() + 1,
                                                      cd.components().end()));
      if (servingSet_.count(leaf)) maybeStartCycle(leaf);
    }
  }
}

void SnapshotBroker::maybeStartCycle(const Name& leafCd) {
  CycleState& st = cycles_[leafCd];
  if (st.running) return;
  st.running = true;
  sim().schedule(bopts_.cycleInterval, [this, leafCd]() { emitCyclic(leafCd); });
}

void SnapshotBroker::emitCyclic(const Name& leafCd) {
  CycleState& st = cycles_[leafCd];
  const Name group = snapGroupCd(leafCd);
  // "stops on receiving the last Unsubscribe": no subscriber left -> halt.
  if (this->st().matchFaces({group}).empty()) {
    st.running = false;
    return;
  }
  const auto& objs = db_.objectsIn(leafCd);
  if (!objs.empty()) {
    const game::ObjectId obj = objs[st.nextIndex % objs.size()];
    st.nextIndex = (st.nextIndex + 1) % objs.size();
    // The broker publishes under its own node id: its n-th snapshot is seq n.
    ++cyclicSent_;
    auto pkt = makePacket<SnapshotObjectPacket>(
        group, objectBytes(obj), sim().now(), cyclicSent_, id(), obj,
        static_cast<std::uint32_t>(objs.size()));
    // Through our own CPU queue: the broker pays for each emission, so a
    // loaded broker paces its cycle down (the bottleneck Table III studies).
    deliverLocal(std::move(pkt));
  }
  sim().schedule(bopts_.cycleInterval, [this, leafCd]() { emitCyclic(leafCd); });
}

}  // namespace gcopss::gc
