#pragma once

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/name.hpp"
#include "ndn/forwarder.hpp"
#include "net/network.hpp"

namespace gcopss::ndngame {

// One game update carried inside an accumulated segment.
struct UpdateEntry {
  std::uint64_t seq = 0;  // publication index + 1
  SimTime publishedAt = 0;
  Name cd;
  Bytes size = 0;
};

// An accumulated-update Data segment (the VoCCN-style optimisation of
// Section V-A: all updates within one accumulation window travel together).
struct UpdateSegment : ndn::DataPacket {
  UpdateSegment(Name n, Bytes payload, SimTime created, std::uint64_t segSeq,
                std::vector<UpdateEntry> entries)
      : DataPacket(std::move(n), payload, created, segSeq),
        updates(std::move(entries)) {}
  std::vector<UpdateEntry> updates;
};

// A plain NDN router (no COPSS engine) for the pure-NDN baseline.
class NdnRouterNode : public Node {
 public:
  NdnRouterNode(NodeId id, Network& net, ndn::Forwarder::Options opts = {});

  void handle(NodeId fromFace, const PacketPtr& pkt) override;
  SimTime serviceTime(const PacketPtr& pkt) const override;

  ndn::Forwarder& engine() { return fwd_; }

 private:
  ndn::Forwarder fwd_;
};

// A player in the query/response NDN game (VoCCN [18] transport, ACT [19]
// player management assumed: everyone knows every other player). Producer
// side accumulates its trace updates into segments every `accumulation`
// interval; consumer side keeps a pipeline of `window` outstanding Interests
// per polled peer, with timeout-driven retransmission.
class NdnGamePlayer : public Node {
 public:
  struct Options {
    std::size_t window = 3;              // outstanding Interests per peer
    SimTime accumulation = ms(100);      // update accumulation interval t
    SimTime rto = seconds(1);            // retransmission timeout
    SimTime rtoMax = seconds(8);
  };
  // Header bytes of an UpdateSegment beyond its entries' payloads.
  static constexpr Bytes kSegmentOverhead = 16;

  // Latency callback: (updateSeq, publishedAt, deliveredAt).
  using DeliveryCallback =
      std::function<void(const UpdateEntry& entry, SimTime deliveredAt)>;

  NdnGamePlayer(NodeId id, Network& net, std::uint32_t playerIdx, NodeId edgeFace,
                Options opts);

  static Name prefixFor(std::uint32_t playerIdx);

  // Which other players this one polls, and which CDs it can see.
  void setPeers(std::vector<std::uint32_t> peerIdx) { peers_ = std::move(peerIdx); }
  void setVisibilityFilter(std::function<bool(const Name&)> seesCd) {
    seesCd_ = std::move(seesCd);
  }
  void setDeliveryCallback(DeliveryCallback cb) { onDelivery_ = std::move(cb); }

  // Kick off the consumer pipelines and the producer accumulation timer.
  void start();

  // Producer side: called by the harness for each trace record of this player.
  void publishUpdate(const Name& cd, Bytes size, std::uint64_t seq);

  void handle(NodeId fromFace, const PacketPtr& pkt) override;
  SimTime serviceTime(const PacketPtr&) const override {
    return params().hostProcessCost;
  }

  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t segmentsProduced() const { return segSeq_; }

 private:
  void produceSegment();
  void respond(std::uint64_t segSeq);
  void expressInterest(std::uint32_t peer, std::uint64_t segSeq, SimTime rto);
  void onSegment(const UpdateSegment& seg);

  std::uint32_t playerIdx_;
  NodeId edgeFace_;
  Options opts_;
  std::vector<std::uint32_t> peers_;
  std::function<bool(const Name&)> seesCd_;
  DeliveryCallback onDelivery_;

  // Producer state.
  std::vector<UpdateEntry> pending_;
  std::uint64_t segSeq_ = 0;
  std::map<std::uint64_t, RefPtr<const UpdateSegment>> segments_;
  std::set<std::uint64_t> waitingInterests_;  // segment seqs requested early
  bool producerTimerRunning_ = false;

  // Consumer state, per peer.
  struct PeerState {
    std::uint64_t nextToRequest = 1;
    std::set<std::uint64_t> outstanding;
    std::set<std::uint64_t> received;
  };
  std::map<std::uint32_t, PeerState> peerState_;

  std::uint64_t nextNonce_ = (static_cast<std::uint64_t>(id()) << 32) + 1;
  std::uint64_t retransmissions_ = 0;
};

}  // namespace gcopss::ndngame
