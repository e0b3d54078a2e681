#pragma once

#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/seq_window.hpp"
#include "copss/packets.hpp"
#include "game/objects.hpp"
#include "gcopss/game_packets.hpp"
#include "ndn/packets.hpp"
#include "net/network.hpp"

namespace gcopss::gc {

// A player endpoint on G-COPSS: publishes updates tagged with leaf CDs and
// subscribes according to its position's visibility (Section III-B). Also
// exposes the plain-NDN query side (expressInterest/Data callback) used by
// the QR snapshot retrieval of Section IV-A.
class GCopssClient : public Node {
 public:
  using MulticastCallback =
      std::function<void(const copss::MulticastPacket&, SimTime now)>;
  using DataCallback =
      std::function<void(const ndn::DataPacketPtr&, SimTime now)>;

  GCopssClient(NodeId id, Network& net, NodeId edgeFace)
      : Node(id, net), edgeFace_(edgeFace) {}

  NodeId edgeFace() const { return edgeFace_; }

  // ---- pub/sub ----
  void subscribe(const Name& cd);
  void unsubscribe(const Name& cd);
  const std::set<Name>& subscriptions() const { return subscriptions_; }
  // Replace the whole subscription set (player moved): unsubscribes what is
  // no longer needed, subscribes what is new.
  void resubscribe(const std::vector<Name>& cds);

  void publish(const Name& cd, Bytes payload, std::uint64_t seq, game::ObjectId obj = 0);
  void setMulticastCallback(MulticastCallback cb) { onMulticast_ = std::move(cb); }

  // ---- reliable publish (fault recovery) ----
  // When enabled, every publish() requests a PubAck from the RP and is
  // retransmitted on timeout with exponential backoff (ackTimeout, 2x, 4x,
  // ...) up to maxRetries attempts. Retransmissions keep the original
  // publishedAt so latency metrics measure true end-to-end delay, and carry
  // the retx flag so routers re-flood instead of seq-suppressing them.
  // Off by default: unacked publishes stay byte-identical to the paper's
  // one-step datapath.
  //
  // Delivery contract: subscribers dedup on (publisher, seq), with one
  // SeqWindow per publisher. A copy is accepted exactly once if it arrives
  // before the publisher has published SeqWindow::kSpan (128) newer seqs;
  // an older first copy counts as seen and is dropped (at-most-once). So a
  // retransmission repairs a loss only within that span.
  struct ReliableOptions {
    SimTime ackTimeout = ms(50);
    unsigned maxRetries = 5;
  };
  void enableReliablePublish() { enableReliablePublish(ReliableOptions{}); }
  void enableReliablePublish(ReliableOptions opts) {
    reliable_ = opts;
    reliableEnabled_ = true;
  }
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t acksReceived() const { return acksReceived_; }
  // Publications abandoned after maxRetries unacked attempts.
  std::uint64_t publishFailures() const { return publishFailures_; }
  std::size_t pendingPublications() const { return pending_.size(); }
  // Subscriptions re-announced in response to an edge-router ST resync.
  std::uint64_t resubscribesSent() const { return resubscribesSent_; }

  // ---- COPSS two-step mode (ANCS'11) ----
  // Multicast only a snippet announcing /pub/<id>/<seq>; subscribers that
  // receive the announcement pull the payload with an NDN Interest, answered
  // by this client (and by router caches along the way).
  void publishTwoStep(const Name& cd, Bytes payload, std::uint64_t seq);
  static Name contentPrefixFor(NodeId clientId) {
    return Name({"pub", std::to_string(clientId)});
  }
  // The publisher of a content name /pub/<id>/<seq> built from the above.
  static NodeId contentPublisher(const Name& content) {
    return static_cast<NodeId>(std::stol(content.at(1)));
  }
  std::uint64_t twoStepFetchesIssued() const { return twoStepFetches_; }
  std::uint64_t twoStepServed() const { return twoStepServed_; }

  // ---- NDN query side (QR snapshots) ----
  void expressInterest(const Name& name);
  void setDataCallback(DataCallback cb) { onData_ = std::move(cb); }

  void handle(NodeId fromFace, const PacketPtr& pkt) override;
  SimTime serviceTime(const PacketPtr&) const override {
    return params().hostProcessCost;
  }

  std::uint64_t received() const { return received_; }
  std::uint64_t filteredOut() const { return filteredOut_; }

 private:
  bool matchesSubscription(const copss::MulticastPacket& mcast) const;
  void scheduleRetry(std::uint64_t seq, SimTime delay);

  NodeId edgeFace_;
  std::set<Name> subscriptions_;
  // Hashes of subscribed CDs, sorted, one entry per CD (a 64-bit collision
  // leaves two equal entries): a publication matches iff one of its prefix
  // hashes is subscribed — the same hash-only test routers use.
  std::vector<std::uint64_t> subscriptionHashes_;
  // One anti-replay window per publisher (contract above, beside
  // ReliableOptions), in row denseNodeIndex(publisher). Duplicates only
  // occur transiently, during RP migration and retransmission, so each
  // publisher needs only its recent seqs.
  SeqWindowRows seenSeqs_;
  MulticastCallback onMulticast_;
  DataCallback onData_;
  // Node-unique nonce space: two consumers pulling the same name must not
  // collide, or PITs would treat the second Interest as a forwarding loop.
  std::uint64_t nextNonce_ = (static_cast<std::uint64_t>(id()) << 32) + 1;
  std::uint64_t received_ = 0;
  std::uint64_t filteredOut_ = 0;

  // Two-step publisher state: contents announced but held locally until
  // subscribers pull them.
  struct HeldContent {
    Bytes size;
    SimTime publishedAt;
    std::uint64_t seq;
  };
  std::map<Name, HeldContent> held_;
  std::uint64_t twoStepFetches_ = 0;
  std::uint64_t twoStepServed_ = 0;

  // Reliable-publish state: everything needed to rebuild the packet for a
  // retransmission, keyed by seq until the RP's ack clears it.
  struct PendingPub {
    Name cd;
    Bytes payload;
    game::ObjectId obj;
    SimTime publishedAt;
    unsigned attempts = 0;  // retransmissions so far
  };
  bool reliableEnabled_ = false;
  ReliableOptions reliable_;
  std::map<std::uint64_t, PendingPub> pending_;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t acksReceived_ = 0;
  std::uint64_t publishFailures_ = 0;
  std::uint64_t resubscribesSent_ = 0;
};

}  // namespace gcopss::gc
