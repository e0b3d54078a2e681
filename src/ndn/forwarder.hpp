#pragma once

#include <functional>
#include <memory>

#include "ndn/content_store.hpp"
#include "ndn/fib.hpp"
#include "ndn/packets.hpp"
#include "ndn/pit.hpp"

namespace gcopss::ndn {

// The NDN forwarding engine (the "NDN Engine" box of Fig. 2): CS check, PIT
// aggregation and FIB longest-prefix forwarding for Interests; PIT-driven
// reverse-path delivery for Data. It is transport-agnostic: the owning node
// supplies hooks for emitting packets on faces and for the node-local
// application face (kLocalFace) — which is how the COPSS engine's special
// decapsulation port attaches at an RP.
class Forwarder {
 public:
  struct Hooks {
    // Emit a packet on a network face (face is a neighbour NodeId).
    std::function<void(NodeId face, PacketPtr pkt)> sendToFace;
    // An Interest reached this node's local application face.
    std::function<void(NodeId fromFace, const InterestPacketPtr&)>
        localInterest;
    // A Data packet satisfied a locally expressed Interest.
    std::function<void(const DataPacketPtr&)> localData;
  };

  // Content Store entries (LRU beyond this) and PIT entry lifetime.
  static constexpr std::size_t kCsCapacity = 4096;
  static constexpr SimTime kPitLifetime = seconds(4);

  struct Options {
    SimTime csFreshness = 0;  // 0: cached Data never ages out
  };

  // `names` is the world's NameTable, which the FIB keys its routes by.
  Forwarder(Hooks hooks, Options opts, const std::function<SimTime()>& now,
            NameTable& names)
      : hooks_(std::move(hooks)), fib_(names), cs_(kCsCapacity, opts.csFreshness),
        pit_(kPitLifetime), now_(now) {}

  void onInterest(NodeId fromFace, const InterestPacketPtr& interest);
  void onData(NodeId fromFace, const DataPacketPtr& data);

  // Express an Interest from the local application face.
  void expressInterest(const InterestPacketPtr& interest) {
    onInterest(kLocalFace, interest);
  }
  // Publish Data from the local application face (satisfies pending PIT).
  void putData(const DataPacketPtr& data) {
    onData(kLocalFace, data);
  }

  // Attach/replace local application hooks after construction (used by nodes
  // that host an application next to the engine, e.g. a snapshot broker).
  void setLocalInterestHook(
      std::function<void(NodeId, const InterestPacketPtr&)> h) {
    hooks_.localInterest = std::move(h);
  }
  void setLocalDataHook(std::function<void(const DataPacketPtr&)> h) {
    hooks_.localData = std::move(h);
  }

  Fib& fib() { return fib_; }
  const Fib& fib() const { return fib_; }
  Pit& pit() { return pit_; }
  ContentStore& contentStore() { return cs_; }

  std::uint64_t noRouteDrops() const { return noRouteDrops_; }
  std::uint64_t unsolicitedDataDrops() const { return unsolicitedData_; }

 private:
  void emit(NodeId face, PacketPtr pkt);

  Hooks hooks_;
  Fib fib_;
  ContentStore cs_;
  Pit pit_;
  std::function<SimTime()> now_;
  std::uint64_t noRouteDrops_ = 0;
  std::uint64_t unsolicitedData_ = 0;
};

}  // namespace gcopss::ndn
