#pragma once

// Host-time ledger of a serial event loop, built from the Network's public
// PacketObserver tap. Every tap callback closes the gap opened by the
// previous one and charges it to that callback's row:
//
//   after onWireSend           -> net.transmit_self_s
//   after onCpuEnqueue         -> net.cpu_enqueue_self_s
//   after onHandle at a router -> copss.router_handle_self_s
//   after onHandle at a client -> gcopss.client_handle_self_s
//
// The gap before the first callback, the one after the last, and gaps
// opened by onDrop go to `untapped`. Engine dispatch (calendar-queue pop,
// handler call) has no tap of its own, so it lands inside whichever row was
// open when the previous event ended; so does the tap's own cost.
//
// The tap also samples the multicasts routers forward and the encapsulated
// publications they route, so the ST match and CD-FIB LPM kernels can be
// replayed in isolation after the drain (replayKernels()).

#include <chrono>
#include <cstdint>
#include <vector>

#include "net/observer.hpp"

namespace gcopss::copss {
class CopssRouter;
}

namespace perfbench {

class LedgerTap : public gcopss::PacketObserver {
 public:
  enum Row : int { kTransmit, kCpuEnqueue, kRouterHandle, kClientHandle, kUntapped, kRows };

  // `routers` are the run's routers; every other node is a client.
  explicit LedgerTap(const std::vector<gcopss::copss::CopssRouter*>& routers);

  // Open the ledger (call as the event loop starts) and close it (as it
  // ends); seconds() is valid after close().
  void open();
  void close();
  double seconds(Row r) const { return seconds_[r]; }
  double loopSeconds() const { return loopSeconds_; }

  struct Kernels {
    double stMatchNs = 0.0;  // per SubscriptionTable::matchFacesHashedInto
    double fibLpmNs = 0.0;   // per Fib::lpmFaces
  };
  // Replay the sampled calls through the routers' live tables (the calls
  // CopssRouter::stForward and onEncapInterest make). Call after the drain,
  // before the world is torn down; it perturbs the ST match caches and
  // counters, so read those first.
  Kernels replayKernels();

  void onWireSend(gcopss::NodeId, gcopss::NodeId, const gcopss::PacketPtr&,
                  gcopss::SimTime) override;
  void onCpuEnqueue(gcopss::NodeId, gcopss::NodeId, const gcopss::PacketPtr&,
                    gcopss::SimTime) override;
  void onHandle(gcopss::NodeId at, gcopss::NodeId fromFace, const gcopss::PacketPtr& pkt,
                gcopss::SimTime) override;
  void onDrop(gcopss::NodeId, const gcopss::PacketPtr&, gcopss::DropReason,
              gcopss::SimTime) override;

 private:
  using Clock = std::chrono::steady_clock;
  void charge(Row next);
  void sample(gcopss::copss::CopssRouter* r, gcopss::NodeId fromFace,
              const gcopss::PacketPtr& pkt);

  std::vector<gcopss::copss::CopssRouter*> routerOf_;  // NodeId -> router or null
  Clock::time_point loopStart_{};
  Clock::time_point last_{};
  Row open_ = kUntapped;
  Clock::duration spent_[kRows]{};
  double seconds_[kRows]{};
  double loopSeconds_ = 0.0;

  struct StCall {
    gcopss::copss::CopssRouter* router;
    gcopss::NodeId excludeFace;
    gcopss::PacketPtr multicast;
  };
  struct FibCall {
    gcopss::copss::CopssRouter* router;
    std::uint32_t nameId;
  };
  std::uint64_t routerHandles_ = 0;
  std::vector<StCall> stCalls_;
  std::vector<FibCall> fibCalls_;
};

// Isolated engine cost: 64 self-rescheduling strands with 32-byte handlers
// (the size class of the network's transmit and CPU-queue captures) on a
// bare Simulator. Returns host ns per event.
double eventLoopNsPerEvent(std::uint64_t events);

}  // namespace perfbench
