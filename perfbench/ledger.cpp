#include "ledger.hpp"

#include <algorithm>

#include "common/hash.hpp"
#include "copss/packets.hpp"
#include "copss/router.hpp"
#include "des/simulator.hpp"
#include "ndn/packets.hpp"
#include "net/network.hpp"

namespace perfbench {

using namespace gcopss;

namespace {

// Keep one router call in kSampleEvery, at most kMaxSamples of each kind:
// enough for a stable per-call time without holding the run's packets alive.
constexpr std::uint64_t kSampleEvery = 16;
constexpr std::size_t kMaxSamples = 1 << 16;

}  // namespace

LedgerTap::LedgerTap(const std::vector<copss::CopssRouter*>& routers) {
  NodeId maxId = 0;
  for (const auto* r : routers) maxId = std::max(maxId, r->id());
  routerOf_.assign(static_cast<std::size_t>(maxId) + 1, nullptr);
  for (auto* r : routers) routerOf_[static_cast<std::size_t>(r->id())] = r;
  stCalls_.reserve(kMaxSamples);
  fibCalls_.reserve(kMaxSamples);
}

void LedgerTap::open() {
  loopStart_ = last_ = Clock::now();
  open_ = kUntapped;
}

void LedgerTap::close() {
  charge(kUntapped);
  const Clock::time_point end = last_;
  for (int r = 0; r < kRows; ++r) {
    seconds_[r] = std::chrono::duration<double>(spent_[r]).count();
  }
  loopSeconds_ = std::chrono::duration<double>(end - loopStart_).count();
}

inline void LedgerTap::charge(Row next) {
  const Clock::time_point now = Clock::now();
  spent_[open_] += now - last_;
  last_ = now;
  open_ = next;
}

void LedgerTap::onWireSend(NodeId, NodeId, const PacketPtr&, SimTime) { charge(kTransmit); }

void LedgerTap::onCpuEnqueue(NodeId, NodeId, const PacketPtr&, SimTime) {
  charge(kCpuEnqueue);
}

void LedgerTap::onDrop(NodeId, const PacketPtr&, DropReason, SimTime) { charge(kUntapped); }

void LedgerTap::onHandle(NodeId at, NodeId fromFace, const PacketPtr& pkt, SimTime) {
  const auto idx = static_cast<std::size_t>(at);
  copss::CopssRouter* r = idx < routerOf_.size() ? routerOf_[idx] : nullptr;
  charge(r ? kRouterHandle : kClientHandle);
  if (r && ++routerHandles_ % kSampleEvery == 0) sample(r, fromFace, pkt);
}

void LedgerTap::sample(copss::CopssRouter* r, NodeId fromFace, const PacketPtr& pkt) {
  if (pkt->kind == Packet::Kind::Multicast) {
    // Router-to-router multicast: CopssRouter::onMulticast -> stForward.
    if (fromFace == kInvalidNode || r->isHostFace(fromFace)) return;
    if (stCalls_.size() < kMaxSamples) stCalls_.push_back({r, fromFace, pkt});
  } else if (pkt->kind == Packet::Kind::Interest) {
    const auto& interest = packet_cast<ndn::InterestPacket>(pkt);
    if (!interest.encapsulated) return;
    // onEncapInterest's CD-FIB lookup; at the RP it is followed by stForward
    // of the decapsulated publication with no excluded face.
    if (fibCalls_.size() < kMaxSamples) fibCalls_.push_back({r, interest.nameId});
    if (stCalls_.size() < kMaxSamples && r->isRpFor(interest.nameId)) {
      stCalls_.push_back({r, kInvalidNode, interest.encapsulated});
    }
  }
}

LedgerTap::Kernels LedgerTap::replayKernels() {
  Kernels k;
  // Repeat each replay until it has run for ~20 ms so clock granularity and
  // first-touch misses wash out.
  constexpr double kMinSeconds = 0.02;
  if (!stCalls_.empty()) {
    std::vector<NodeId> out;
    std::uint64_t calls = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
      for (const StCall& c : stCalls_) {
        const auto& m = packet_cast<copss::MulticastPacket>(c.multicast);
        c.router->st().matchFacesHashedInto(m.cds, m.prefixHashes, m.matchKey, c.excludeFace,
                                            out);
      }
      calls += stCalls_.size();
      elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (elapsed < kMinSeconds);
    k.stMatchNs = elapsed * 1e9 / static_cast<double>(calls);
  }
  if (!fibCalls_.empty()) {
    std::uint64_t calls = 0;
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
      for (const FibCall& c : fibCalls_) {
        const auto* faces = c.router->cdFib().lpmFaces(c.nameId);
        sink += faces ? faces->size() : 0;
      }
      calls += fibCalls_.size();
      elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (elapsed < kMinSeconds);
    k.fibLpmNs = elapsed * 1e9 / static_cast<double>(calls);
    volatile std::uint64_t keep = sink;  // the lookups must not be optimised away
    (void)keep;
  }
  stCalls_.clear();
  fibCalls_.clear();
  return k;
}

// ---- isolated engine loop ---------------------------------------------------

namespace {

struct Strand {
  std::uint64_t remaining = 0;
  std::uint64_t state = 0;
};

struct LoopWorld {
  Simulator sim;
  std::vector<Strand> strands;
};

struct Tick {
  LoopWorld* w;
  std::uint64_t idx;
  std::uint64_t salt;
  std::uint64_t salt2;
  void operator()() const {
    Strand& s = w->strands[idx];
    if (s.remaining == 0) return;
    --s.remaining;
    s.state = mix64(s.state ^ salt ^ salt2);
    w->sim.schedule(static_cast<SimTime>(s.state % 997) + 1, Tick{w, idx, s.state, ~s.state});
  }
};
static_assert(sizeof(Tick) == 32);

}  // namespace

double eventLoopNsPerEvent(std::uint64_t events) {
  LoopWorld w;
  constexpr std::size_t kStrands = 64;
  w.strands.resize(kStrands);
  for (std::size_t i = 0; i < kStrands; ++i) {
    w.strands[i] = {events / kStrands, 0x9e3779b97f4a7c15ULL * (i + 1)};
    w.sim.scheduleAt(static_cast<SimTime>(i), Tick{&w, i, w.strands[i].state, 0});
  }
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t ran = w.sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count() * 1e9 / static_cast<double>(ran);
}

}  // namespace perfbench
