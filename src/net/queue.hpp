#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "common/units.hpp"
#include "des/simulator.hpp"
#include "net/packet.hpp"

namespace gcopss {

// Finite-bandwidth links: every directed link owns a transmit ("face") queue
// on its sending side. A packet admitted at time t starts serializing when
// the face frees up and occupies it for size*8/bandwidth; the receiver sees
// it one propagation delay after the last bit leaves. Admission is guarded by
// a pluggable discipline (DropTail or RED below).
//
// Determinism contract (docs/ARCHITECTURE.md): all queueing happens on the
// *sender's* side, before the packet crosses a shard boundary, so a posted
// arrival still lands at least one lookahead (a propagation delay the link
// meets) after the send — serialization only pushes arrivals later. A face
// queue is touched exclusively by the lane that owns its sending node
// (admissions run there, and departures are settled against that lane's
// frontier, never by an event), so the hot path needs no locks and
// serial-vs-parallel runs stay bit-identical.

// Which admission discipline guards a face queue.
enum class QueueKind : std::uint8_t {
  DropTail,  // admit until a byte or packet cap is hit
  Red,       // Random Early Detection over the EWMA byte occupancy
};

// Network-wide face-queue configuration (Network::enableLinkQueues). Default
// is disabled: the legacy transmit path (fixed serialization delay, no
// occupancy, no queue drops) is byte-for-byte unchanged.
struct LinkQueueConfig {
  bool enabled = false;
  QueueKind kind = QueueKind::DropTail;
  Bytes capBytes = 64 * 1024;     // hard byte cap per face
  std::size_t capPackets = 256;   // hard packet cap per face

  // RED knobs. Thresholds are fractions of capBytes over the EWMA average
  // occupancy: below redMinFill always admit, above redMaxFill always drop,
  // in between drop with probability ramping linearly up to redMaxProb.
  double redMinFill = 0.25;
  double redMaxFill = 0.75;
  double redMaxProb = 0.10;
  double redWeight = 0.2;  // EWMA weight of the instantaneous occupancy

  // Seed for RED's per-face RNG lanes. Mirrors the
  // FaultPlan::withIndependentStreams idiom: each directed link draws from
  // its own substream seeded by (seed, from, to), so drop decisions depend
  // only on that face's own traffic order — which the deterministic merge
  // preserves at any thread count.
  std::uint64_t seed = 1;

  static LinkQueueConfig dropTail(Bytes capBytes, std::size_t capPackets = 256) {
    LinkQueueConfig c;
    c.enabled = true;
    c.kind = QueueKind::DropTail;
    c.capBytes = capBytes;
    c.capPackets = capPackets;
    return c;
  }
  static LinkQueueConfig red(Bytes capBytes, std::uint64_t seed = 1) {
    LinkQueueConfig c;
    c.enabled = true;
    c.kind = QueueKind::Red;
    c.capBytes = capBytes;
    c.seed = seed;
    return c;
  }
};

// Occupancy + lifetime counters for one face queue. `bytesQueued` /
// `packetsQueued` count packets admitted but not yet fully serialized;
// sojourn is the admit -> last-bit-out interval (queue wait + serialization).
struct FaceQueueStats {
  Bytes bytesQueued = 0;
  std::size_t packetsQueued = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t departed = 0;
  std::uint64_t dropped = 0;
  Bytes peakBytesQueued = 0;
  std::size_t peakPacketsQueued = 0;
  SimTime maxSojourn = 0;
  SimTime sojournSum = 0;  // over admitted packets; mean = sojournSum/enqueued
};

// Admission policy of one face queue. Called once per arriving packet, in
// DES order on the sending node's lane (implementations may keep state).
class QueueDiscipline {
 public:
  virtual ~QueueDiscipline() = default;
  // True = admit the packet of `size` into a queue currently holding `q`.
  virtual bool admit(const FaceQueueStats& q, Bytes size) = 0;
};

// Admit until the byte or packet cap would be exceeded, then drop.
class DropTailDiscipline final : public QueueDiscipline {
 public:
  DropTailDiscipline(Bytes capBytes, std::size_t capPackets)
      : capBytes_(capBytes), capPackets_(capPackets) {}
  GCOPSS_HOT bool admit(const FaceQueueStats& q, Bytes size) override {
    return q.bytesQueued + size <= capBytes_ && q.packetsQueued + 1 <= capPackets_;
  }

 private:
  Bytes capBytes_;
  std::size_t capPackets_;
};

// Random Early Detection (Floyd & Jacobson '93, simplified): track an EWMA
// of the byte occupancy; admit below minBytes, drop above maxBytes, and in
// between drop with probability ramping linearly to maxProb. The byte and
// packet caps stay as hard physical limits. Every random decision comes from
// this face's own seeded lane, so verdicts are a pure function of the face's
// arrival sequence (deterministic at any thread count).
class RedDiscipline final : public QueueDiscipline {
 public:
  RedDiscipline(const LinkQueueConfig& cfg, std::uint64_t laneSeed)
      : capBytes_(cfg.capBytes),
        capPackets_(cfg.capPackets),
        minBytes_(cfg.redMinFill * static_cast<double>(cfg.capBytes)),
        maxBytes_(cfg.redMaxFill * static_cast<double>(cfg.capBytes)),
        maxProb_(cfg.redMaxProb),
        weight_(cfg.redWeight),
        rng_(laneSeed) {
    assert(minBytes_ < maxBytes_ && "redMinFill must be below redMaxFill");
  }

  GCOPSS_HOT bool admit(const FaceQueueStats& q, Bytes size) override {
    avg_ = (1.0 - weight_) * avg_ + weight_ * static_cast<double>(q.bytesQueued);
    if (q.bytesQueued + size > capBytes_ || q.packetsQueued + 1 > capPackets_) {
      return false;  // physical buffer full: forced tail drop
    }
    if (avg_ < minBytes_) return true;
    if (avg_ >= maxBytes_) return false;
    const double p = maxProb_ * (avg_ - minBytes_) / (maxBytes_ - minBytes_);
    return !rng_.bernoulli(p);
  }

  double avgBytes() const { return avg_; }

 private:
  Bytes capBytes_;
  std::size_t capPackets_;
  double minBytes_;
  double maxBytes_;
  double maxProb_;
  double weight_;
  double avg_ = 0.0;
  Rng rng_;
};

// One directed link's transmit queue: lazy serialization bookkeeping
// (`freeAt_` = when the face's last admitted bit leaves) plus occupancy
// stats. A packet occupies the queue from admission until its last bit
// leaves at txDone; no event marks the departure. The queue keys it like an
// event on its lane (the sending node's Simulator) — (txDone, a seq
// reserved at admission) — and retires the packets keyed below the lane's
// frontier before every admission and every stats() read. So a packet
// leaves exactly where a departure event scheduled at admission would have
// run, ties included (see Simulator::frontier).
class FaceQueue {
 public:
  FaceQueue(NodeId from, NodeId to, double bandwidthBps,
            std::unique_ptr<QueueDiscipline> disc, Simulator& lane)
      : from_(from),
        to_(to),
        bandwidthBps_(bandwidthBps),
        disc_(std::move(disc)),
        lane_(&lane) {}

  struct Admission {
    bool admitted = false;
    SimTime txDone = 0;  // when the last bit leaves the sender (valid if admitted)
  };

  // Offer a packet of `size` to the face at the lane's now().
  GCOPSS_HOT Admission admit(Bytes size) {
    retire();
    if (!disc_->admit(stats_, size)) {
      ++stats_.dropped;
      return {};
    }
    const SimTime now = lane_->now();
    const SimTime txStart = freeAt_ > now ? freeAt_ : now;
    const SimTime txDone = txStart + txTime(size);
    freeAt_ = txDone;
    if (stats_.packetsQueued == ring_.size()) grow();
    ring_[(head_ + stats_.packetsQueued) & (ring_.size() - 1)] =
        InFlight{{txDone, lane_->reserveSeq()}, size};
    ++stats_.enqueued;
    stats_.bytesQueued += size;
    ++stats_.packetsQueued;
    if (stats_.bytesQueued > stats_.peakBytesQueued) {
      stats_.peakBytesQueued = stats_.bytesQueued;
    }
    if (stats_.packetsQueued > stats_.peakPacketsQueued) {
      stats_.peakPacketsQueued = stats_.packetsQueued;
    }
    const SimTime sojourn = txDone - now;
    stats_.sojournSum += sojourn;
    if (sojourn > stats_.maxSojourn) stats_.maxSojourn = sojourn;
    return {true, txDone};
  }

  // Time until the face would start serializing a packet admitted `now`
  // (0 = idle). The queue-side analogue of Node::cpuBacklog().
  SimTime backlog(SimTime now) const { return freeAt_ > now ? freeAt_ - now : 0; }

  GCOPSS_HOT SimTime txTime(Bytes size) const {
    return static_cast<SimTime>(static_cast<double>(size) * 8.0 / bandwidthBps_ *
                                kSecond);
  }

  NodeId from() const { return from_; }
  NodeId to() const { return to_; }
  // Counters as of the lane's frontier.
  const FaceQueueStats& stats() const {
    retire();
    return stats_;
  }

  // Move the queue onto another lane (Network::enableParallel). Only while
  // nothing is queued: the records' seqs belong to the old lane.
  void setLane(Simulator& lane) {
    assert(stats_.packetsQueued == 0 && "rebinding a face queue that holds packets");
    lane_ = &lane;
  }

 private:
  struct InFlight {
    Simulator::Key departs;
    Bytes size;
  };

  // Settling departures only moves records into the counters, so const
  // readers may do it too (hence `head_` and `stats_` are mutable).
  GCOPSS_HOT void retire() const {
    const Simulator::Key frontier = lane_->frontier();
    while (stats_.packetsQueued > 0 && ring_[head_].departs < frontier) {
      stats_.bytesQueued -= ring_[head_].size;
      --stats_.packetsQueued;
      ++stats_.departed;
      head_ = (head_ + 1) & (ring_.size() - 1);
    }
  }

  // GCOPSS_COLD: the ring doubles only when the face's occupancy passes its
  // previous peak (and the discipline caps occupancy at capPackets), so a
  // face stops allocating once it has seen its peak.
  GCOPSS_COLD void grow() {
    // Full: rotate the oldest record to the front, then double.
    std::rotate(ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                ring_.end());
    head_ = 0;
    ring_.resize(ring_.empty() ? 8 : 2 * ring_.size());
  }

  NodeId from_;
  NodeId to_;
  double bandwidthBps_;
  std::unique_ptr<QueueDiscipline> disc_;
  Simulator* lane_;
  SimTime freeAt_ = 0;
  // Admitted packets not yet departed, oldest first: `stats_.packetsQueued`
  // records from `head_` in a ring of power-of-two capacity. Admission order
  // is departure-key order (txDone never decreases, seqs only grow).
  std::vector<InFlight> ring_;
  mutable std::size_t head_ = 0;
  mutable FaceQueueStats stats_;
};

// Whole-network roll-up of every face queue (read from sequential context).
struct QueueAggregate {
  std::uint64_t enqueued = 0;
  std::uint64_t departed = 0;
  std::uint64_t dropped = 0;
  Bytes peakBytesQueued = 0;       // max over faces
  std::size_t peakPacketsQueued = 0;
  SimTime maxSojourn = 0;
  SimTime sojournSum = 0;
  double meanSojournMs() const {
    return enqueued == 0 ? 0.0
                         : toMs(sojournSum) / static_cast<double>(enqueued);
  }
  double maxSojournMs() const { return toMs(maxSojourn); }
};

// Per-face RED lane seed: a pure function of (config seed, direction) —
// byte-compatible with FaultInjector::prepareLanes' substream derivation.
inline std::uint64_t faceLaneSeed(std::uint64_t seed, NodeId from, NodeId to) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
      static_cast<std::uint32_t>(to);
  return mix64(seed ^ mix64(key ^ 0x9e3779b97f4a7c15ULL));
}

// Build the configured discipline for the (from -> to) face. RED gets its
// own per-direction RNG lane; DropTail is stateless.
std::unique_ptr<QueueDiscipline> makeQueueDiscipline(const LinkQueueConfig& cfg,
                                                     NodeId from, NodeId to);

}  // namespace gcopss
