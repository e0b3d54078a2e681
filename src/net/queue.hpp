#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/units.hpp"
#include "des/simulator.hpp"
#include "net/packet.hpp"

namespace gcopss {

// Finite-bandwidth links: every directed link owns a transmit ("face") queue
// on its sending side. A packet admitted at time t starts serializing when
// the face frees up and occupies it for size*8/bandwidth; the receiver sees
// it one propagation delay after the last bit leaves. Admission is DropTail:
// a packet that would overflow the face's byte or packet cap is dropped.
//
// Determinism contract (docs/ARCHITECTURE.md): all queueing happens on the
// *sender's* side, before the packet crosses a shard boundary, so a posted
// arrival still lands at least one lookahead (a propagation delay the link
// meets) after the send — serialization only pushes arrivals later. A face
// queue is touched exclusively by the lane that owns its sending node
// (admissions run there, and departures are settled against that lane's
// frontier, never by an event), so the hot path needs no locks and
// serial-vs-parallel runs stay bit-identical.

// Network-wide face-queue configuration (Network::enableLinkQueues). Default
// is disabled: the legacy transmit path (fixed serialization delay, no
// occupancy, no queue drops) is byte-for-byte unchanged.
struct LinkQueueConfig {
  bool enabled = false;
  Bytes capBytes = 64 * 1024;     // hard byte cap per face
  std::size_t capPackets = 256;   // hard packet cap per face

  static LinkQueueConfig dropTail(Bytes capBytes, std::size_t capPackets = 256) {
    LinkQueueConfig c;
    c.enabled = true;
    c.capBytes = capBytes;
    c.capPackets = capPackets;
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

// One directed link's transmit queue: byte and packet caps, lazy
// serialization bookkeeping (`freeAt_` = when the face's last admitted bit
// leaves) and occupancy stats. A packet occupies the queue from admission
// until its last bit leaves at txDone; no event marks the departure. The
// queue keys it like an event on its lane (the sending node's Simulator) —
// (txDone, a seq reserved at admission) — and retires the packets keyed
// below the lane's frontier before every admission and every stats() read.
// So a packet leaves exactly where a departure event scheduled at admission
// would have run, ties included (see Simulator::frontier).
class FaceQueue {
 public:
  FaceQueue(NodeId from, NodeId to, double bandwidthBps, Bytes capBytes,
            std::size_t capPackets, Simulator& lane)
      : from_(from),
        to_(to),
        bandwidthBps_(bandwidthBps),
        capBytes_(capBytes),
        capPackets_(capPackets),
        lane_(&lane) {}

  struct Admission {
    bool admitted = false;
    SimTime txDone = 0;  // when the last bit leaves the sender (valid if admitted)
  };

  // Offer a packet of `size` to the face at the lane's now(); refused if it
  // would overflow the byte or the packet cap.
  GCOPSS_HOT Admission admit(Bytes size) {
    retire();
    if (stats_.bytesQueued + size > capBytes_ || stats_.packetsQueued + 1 > capPackets_) {
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
  // previous peak (and admission caps occupancy at capPackets), so a
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
  Bytes capBytes_;
  std::size_t capPackets_;
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

}  // namespace gcopss
