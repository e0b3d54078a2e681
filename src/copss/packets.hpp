#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "common/name.hpp"
#include "net/packet.hpp"

namespace gcopss::copss {

constexpr Bytes kControlPacketBytes = 32;
constexpr Bytes kMulticastHeaderBytes = 32;

// Subscribe / Unsubscribe: a host (or downstream router, when aggregating)
// announces interest in a CD. Propagates hop-by-hop toward the RP(s) whose
// served prefixes intersect the CD.
// `scope` directs the propagation: a host sends an unscoped Subscribe; the
// first-hop router expands it into one scoped copy per intersecting assigned
// RP prefix, and each copy then follows the single FIB next hop toward that
// RP ("ST is built on the reverse FIB path"). Without the scope, a coarse
// subscription spanning several RPs would re-fan-out at every router and
// weave a mesh instead of per-RP trees.
struct SubscribePacket : Packet {
  static constexpr Kind kKind = Kind::Subscribe;
  explicit SubscribePacket(Name c)
      : Packet(kKind, kControlPacketBytes), cd(std::move(c)) {}
  SubscribePacket(Name c, Name s)
      : Packet(kKind, kControlPacketBytes), cd(std::move(c)), scope(std::move(s)),
        scoped(true) {}
  Name cd;
  Name scope;  // assigned prefix this copy heads for (valid when `scoped`)
  bool scoped = false;
  // Re-announced during ST resync after a router restart: routers apply it
  // idempotently (no refcount bump when the face already subscribes) so a
  // replay never corrupts Unsubscribe accounting.
  bool resync = false;
};

struct UnsubscribePacket : Packet {
  static constexpr Kind kKind = Kind::Unsubscribe;
  explicit UnsubscribePacket(Name c)
      : Packet(kKind, kControlPacketBytes), cd(std::move(c)) {}
  UnsubscribePacket(Name c, Name s)
      : Packet(kKind, kControlPacketBytes), cd(std::move(c)), scope(std::move(s)),
        scoped(true) {}
  Name cd;
  Name scope;
  bool scoped = false;
};

// "Hash at the first hop": appends the hash of every prefix level of `cd`,
// root first — a run of cd.size() + 1 hashes ending in cd's own hash.
// Transit routers match the ST Bloom filters on these and never touch the
// textual name again. One FNV-1a fold over the components yields every
// level's Name::hash() in turn, so no intermediate prefix Names are
// materialised.
inline void appendPrefixHashes(const Name& cd, std::vector<std::uint64_t>& out) {
  std::size_t at = out.size();
  // gcopss-tidy: allow(hot-alloc) hashing at the first hop: one growth per MulticastPacket built or per allocating matchFaces() lookup; transit forwarding reuses the packet's hashes
  out.resize(at + cd.size() + 1);
  std::uint64_t h = fnv1a64("");  // the FNV basis: the root's hash
  out[at] = h;
  for (const std::string& c : cd.components()) {
    h = fnv1a64("/", fnv1a64(c, h));
    out[++at] = h;
  }
}

// A published update. Carries its CDs plus their pre-computed hashes — the
// paper's optimisation of hashing once at the first-hop router so transit
// routers only do Bloom bit tests.
struct MulticastPacket : Packet {
  static constexpr Kind kKind = Kind::Multicast;
  MulticastPacket(std::vector<Name> cdsIn, Bytes payload, SimTime published,
                  std::uint64_t seqIn, NodeId publisherIn)
      : Packet(kKind, kMulticastHeaderBytes + payload), cds(std::move(cdsIn)),
        payloadSize(payload), publishedAt(published), seq(seqIn),
        publisher(publisherIn) {
    for (const auto& c : cds) {
      appendPrefixHashes(c, prefixHashes);
      cdHashes.push_back(prefixHashes.back());
    }
    matchKey = foldHashes(prefixHashes.data(), prefixHashes.size());
  }

  std::vector<Name> cds;
  std::vector<std::uint64_t> cdHashes;        // full-CD hashes
  std::vector<std::uint64_t> prefixHashes;    // every prefix level of every CD
  // Folded prefixHashes, the hash-at-first-hop idea extended to the whole
  // match: every hop addresses its ST match cache with this one key.
  std::uint64_t matchKey = 0;
  Bytes payloadSize;
  SimTime publishedAt;   // for end-to-end latency metrics
  // The publication's identity and dedup key is (publisher, seq): each
  // publisher numbers its own publications from 1. Routers record per
  // (publisher, face) and hosts per publisher which seqs they have seen
  // (common/seq_window.hpp).
  std::uint64_t seq;
  NodeId publisher;
  // Reliable publish: the RP acknowledges delivery back to the publisher,
  // which retransmits on timeout with exponential backoff.
  bool wantAck = false;
  // A retransmission bypasses router seq-suppression (the first attempt may
  // have died past a router that already recorded the seq); end hosts still
  // dedup, so subscribers see each (publisher, seq) at most once.
  bool retx = false;
};

// COPSS two-step dissemination (the original ANCS'11 COPSS design that
// G-COPSS deliberately bypasses for sub-200-byte game updates): the
// multicast carries only a snippet announcing the content's name and size;
// interested subscribers pull the full payload with a plain NDN Interest,
// which aggregates in PITs and hits router caches. One-step-vs-two-step is
// quantified by bench_ablation.
constexpr Bytes kSnippetBytes = 24;

struct AnnouncePacket : MulticastPacket {
  AnnouncePacket(Name cd, Name content, Bytes fullSizeIn, SimTime published,
                 std::uint64_t seqIn, NodeId publisherIn)
      : MulticastPacket({std::move(cd)}, kSnippetBytes, published, seqIn, publisherIn),
        contentName(std::move(content)), fullSize(fullSizeIn) {}
  Name contentName;
  Bytes fullSize;
};

// FIB add: announces that `origin` (an RP) serves `prefixes`.
// Flooded with duplicate suppression; routers point their FIB entry at the
// arrival face (reverse-path), forming a shortest-path tree toward the RP.
struct FibAddPacket : Packet {
  static constexpr Kind kKind = Kind::FibAdd;
  FibAddPacket(std::vector<Name> p, std::vector<std::uint64_t> e, NodeId originIn,
               std::uint64_t txn)
      : Packet(kKind, kControlPacketBytes), prefixes(std::move(p)),
        epochs(std::move(e)), origin(originIn), txnId(txn) {}
  std::vector<Name> prefixes;
  // Ownership epoch (>= 1) per prefix, parallel to `prefixes`. Routers apply
  // an announcement only when its epoch is >= the highest they have observed
  // for that prefix, so a stale re-advertisement can never overwrite the FIB.
  std::vector<std::uint64_t> epochs;
  NodeId origin;
  std::uint64_t txnId;  // also the flood-suppression key
};

// --- RP migration control (Section IV-B) ---

// Phase 1-2: old RP hands a CD set to the new RP. Unicast hop-by-hop along
// the old->new path; each router it traverses redirects its FIB for the CDs
// toward the new RP and installs the relay ST entry back toward the old RP.
struct RpHandoffPacket : Packet {
  static constexpr Kind kKind = Kind::RpHandoff;
  RpHandoffPacket(std::vector<Name> c, std::vector<std::uint64_t> e, NodeId oldRpIn,
                  NodeId newRpIn, std::uint64_t txn)
      : Packet(kKind, kControlPacketBytes), cds(std::move(c)), epochs(std::move(e)),
        oldRp(oldRpIn), newRp(newRpIn), txnId(txn) {}
  std::vector<Name> cds;
  // Epoch at which the new RP will claim each CD (parallel to `cds`): the old
  // owner's epoch + 1, minted by the resigning RP so transit routers and the
  // new RP agree on the successor epoch before the FIB flood goes out.
  std::vector<std::uint64_t> epochs;
  NodeId oldRp;
  NodeId newRp;
  std::uint64_t txnId;
};

// Phase 3: pending-ST join/confirm/leave (the loss-free tree switch).
struct StJoinPacket : Packet {
  static constexpr Kind kKind = Kind::StJoin;
  StJoinPacket(std::vector<Name> c, std::uint64_t txn)
      : Packet(kKind, kControlPacketBytes), cds(std::move(c)), txnId(txn) {}
  std::vector<Name> cds;
  std::uint64_t txnId;
};

struct StConfirmPacket : Packet {
  static constexpr Kind kKind = Kind::StConfirm;
  StConfirmPacket(std::vector<Name> c, std::uint64_t txn)
      : Packet(kKind, kControlPacketBytes), cds(std::move(c)), txnId(txn) {}
  std::vector<Name> cds;
  std::uint64_t txnId;
};

struct StLeavePacket : Packet {
  static constexpr Kind kKind = Kind::StLeave;
  StLeavePacket(std::vector<Name> c, std::uint64_t txn)
      : Packet(kKind, kControlPacketBytes), cds(std::move(c)), txnId(txn) {}
  std::vector<Name> cds;
  std::uint64_t txnId;
};

// --- fault recovery control ---

// RP -> publisher: publication `seq` was decapsulated and multicast. Routed
// hop-by-hop toward the publisher along SPF next hops (no PIT state needed;
// the simulator shares one SPF table across all stacks).
struct PubAckPacket : Packet {
  static constexpr Kind kKind = Kind::PubAck;
  PubAckPacket(NodeId pub, std::uint64_t s)
      : Packet(kKind, kControlPacketBytes), publisher(pub), seq(s) {}
  NodeId publisher;
  std::uint64_t seq;
};

// RP -> standby: liveness beacon carrying the currently served prefixes, so
// the standby knows exactly what to assume when the beacons stop.
struct RpHeartbeatPacket : Packet {
  static constexpr Kind kKind = Kind::RpHeartbeat;
  RpHeartbeatPacket(NodeId rpIn, NodeId standbyIn, std::vector<Name> p,
                    std::vector<std::uint64_t> e)
      : Packet(kKind, kControlPacketBytes), rp(rpIn), standby(standbyIn),
        prefixes(std::move(p)), epochs(std::move(e)) {}
  NodeId rp;
  NodeId standby;
  std::vector<Name> prefixes;
  // The RP's claim epoch per prefix (parallel to `prefixes`): the standby
  // assumes the role at epoch + 1, so its takeover flood outranks any later
  // re-advertisement by the crashed primary.
  std::vector<std::uint64_t> epochs;
};

// Restarted router -> every neighbour: "my Subscription Table is gone —
// re-announce". Hosts resend their subscriptions; routers replay the scoped
// subscriptions they had forwarded to this face plus any unconfirmed
// pending-ST joins, so an in-flight migration survives the crash.
struct ResyncRequestPacket : Packet {
  static constexpr Kind kKind = Kind::StResync;
  explicit ResyncRequestPacket(NodeId originIn)
      : Packet(kKind, kControlPacketBytes), origin(originIn) {}
  NodeId origin;
};

// --- epoch reconciliation (restart-time RP ownership handshake) ---

// Restarted RP -> every neighbour: "my persisted config says I own these
// prefixes at these epochs — is that still true?" A neighbour that has
// observed a higher epoch for a prefix (a standby assumed the role while the
// claimant was down) answers with an RpDemote naming the stale subset; one
// that hasn't stays silent and the claim stands. Without this handshake a
// restarted RP silently re-advertises and the network splits-brain.
struct RpReclaimPacket : Packet {
  static constexpr Kind kKind = Kind::RpReclaim;
  RpReclaimPacket(NodeId originIn, std::vector<Name> p, std::vector<std::uint64_t> e,
                  std::uint32_t ttlIn, std::uint64_t nonceIn)
      : Packet(kKind, kControlPacketBytes), origin(originIn), prefixes(std::move(p)),
        epochs(std::move(e)), ttl(ttlIn), nonce(nonceIn) {}
  NodeId origin;
  std::vector<Name> prefixes;
  std::vector<std::uint64_t> epochs;  // the claimant's epoch per prefix
  // Remaining forwarding budget: a router receiving ttl > 0 re-sends a fresh
  // copy (ttl - 1) to its other router faces, so the probe reaches the
  // routers that actually observed a takeover a few hops behind a healed
  // partition — the direct neighbours may be as stale as the claimant.
  std::uint32_t ttl;
  // Flood-suppression and reverse-path key (never 0), minted by the claimant
  // (id << 32 | counter — the nextNonce_ scheme). Intermediates remember the
  // arrival face per nonce and route answering demotes back along it.
  std::uint64_t nonce;
};

// Neighbour -> restarted RP: the listed prefixes are owned elsewhere at the
// listed (higher) epochs. The receiver retires its claim, points its FIB at
// the demoting neighbour (whose own FIB follows the newer announcement) and
// rejoins the tree as a plain subscriber of its old prefix.
struct RpDemotePacket : Packet {
  static constexpr Kind kKind = Kind::RpDemote;
  RpDemotePacket(NodeId originIn, std::vector<Name> p, std::vector<std::uint64_t> e,
                 std::uint64_t nonceIn)
      : Packet(kKind, kControlPacketBytes), origin(originIn), prefixes(std::move(p)),
        epochs(std::move(e)), nonce(nonceIn) {}
  NodeId origin;
  std::vector<Name> prefixes;
  std::vector<std::uint64_t> epochs;  // highest epoch the sender has observed
  // Echo of the answered reclaim's nonce: lets intermediates that relayed
  // the TTL'd probe route this demote back toward the claimant.
  std::uint64_t nonce;
};

}  // namespace gcopss::copss
