#include "wire/codec.hpp"

#include "copss/packets.hpp"
#include "gcopss/game_packets.hpp"
#include "ipserver/ipserver.hpp"
#include "ndn/packets.hpp"
#include "ndngame/ndngame.hpp"

namespace gcopss::wire {

namespace {

using Tag = WireTag;

// Read a count prefix and refuse it unless (a) it is under `max` and (b) the
// input actually has room for `count` items of at least `minBytesPer` bytes
// each. (b) is what keeps every reserve() below input-linear: a hostile
// 5-byte varint can claim 2^32 items, but it cannot conjure the bytes those
// items would occupy.
std::uint64_t boundedCount(WireReader& r, std::uint64_t max, std::uint64_t minBytesPer,
                           const char* what) {
  const std::uint64_t count = r.varint();
  if (count > max) throw WireError(std::string(what) + " count exceeds cap");
  if (minBytesPer > 0 && count > r.remaining() / minBytesPer) {
    throw WireError(std::string(what) + " count overruns input");
  }
  return count;
}

void putName(WireWriter& w, const Name& n) {
  w.varint(n.size());
  for (const auto& c : n.components()) w.lengthPrefixed(c);
}

Name getName(WireReader& r) {
  const std::uint64_t count =
      boundedCount(r, kMaxNameComponents, 1, "name component");
  std::vector<std::string> comps;
  comps.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    comps.push_back(r.lengthPrefixed(kMaxComponentBytes));
  }
  return Name(std::move(comps));
}

void putNames(WireWriter& w, const std::vector<Name>& names) {
  w.varint(names.size());
  for (const Name& n : names) putName(w, n);
}

std::vector<Name> getNames(WireReader& r) {
  const std::uint64_t count = boundedCount(r, kMaxNamesPerPacket, 1, "name list");
  std::vector<Name> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) out.push_back(getName(r));
  return out;
}

void putNode(WireWriter& w, NodeId n) { w.u32(static_cast<std::uint32_t>(n)); }
NodeId getNode(WireReader& r) { return static_cast<NodeId>(r.u32()); }

// Per-prefix ownership epochs, parallel to a preceding name list: exactly one
// epoch per name, each at least 1 (deploy claims start at epoch 1).
void putEpochs(WireWriter& w, const std::vector<std::uint64_t>& epochs) {
  w.varint(epochs.size());
  for (std::uint64_t e : epochs) w.u64(e);
}

std::vector<std::uint64_t> getEpochs(WireReader& r, std::size_t nameCount) {
  const std::uint64_t count = r.varint();
  if (count != nameCount) throw WireError("epoch/prefix count mismatch");
  if (count > r.remaining() / 8) throw WireError("epoch count overruns input");
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(r.u64());
    if (out.back() == 0) throw WireError("epoch 0");
  }
  return out;
}

// Reclaim/demote nonce: the claimant mints it non-zero.
std::uint64_t getNonce(WireReader& r) {
  const std::uint64_t nonce = r.u64();
  if (nonce == 0) throw WireError("nonce 0");
  return nonce;
}

void encodeInto(WireWriter& w, const Packet& packet);  // fwd (nested encap)

void encodeBody(WireWriter& w, const Packet& packet) {
  switch (packet.kind) {
    case Packet::Kind::Interest: {
      const auto& p = static_cast<const ndn::InterestPacket&>(packet);
      putName(w, p.name);
      w.u64(p.nonce);
      w.varint(p.size);
      w.u8(p.encapsulated ? 1 : 0);
      if (p.encapsulated) {
        // Length-delimited inner frame (v3): the decoder checks the nested
        // packet against its own boundary, so inner truncation or trailing
        // garbage can never be masked by (or bleed into) the outer frame.
        WireWriter inner;
        encodeInto(inner, *p.encapsulated);
        w.varint(inner.size());
        w.bytes(inner.data().data(), inner.size());
      }
      return;
    }
    case Packet::Kind::Data: {
      if (const auto* seg = dynamic_cast<const ndngame::UpdateSegment*>(&packet)) {
        putName(w, seg->name);
        w.varint(seg->payloadSize);
        w.i64(seg->createdAt);
        w.u64(seg->seq);
        w.varint(seg->updates.size());
        for (const auto& u : seg->updates) {
          w.u64(u.seq);
          w.i64(u.publishedAt);
          putName(w, u.cd);
          w.varint(u.size);
        }
        return;
      }
      const auto& p = static_cast<const ndn::DataPacket&>(packet);
      putName(w, p.name);
      w.varint(p.payloadSize);
      w.i64(p.createdAt);
      w.u64(p.seq);
      return;
    }
    case Packet::Kind::Subscribe: {
      const auto& p = static_cast<const copss::SubscribePacket&>(packet);
      putName(w, p.cd);
      w.u8(p.scoped ? 1 : 0);
      if (p.scoped) putName(w, p.scope);
      return;
    }
    case Packet::Kind::Unsubscribe: {
      const auto& p = static_cast<const copss::UnsubscribePacket&>(packet);
      putName(w, p.cd);
      w.u8(p.scoped ? 1 : 0);
      if (p.scoped) putName(w, p.scope);
      return;
    }
    case Packet::Kind::Multicast: {
      const auto& p = static_cast<const copss::MulticastPacket&>(packet);
      putNames(w, p.cds);
      w.varint(p.payloadSize);
      w.i64(p.publishedAt);
      w.u64(p.seq);
      putNode(w, p.publisher);
      if (const auto* snap = dynamic_cast<const gc::SnapshotObjectPacket*>(&packet)) {
        w.u32(snap->objectId);
        w.u32(snap->cycleLength);
      } else if (const auto* upd = dynamic_cast<const gc::GameUpdatePacket*>(&packet)) {
        w.u32(upd->objectId);
      } else if (const auto* ann = dynamic_cast<const copss::AnnouncePacket*>(&packet)) {
        putName(w, ann->contentName);
        w.varint(ann->fullSize);
      }
      return;
    }
    case Packet::Kind::FibAdd: {
      const auto& p = static_cast<const copss::FibAddPacket&>(packet);
      putNames(w, p.prefixes);
      putNode(w, p.origin);
      w.u64(p.txnId);
      putEpochs(w, p.epochs);
      return;
    }
    case Packet::Kind::RpHandoff: {
      const auto& p = static_cast<const copss::RpHandoffPacket&>(packet);
      putNames(w, p.cds);
      putNode(w, p.oldRp);
      putNode(w, p.newRp);
      w.u64(p.txnId);
      putEpochs(w, p.epochs);
      return;
    }
    case Packet::Kind::RpReclaim: {
      const auto& p = static_cast<const copss::RpReclaimPacket&>(packet);
      putNode(w, p.origin);
      putNames(w, p.prefixes);
      putEpochs(w, p.epochs);
      w.varint(p.ttl);
      w.u64(p.nonce);
      return;
    }
    case Packet::Kind::RpDemote: {
      const auto& p = static_cast<const copss::RpDemotePacket&>(packet);
      putNode(w, p.origin);
      putNames(w, p.prefixes);
      putEpochs(w, p.epochs);
      w.u64(p.nonce);
      return;
    }
    case Packet::Kind::StJoin:
    case Packet::Kind::StConfirm:
    case Packet::Kind::StLeave: {
      // All three share the {cds, txnId} layout.
      if (const auto* j = dynamic_cast<const copss::StJoinPacket*>(&packet)) {
        putNames(w, j->cds);
        w.u64(j->txnId);
      } else if (const auto* c = dynamic_cast<const copss::StConfirmPacket*>(&packet)) {
        putNames(w, c->cds);
        w.u64(c->txnId);
      } else {
        const auto& l = static_cast<const copss::StLeavePacket&>(packet);
        putNames(w, l.cds);
        w.u64(l.txnId);
      }
      return;
    }
    case Packet::Kind::IpUnicast: {
      const auto& p = static_cast<const ipserver::IpUnicastPacket&>(packet);
      putNode(w, p.src);
      putNode(w, p.dst);
      putName(w, p.cd);
      w.varint(p.payloadSize);
      w.i64(p.publishedAt);
      w.u64(p.seq);
      return;
    }
    default:
      throw WireError("unsupported packet kind for encoding");
  }
}

void encodeInto(WireWriter& w, const Packet& packet) {
  w.u16(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(wireTag(packet)));
  encodeBody(w, packet);
}

PacketPtr decodeFrame(WireReader& r, std::size_t depth, const NameTable& names);  // fwd

PacketPtr decodeBody(Tag tag, WireReader& r, std::size_t depth, const NameTable& names) {
  switch (tag) {
    case Tag::Interest: {
      Name name = getName(r);
      const std::uint64_t nonce = r.u64();
      const Bytes size = r.varint();
      PacketPtr encap;
      if (r.u8()) {
        const std::uint64_t innerLen = r.varint();
        WireReader inner = r.subReader(innerLen);
        encap = decodeFrame(inner, depth + 1, names);
        if (!inner.atEnd()) throw WireError("trailing bytes in encapsulated packet");
      }
      return makePacket<ndn::InterestPacket>(names, std::move(name), nonce, size,
                                             std::move(encap));
    }
    case Tag::Data: {
      Name name = getName(r);
      const Bytes payload = r.varint();
      const SimTime created = r.i64();
      const std::uint64_t seq = r.u64();
      return makePacket<ndn::DataPacket>(std::move(name), payload, created, seq);
    }
    case Tag::UpdateSegment: {
      Name name = getName(r);
      const Bytes payload = r.varint();
      const SimTime created = r.i64();
      const std::uint64_t seq = r.u64();
      // Each entry is >= 18 bytes on the wire (u64 + i64 + name count + size).
      const std::uint64_t count =
          boundedCount(r, kMaxSegmentEntries, 18, "segment entry");
      std::vector<ndngame::UpdateEntry> updates;
      updates.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        ndngame::UpdateEntry e;
        e.seq = r.u64();
        e.publishedAt = r.i64();
        e.cd = getName(r);
        e.size = r.varint();
        updates.push_back(std::move(e));
      }
      return makePacket<ndngame::UpdateSegment>(std::move(name), payload, created, seq,
                                                std::move(updates));
    }
    case Tag::Subscribe: {
      Name cd = getName(r);
      if (r.u8()) return makePacket<copss::SubscribePacket>(std::move(cd), getName(r));
      return makePacket<copss::SubscribePacket>(std::move(cd));
    }
    case Tag::Unsubscribe: {
      Name cd = getName(r);
      if (r.u8()) return makePacket<copss::UnsubscribePacket>(std::move(cd), getName(r));
      return makePacket<copss::UnsubscribePacket>(std::move(cd));
    }
    case Tag::Multicast: {
      auto cds = getNames(r);
      const Bytes payload = r.varint();
      const SimTime published = r.i64();
      const std::uint64_t seq = r.u64();
      const NodeId publisher = getNode(r);
      return makePacket<copss::MulticastPacket>(std::move(cds), payload, published, seq,
                                                publisher);
    }
    case Tag::GameUpdate: {
      auto cds = getNames(r);
      if (cds.size() != 1) throw WireError("game update carries exactly one CD");
      const Bytes payload = r.varint();
      const SimTime published = r.i64();
      const std::uint64_t seq = r.u64();
      const NodeId publisher = getNode(r);
      const game::ObjectId obj = r.u32();
      return makePacket<gc::GameUpdatePacket>(std::move(cds.front()), payload, published,
                                              seq, publisher, obj);
    }
    case Tag::SnapshotObject: {
      auto cds = getNames(r);
      if (cds.size() != 1) throw WireError("snapshot object carries exactly one CD");
      const Bytes payload = r.varint();
      const SimTime published = r.i64();
      const std::uint64_t seq = r.u64();
      const NodeId publisher = getNode(r);
      const game::ObjectId obj = r.u32();
      const std::uint32_t cycleLen = r.u32();
      return makePacket<gc::SnapshotObjectPacket>(std::move(cds.front()), payload,
                                                  published, seq, publisher, obj,
                                                  cycleLen);
    }
    case Tag::FibAdd: {
      auto prefixes = getNames(r);
      const NodeId origin = getNode(r);
      const std::uint64_t txn = r.u64();
      auto epochs = getEpochs(r, prefixes.size());
      return makePacket<copss::FibAddPacket>(std::move(prefixes), std::move(epochs),
                                             origin, txn);
    }
    case Tag::RpHandoff: {
      auto cds = getNames(r);
      const NodeId oldRp = getNode(r);
      const NodeId newRp = getNode(r);
      const std::uint64_t txn = r.u64();
      auto epochs = getEpochs(r, cds.size());
      return makePacket<copss::RpHandoffPacket>(std::move(cds), std::move(epochs), oldRp,
                                                newRp, txn);
    }
    case Tag::StJoin: {
      auto cds = getNames(r);
      return makePacket<copss::StJoinPacket>(std::move(cds), r.u64());
    }
    case Tag::StConfirm: {
      auto cds = getNames(r);
      return makePacket<copss::StConfirmPacket>(std::move(cds), r.u64());
    }
    case Tag::StLeave: {
      auto cds = getNames(r);
      return makePacket<copss::StLeavePacket>(std::move(cds), r.u64());
    }
    case Tag::RpReclaim: {
      const NodeId origin = getNode(r);
      auto prefixes = getNames(r);
      auto epochs = getEpochs(r, prefixes.size());
      const std::uint64_t ttl = r.varint();
      if (ttl > kMaxReclaimTtl) throw WireError("reclaim ttl exceeds cap");
      const std::uint64_t nonce = getNonce(r);
      return makePacket<copss::RpReclaimPacket>(origin, std::move(prefixes),
                                                std::move(epochs),
                                                static_cast<std::uint32_t>(ttl),
                                                nonce);
    }
    case Tag::RpDemote: {
      const NodeId origin = getNode(r);
      auto prefixes = getNames(r);
      auto epochs = getEpochs(r, prefixes.size());
      const std::uint64_t nonce = getNonce(r);
      return makePacket<copss::RpDemotePacket>(origin, std::move(prefixes),
                                               std::move(epochs), nonce);
    }
    case Tag::IpUnicast: {
      const NodeId src = getNode(r);
      const NodeId dst = getNode(r);
      Name cd = getName(r);
      const Bytes payload = r.varint();
      const SimTime published = r.i64();
      const std::uint64_t seq = r.u64();
      return makePacket<ipserver::IpUnicastPacket>(src, dst, std::move(cd), payload,
                                                   published, seq);
    }
    case Tag::Announce: {
      auto cds = getNames(r);
      if (cds.size() != 1) throw WireError("announce carries exactly one CD");
      const Bytes payload = r.varint();
      const SimTime published = r.i64();
      const std::uint64_t seq = r.u64();
      const NodeId publisher = getNode(r);
      Name content = getName(r);
      const Bytes fullSize = r.varint();
      if (payload != copss::kSnippetBytes) throw WireError("bad snippet size");
      return makePacket<copss::AnnouncePacket>(std::move(cds.front()), std::move(content),
                                               fullSize, published, seq, publisher);
    }
    case Tag::kWireTagEnd:
      break;
  }
  throw WireError("unknown packet tag");
}

PacketPtr decodeFrame(WireReader& r, std::size_t depth, const NameTable& names) {
  if (depth > kMaxDecodeDepth) throw WireError("encapsulation too deep");
  if (r.u16() != kMagic) throw WireError("bad magic");
  if (r.u8() != kVersion) throw WireError("unsupported version");
  const auto tag = static_cast<Tag>(r.u8());
  return decodeBody(tag, r, depth, names);
}

}  // namespace

WireTag wireTag(const Packet& packet) {
  switch (packet.kind) {
    case Packet::Kind::Interest: return WireTag::Interest;
    case Packet::Kind::Data:
      return dynamic_cast<const ndngame::UpdateSegment*>(&packet) ? WireTag::UpdateSegment
                                                                  : WireTag::Data;
    case Packet::Kind::Subscribe: return WireTag::Subscribe;
    case Packet::Kind::Unsubscribe: return WireTag::Unsubscribe;
    case Packet::Kind::Multicast:
      if (dynamic_cast<const gc::SnapshotObjectPacket*>(&packet)) {
        return WireTag::SnapshotObject;
      }
      if (dynamic_cast<const gc::GameUpdatePacket*>(&packet)) return WireTag::GameUpdate;
      if (dynamic_cast<const copss::AnnouncePacket*>(&packet)) return WireTag::Announce;
      return WireTag::Multicast;
    case Packet::Kind::FibAdd: return WireTag::FibAdd;
    case Packet::Kind::RpHandoff: return WireTag::RpHandoff;
    case Packet::Kind::StJoin: return WireTag::StJoin;
    case Packet::Kind::StConfirm: return WireTag::StConfirm;
    case Packet::Kind::StLeave: return WireTag::StLeave;
    case Packet::Kind::RpReclaim: return WireTag::RpReclaim;
    case Packet::Kind::RpDemote: return WireTag::RpDemote;
    case Packet::Kind::IpUnicast: return WireTag::IpUnicast;
    default: throw WireError("unsupported packet kind for encoding");
  }
}

std::vector<std::uint8_t> encode(const Packet& packet) {
  WireWriter w;
  encodeInto(w, packet);
  return w.take();
}

PacketPtr decode(const std::uint8_t* data, std::size_t size, const NameTable& names) {
  if (size > kMaxFrameBytes) throw WireError("frame too large");
  WireReader r(data, size);
  PacketPtr p = decodeFrame(r, 1, names);
  if (!r.atEnd()) throw WireError("trailing bytes");
  return p;
}

DecodeResult tryDecode(const std::uint8_t* data, std::size_t size,
                       const NameTable& names) {
  DecodeResult result;
  try {
    result.packet = decode(data, size, names);
  } catch (const WireError& e) {
    result.error = e.what();
  }
  return result;
}

std::size_t encodedSize(const Packet& packet) { return encode(packet).size(); }

}  // namespace gcopss::wire
