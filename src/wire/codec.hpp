#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/name_table.hpp"
#include "net/packet.hpp"
#include "wire/buffer.hpp"

namespace gcopss::wire {

// Wire codec for every protocol packet type in the repository. The format is
// a tiny framed encoding:
//
//   [magic u16] [version u8] [type u8] [body ...]
//
// Bodies serialize each field in declaration order; Names are component
// lists (varint count, then length-prefixed components); nested packets
// (COPSS Multicast encapsulated in an NDN Interest) recurse as a
// length-delimited inner frame. Derived data — e.g. a Multicast's prefix
// hashes — is recomputed on decode rather than shipped, exactly as the
// paper's first-hop router would after deserializing. Decoding resolves an
// Interest's name against the receiving world's NameTable and never grows it.
//
// encode() never fails; decode() throws WireError on any malformed input
// (bad magic, unknown type, truncation, trailing bytes, or any of the
// hardening bounds below); tryDecode() reports the same failures as a
// result value instead of an exception.

constexpr std::uint16_t kMagic = 0x47C0;  // "GC"
// v2: FibAdd and RpHandoff bodies carry per-prefix ownership epochs, and the
// RpReclaim/RpDemote reconciliation packets joined the tag space.
// v3: an encapsulated frame is length-delimited (varint byte count before the
// inner frame), so a truncated or over-long inner packet is rejected against
// its own boundary instead of leaning on the outer frame's trailing-bytes
// check. Tag 9 (FibRemove) was retired later within v3: no simulator ever
// sent one, and decode rejects it as an unknown tag. Also within v3, decode
// stopped accepting unstamped control packets, which no simulator sends:
// FibAdd, RpHandoff, RpReclaim and RpDemote carry exactly one epoch >= 1 per
// name, and a reclaim or demote nonce is never 0.
constexpr std::uint8_t kVersion = 3;

// Wire type tags (stable across versions; append-only: a retired tag's value
// is never reused). Public so tests and the structure-aware fuzzer can
// enumerate the full tag space; kWireTagEnd is a sentinel, never encoded.
enum class WireTag : std::uint8_t {
  Interest = 1,
  Data = 2,
  Subscribe = 3,
  Unsubscribe = 4,
  Multicast = 5,
  GameUpdate = 6,
  SnapshotObject = 7,
  FibAdd = 8,
  // 9 retired (FibRemove)
  RpHandoff = 10,
  StJoin = 11,
  StConfirm = 12,
  StLeave = 13,
  IpUnicast = 14,
  UpdateSegment = 15,
  Announce = 16,
  RpReclaim = 17,
  RpDemote = 18,
  kWireTagEnd,  // sentinel: one past the last real tag
};

// Every encodable tag, in tag order: each value below kWireTagEnd except the
// retired 9. The static_assert pins the list to the enum, so adding a tag
// without extending this list (and, transitively, the exhaustive round-trip
// table in test_wire.cpp and the fuzzer's packet generator) fails to build.
constexpr std::array kAllWireTags = {
    WireTag::Interest,   WireTag::Data,       WireTag::Subscribe,
    WireTag::Unsubscribe, WireTag::Multicast, WireTag::GameUpdate,
    WireTag::SnapshotObject, WireTag::FibAdd, WireTag::RpHandoff,
    WireTag::StJoin,     WireTag::StConfirm,  WireTag::StLeave,
    WireTag::IpUnicast,  WireTag::UpdateSegment, WireTag::Announce,
    WireTag::RpReclaim,  WireTag::RpDemote,
};
static_assert(kAllWireTags.size() == static_cast<std::size_t>(WireTag::kWireTagEnd) - 2);

// The tag a packet encodes under. Throws WireError for kinds with no wire
// representation (simulator-internal control like PubAck/RpHeartbeat).
WireTag wireTag(const Packet& packet);

// ---- decode-hardening bounds ----
// Every bound exists because hostile length prefixes otherwise turn a short
// datagram into an unbounded allocation or unbounded recursion. Each has a
// throwing negative test in test_wire.cpp and a committed corpus file under
// tests/corpus/ (see TESTING.md "Fuzzing").

// Whole-frame ceiling. A gateway datagram is <= 64 KiB; 1 MiB leaves room for
// batched future framing while bounding the per-decode work (every count
// below is additionally checked against the bytes actually present).
constexpr std::size_t kMaxFrameBytes = 1 << 20;
// Nested-encapsulation recursion ceiling (outermost frame is depth 1). The
// protocol nests exactly once (Multicast in Interest); 4 leaves headroom.
constexpr std::size_t kMaxDecodeDepth = 4;
// Components per Name.
constexpr std::size_t kMaxNameComponents = 256;
// Bytes per Name component.
constexpr std::size_t kMaxComponentBytes = 4096;
// Names per name list (Multicast CDs, FIB prefixes, ...).
constexpr std::size_t kMaxNamesPerPacket = 65536;
// UpdateEntry records per UpdateSegment.
constexpr std::size_t kMaxSegmentEntries = 1 << 16;
// RpReclaim forwarding budget (hop count). Sane plans use 2-3; anything
// past this is a malformed or hostile frame.
constexpr std::size_t kMaxReclaimTtl = 64;

std::vector<std::uint8_t> encode(const Packet& packet);

inline std::vector<std::uint8_t> encode(const PacketPtr& packet) {
  return encode(*packet);
}

// `names` is the receiving world's table (only looked up, never grown).
PacketPtr decode(const std::uint8_t* data, std::size_t size, const NameTable& names);

inline PacketPtr decode(const std::vector<std::uint8_t>& buf, const NameTable& names) {
  return decode(buf.data(), buf.size(), names);
}

// Non-throwing decode for the gateway ingest path: malformed input yields a
// null packet plus the reason instead of an exception. Only allocation
// failure (std::bad_alloc) can still propagate.
struct DecodeResult {
  PacketPtr packet;   // null on failure
  std::string error;  // empty on success
  explicit operator bool() const { return packet != nullptr; }
};

DecodeResult tryDecode(const std::uint8_t* data, std::size_t size, const NameTable& names);

inline DecodeResult tryDecode(const std::vector<std::uint8_t>& buf, const NameTable& names) {
  return tryDecode(buf.data(), buf.size(), names);
}

// Serialized size without materializing the buffer (for accounting).
std::size_t encodedSize(const Packet& packet);

}  // namespace gcopss::wire
