#pragma once

#include <cstdint>

#include "common/name.hpp"
#include "common/name_table.hpp"
#include "net/packet.hpp"

namespace gcopss::ndn {

// NDN faces are neighbour NodeIds; this sentinel denotes the node-local
// application face (the paper's "IPC Port 0" special port at an RP).
constexpr NodeId kLocalFace = -2;

constexpr Bytes kInterestHeaderBytes = 40;
constexpr Bytes kDataHeaderBytes = 40;

struct InterestPacket : Packet {
  static constexpr Kind kKind = Kind::Interest;

  // `names` is the world the Interest travels in; it is only looked up.
  InterestPacket(const NameTable& names, Name n, std::uint64_t nonceIn,
                 Bytes sz = kInterestHeaderBytes, PacketPtr encap = nullptr)
      : Packet(kKind, sz), name(std::move(n)), nameId(names.deepest(name)),
        nonce(nonceIn), encapsulated(std::move(encap)) {}

  Name name;
  // The deepest prefix of `name` the world has interned. Every routed prefix
  // is interned when it is routed, so FIB longest-prefix match on the
  // forwarding path walks ids from here, never component strings.
  NameId nameId;
  std::uint64_t nonce;
  // COPSS rides on NDN by encapsulating a Multicast packet inside an
  // Interest addressed toward the RP (Section III-C). Null for plain NDN.
  PacketPtr encapsulated;
};

struct DataPacket : Packet {
  static constexpr Kind kKind = Kind::Data;

  DataPacket(Name n, Bytes payload, SimTime created = 0, std::uint64_t seqIn = 0)
      : Packet(kKind, kDataHeaderBytes + payload), name(std::move(n)),
        payloadSize(payload), createdAt(created), seq(seqIn) {}

  Name name;
  Bytes payloadSize;
  SimTime createdAt;  // publication time, for end-to-end latency accounting
  std::uint64_t seq;
};

using InterestPacketPtr = RefPtr<const InterestPacket>;
using DataPacketPtr = RefPtr<const DataPacket>;

}  // namespace gcopss::ndn
