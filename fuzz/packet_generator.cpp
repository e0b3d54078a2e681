#include "fuzz/packet_generator.hpp"

#include <string>
#include <vector>

#include "copss/packets.hpp"
#include "gcopss/game_packets.hpp"
#include "ipserver/ipserver.hpp"
#include "ndn/packets.hpp"
#include "ndngame/ndngame.hpp"

namespace gcopss::fuzz {

namespace {

using wire::WireTag;

// Generated Interests belong to no world: only their Name is encoded, so
// they resolve it against an empty table.
const NameTable kNoNames;

// Every tag the codec knows must have a construction arm below. The
// static_assert fails the build when a new tag lands without extending the
// generator (mirror of the exhaustive table in test_wire.cpp).
static_assert(wire::kAllWireTags.size() == 17,
              "new wire tag: add a generator arm and update this count");

SimTime genTime(ByteSource& src) {
  // Keep timestamps non-negative (SimTime semantics); the codec itself
  // round-trips any i64, which fuzz_wire_decode covers from raw bytes.
  return static_cast<SimTime>(src.u64() >> 1);
}

NodeId genNode(ByteSource& src) { return static_cast<NodeId>(src.u32()); }

Bytes genSize(ByteSource& src) { return src.u64() >> src.below(64); }

std::vector<Name> genNames(ByteSource& src, std::size_t maxCount,
                           std::size_t minCount = 0) {
  const std::size_t count =
      minCount + src.below(static_cast<std::uint32_t>(maxCount - minCount + 1));
  std::vector<Name> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(generateName(src));
  return out;
}

// A value the decoder accepts as an epoch or a reclaim/demote nonce: never 0.
std::uint64_t genNonZero(ByteSource& src) {
  const std::uint64_t v = src.u64();
  return v == 0 ? 1 : v;
}

// Exactly parallel to `names`, every epoch >= 1: the only shape getEpochs
// accepts.
std::vector<std::uint64_t> genEpochs(ByteSource& src,
                                     const std::vector<Name>& names) {
  std::vector<std::uint64_t> epochs;
  epochs.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) epochs.push_back(genNonZero(src));
  return epochs;
}

}  // namespace

Name generateName(ByteSource& src) {
  // 1-in-16 inputs probe the boundary: a name at exactly kMaxNameComponents,
  // or one holding a component of exactly kMaxComponentBytes.
  const std::uint8_t mode = src.u8();
  if ((mode & 0x0f) == 0x0f) {
    if (mode & 0x10) {
      std::vector<std::string> comps(wire::kMaxNameComponents, "x");
      comps.back() = src.token(8);
      return Name(std::move(comps));
    }
    return Name({std::string(wire::kMaxComponentBytes,
                             static_cast<char>('a' + src.below(26)))});
  }
  // Common case: short names over a tiny alphabet so distinct packets share
  // prefixes (stresses interner dedup and ST prefix walks), depth 0..6.
  std::vector<std::string> comps;
  const std::size_t depth = src.below(7);
  comps.reserve(depth);
  for (std::size_t i = 0; i < depth; ++i) comps.push_back(src.token(3));
  return Name(std::move(comps));
}

PacketPtr generatePacket(ByteSource& src, std::size_t depth) {
  const WireTag tag =
      wire::kAllWireTags[src.below(static_cast<std::uint32_t>(wire::kAllWireTags.size()))];
  switch (tag) {
    case WireTag::Interest: {
      PacketPtr encap;
      // Nest another full frame while the codec's depth budget allows it.
      if (depth < wire::kMaxDecodeDepth && src.boolean()) {
        encap = generatePacket(src, depth + 1);
      }
      return makePacket<ndn::InterestPacket>(kNoNames, generateName(src), src.u64(),
                                             genSize(src), std::move(encap));
    }
    case WireTag::Data:
      return makePacket<ndn::DataPacket>(generateName(src), genSize(src),
                                         genTime(src), src.u64());
    case WireTag::UpdateSegment: {
      const std::size_t count = src.below(9);
      std::vector<ndngame::UpdateEntry> entries(count);
      for (auto& e : entries) {
        e.seq = src.u64();
        e.publishedAt = genTime(src);
        e.cd = generateName(src);
        e.size = genSize(src);
      }
      return makePacket<ndngame::UpdateSegment>(generateName(src), genSize(src),
                                                genTime(src), src.u64(),
                                                std::move(entries));
    }
    case WireTag::Subscribe: {
      Name cd = generateName(src);
      if (src.boolean()) {
        return makePacket<copss::SubscribePacket>(std::move(cd), generateName(src));
      }
      return makePacket<copss::SubscribePacket>(std::move(cd));
    }
    case WireTag::Unsubscribe: {
      Name cd = generateName(src);
      if (src.boolean()) {
        return makePacket<copss::UnsubscribePacket>(std::move(cd), generateName(src));
      }
      return makePacket<copss::UnsubscribePacket>(std::move(cd));
    }
    case WireTag::Multicast:
      return makePacket<copss::MulticastPacket>(genNames(src, 6), genSize(src),
                                                genTime(src), src.u64(),
                                                genNode(src));
    case WireTag::GameUpdate:
      return makePacket<gc::GameUpdatePacket>(generateName(src), genSize(src),
                                              genTime(src), src.u64(), genNode(src),
                                              src.u32());
    case WireTag::SnapshotObject:
      return makePacket<gc::SnapshotObjectPacket>(generateName(src), genSize(src),
                                                  genTime(src), src.u64(),
                                                  genNode(src), src.u32(), src.u32());
    case WireTag::FibAdd: {
      auto prefixes = genNames(src, 5);
      auto epochs = genEpochs(src, prefixes);
      return makePacket<copss::FibAddPacket>(std::move(prefixes), std::move(epochs),
                                             genNode(src), src.u64());
    }
    case WireTag::RpHandoff: {
      auto cds = genNames(src, 5);
      auto epochs = genEpochs(src, cds);
      return makePacket<copss::RpHandoffPacket>(std::move(cds), std::move(epochs),
                                                genNode(src), genNode(src), src.u64());
    }
    case WireTag::StJoin:
      return makePacket<copss::StJoinPacket>(genNames(src, 5), src.u64());
    case WireTag::StConfirm:
      return makePacket<copss::StConfirmPacket>(genNames(src, 5), src.u64());
    case WireTag::StLeave:
      return makePacket<copss::StLeavePacket>(genNames(src, 5), src.u64());
    case WireTag::IpUnicast:
      return makePacket<ipserver::IpUnicastPacket>(genNode(src), genNode(src),
                                                   generateName(src), genSize(src),
                                                   genTime(src), src.u64());
    case WireTag::Announce:
      return makePacket<copss::AnnouncePacket>(generateName(src), generateName(src),
                                               genSize(src), genTime(src), src.u64(),
                                               genNode(src));
    case WireTag::RpReclaim: {
      auto prefixes = genNames(src, 5, 1);
      auto epochs = genEpochs(src, prefixes);
      const auto ttl =
          static_cast<std::uint32_t>(src.u64() % (wire::kMaxReclaimTtl + 1));
      return makePacket<copss::RpReclaimPacket>(genNode(src), std::move(prefixes),
                                                std::move(epochs), ttl, genNonZero(src));
    }
    case WireTag::RpDemote: {
      auto prefixes = genNames(src, 5, 1);
      auto epochs = genEpochs(src, prefixes);
      return makePacket<copss::RpDemotePacket>(genNode(src), std::move(prefixes),
                                               std::move(epochs), genNonZero(src));
    }
    case WireTag::kWireTagEnd:
      break;
  }
  // Unreachable: kAllWireTags holds no sentinel.
  return makePacket<ndn::DataPacket>(Name(), 0, 0, 0);
}

}  // namespace gcopss::fuzz
