// Writes the committed seed corpus under tests/corpus/<harness>/ (argv[1] is
// the corpus root). Two kinds of seeds:
//   * canonical encodings of one representative packet per wire tag (gives
//     the fuzzer valid structure to mutate from);
//   * one crafted malformed input per decode-hardening bound, named after
//     the bound it trips — these double as the regression anchors the
//     FuzzRegression ctest suite replays forever.
// Deterministic by construction: re-running bit-identically reproduces every
// file (scripts/fuzz.sh seeds).

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "copss/packets.hpp"
#include "fuzz/byte_source.hpp"
#include "fuzz/packet_generator.hpp"
#include "gcopss/game_packets.hpp"
#include "ipserver/ipserver.hpp"
#include "ndn/packets.hpp"
#include "ndngame/ndngame.hpp"
#include "wire/codec.hpp"

using namespace gcopss;
namespace fs = std::filesystem;

namespace {

void writeFile(const fs::path& dir, const std::string& name,
               const std::vector<std::uint8_t>& bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Seed packets belong to no world: only their Names are encoded.
const NameTable kNoNames;

// Frame header for hand-crafted malformed bodies.
wire::WireWriter frame(wire::WireTag tag) {
  wire::WireWriter w;
  w.u16(wire::kMagic);
  w.u8(wire::kVersion);
  w.u8(static_cast<std::uint8_t>(tag));
  return w;
}

PacketPtr representative(wire::WireTag tag) {
  const Name cd = Name::parse("/game/1/x");
  const std::vector<Name> cds{Name::parse("/game/1"), Name::parse("/chat")};
  const std::vector<std::uint64_t> epochs{3, 7};
  switch (tag) {
    case wire::WireTag::Interest:
      return makePacket<ndn::InterestPacket>(
          kNoNames, cd, 42, 40,
          makePacket<copss::MulticastPacket>(cds, 100, 5, 9, 2));
    case wire::WireTag::Data:
      return makePacket<ndn::DataPacket>(cd, 512, 7, 3);
    case wire::WireTag::Subscribe:
      return makePacket<copss::SubscribePacket>(cd, Name::parse("/game"));
    case wire::WireTag::Unsubscribe:
      return makePacket<copss::UnsubscribePacket>(cd);
    case wire::WireTag::Multicast:
      return makePacket<copss::MulticastPacket>(cds, 256, 11, 4, 1);
    case wire::WireTag::GameUpdate:
      return makePacket<gc::GameUpdatePacket>(cd, 64, 13, 6, 2, 77);
    case wire::WireTag::SnapshotObject:
      return makePacket<gc::SnapshotObjectPacket>(cd, 128, 17, 8, 3, 78, 5);
    case wire::WireTag::FibAdd:
      return makePacket<copss::FibAddPacket>(cds, epochs, 4, 100);
    case wire::WireTag::RpHandoff:
      return makePacket<copss::RpHandoffPacket>(cds, epochs, 4, 5, 102);
    case wire::WireTag::StJoin:
      return makePacket<copss::StJoinPacket>(cds, 103);
    case wire::WireTag::StConfirm:
      return makePacket<copss::StConfirmPacket>(cds, 104);
    case wire::WireTag::StLeave:
      return makePacket<copss::StLeavePacket>(cds, 105);
    case wire::WireTag::IpUnicast:
      return makePacket<ipserver::IpUnicastPacket>(1, 2, cd, 300, 19, 10);
    case wire::WireTag::UpdateSegment: {
      std::vector<ndngame::UpdateEntry> entries(2);
      entries[0] = {1, 2, Name::parse("/game/1"), 50};
      entries[1] = {2, 3, Name::parse("/game/2"), 60};
      return makePacket<ndngame::UpdateSegment>(cd, 200, 21, 12, std::move(entries));
    }
    case wire::WireTag::Announce:
      return makePacket<copss::AnnouncePacket>(cd, Name::parse("/content/blob"),
                                               4096, 23, 14, 2);
    case wire::WireTag::RpReclaim:
      return makePacket<copss::RpReclaimPacket>(6, cds, epochs, /*ttl=*/2,
                                                /*nonce=*/(6ULL << 32) + 1);
    case wire::WireTag::RpDemote:
      return makePacket<copss::RpDemotePacket>(6, cds, epochs,
                                               /*nonce=*/(6ULL << 32) + 1);
    case wire::WireTag::kWireTagEnd:
      break;
  }
  return nullptr;
}

std::string tagName(wire::WireTag tag) {
  switch (tag) {
    case wire::WireTag::Interest: return "interest";
    case wire::WireTag::Data: return "data";
    case wire::WireTag::Subscribe: return "subscribe";
    case wire::WireTag::Unsubscribe: return "unsubscribe";
    case wire::WireTag::Multicast: return "multicast";
    case wire::WireTag::GameUpdate: return "game-update";
    case wire::WireTag::SnapshotObject: return "snapshot-object";
    case wire::WireTag::FibAdd: return "fib-add";
    case wire::WireTag::RpHandoff: return "rp-handoff";
    case wire::WireTag::StJoin: return "st-join";
    case wire::WireTag::StConfirm: return "st-confirm";
    case wire::WireTag::StLeave: return "st-leave";
    case wire::WireTag::IpUnicast: return "ip-unicast";
    case wire::WireTag::UpdateSegment: return "update-segment";
    case wire::WireTag::Announce: return "announce";
    case wire::WireTag::RpReclaim: return "rp-reclaim";
    case wire::WireTag::RpDemote: return "rp-demote";
    case wire::WireTag::kWireTagEnd: break;
  }
  return "unknown";
}

void putName(wire::WireWriter& w, const Name& n) {
  w.varint(n.size());
  for (const auto& c : n.components()) w.lengthPrefixed(c);
}

void decodeSeeds(const fs::path& dir) {
  // Valid structure, one per tag.
  for (const wire::WireTag tag : wire::kAllWireTags) {
    writeFile(dir, "valid-" + tagName(tag) + ".bin",
              wire::encode(*representative(tag)));
  }

  // ---- one crafted input per hardening bound / reject path ----

  {  // kMaxNameComponents: Subscribe whose name claims 257 components.
    auto w = frame(wire::WireTag::Subscribe);
    w.varint(wire::kMaxNameComponents + 1);
    for (std::size_t i = 0; i <= wire::kMaxNameComponents; ++i) w.lengthPrefixed("a");
    w.u8(0);
    writeFile(dir, "bound-name-components.bin", w.take());
  }
  {  // kMaxComponentBytes: one component claiming 4097 bytes.
    auto w = frame(wire::WireTag::Subscribe);
    w.varint(1);
    w.varint(wire::kMaxComponentBytes + 1);  // hostile prefix, bytes absent
    w.u8(0);
    writeFile(dir, "bound-component-bytes.bin", w.take());
  }
  {  // kMaxNamesPerPacket: StJoin claiming 2^20 names in a tiny frame.
    auto w = frame(wire::WireTag::StJoin);
    w.varint(std::uint64_t{1} << 20);
    writeFile(dir, "bound-name-count.bin", w.take());
  }
  {  // hostile count vs bytes present: claims 64 names, carries 1.
    auto w = frame(wire::WireTag::StLeave);
    w.varint(64);
    putName(w, Name::parse("/a"));
    writeFile(dir, "bound-count-overruns-input.bin", w.take());
  }
  {  // kMaxSegmentEntries: UpdateSegment claiming 2^20 entries.
    auto w = frame(wire::WireTag::UpdateSegment);
    putName(w, Name::parse("/seg"));
    w.varint(10);   // payload
    w.i64(0);       // created
    w.u64(1);       // seq
    w.varint(std::uint64_t{1} << 20);
    writeFile(dir, "bound-segment-entries.bin", w.take());
  }
  {  // kMaxDecodeDepth: Interests nested 5 deep (depth budget is 4).
    PacketPtr p = makePacket<ndn::DataPacket>(Name::parse("/d"), 1, 0, 0);
    for (std::size_t i = 0; i < wire::kMaxDecodeDepth; ++i) {
      p = makePacket<ndn::InterestPacket>(kNoNames, Name::parse("/i"), i, 40, std::move(p));
    }
    writeFile(dir, "bound-encap-depth.bin", wire::encode(*p));
  }
  {  // epoch/prefix count mismatch on FibAdd.
    auto w = frame(wire::WireTag::FibAdd);
    w.varint(2);
    putName(w, Name::parse("/a"));
    putName(w, Name::parse("/b"));
    w.u32(1);     // origin
    w.u64(9);     // txn
    w.varint(1);  // 1 epoch for 2 prefixes
    w.u64(5);
    writeFile(dir, "epoch-count-mismatch.bin", w.take());
  }
  {  // unstamped FibAdd: epoch count 0 beside two prefixes.
    const std::vector<Name> two{Name::parse("/a"), Name::parse("/b")};
    writeFile(dir, "epoch-count-zero.bin",
              wire::encode(*makePacket<copss::FibAddPacket>(
                  two, std::vector<std::uint64_t>{}, 1, 9)));
  }
  {  // an epoch of 0 on a RpHandoff.
    const std::vector<Name> two{Name::parse("/a"), Name::parse("/b")};
    writeFile(dir, "epoch-zero.bin",
              wire::encode(*makePacket<copss::RpHandoffPacket>(
                  two, std::vector<std::uint64_t>{3, 0}, 1, 2, 9)));
  }
  {  // reclaim and demote nonces of 0.
    const std::vector<Name> one{Name::parse("/a")};
    const std::vector<std::uint64_t> epochs{4};
    writeFile(dir, "reclaim-nonce-zero.bin",
              wire::encode(*makePacket<copss::RpReclaimPacket>(1, one, epochs, 2, 0)));
    writeFile(dir, "demote-nonce-zero.bin",
              wire::encode(*makePacket<copss::RpDemotePacket>(1, one, epochs, 0)));
  }
  {  // trailing bytes inside a length-delimited inner frame.
    const auto inner = wire::encode(
        *makePacket<copss::MulticastPacket>(std::vector<Name>{Name::parse("/m")},
                                            10, 0, 1, 1));
    auto w = frame(wire::WireTag::Interest);
    putName(w, Name::parse("/i"));
    w.u64(7);      // nonce
    w.varint(40);  // size
    w.u8(1);       // encapsulated
    w.varint(inner.size() + 1);
    w.bytes(inner.data(), inner.size());
    w.u8(0xee);  // smuggled trailing byte inside the inner frame
    writeFile(dir, "inner-trailing-bytes.bin", w.take());
  }
  {  // inner frame truncated mid-packet (declared length cuts the body).
    const auto inner = wire::encode(
        *makePacket<copss::MulticastPacket>(std::vector<Name>{Name::parse("/m")},
                                            10, 0, 1, 1));
    auto w = frame(wire::WireTag::Interest);
    putName(w, Name::parse("/i"));
    w.u64(7);
    w.varint(40);
    w.u8(1);
    w.varint(inner.size() - 3);
    w.bytes(inner.data(), inner.size() - 3);
    writeFile(dir, "inner-truncated.bin", w.take());
  }
  {  // frame and reject basics.
    writeFile(dir, "empty.bin", {});
    writeFile(dir, "bad-magic.bin", {0xde, 0xad, 0x03, 0x01});
    writeFile(dir, "bad-version.bin",
              {static_cast<std::uint8_t>(wire::kMagic & 0xff),
               static_cast<std::uint8_t>(wire::kMagic >> 8), 0x63, 0x01});
    writeFile(dir, "unknown-tag.bin",
              {static_cast<std::uint8_t>(wire::kMagic & 0xff),
               static_cast<std::uint8_t>(wire::kMagic >> 8), wire::kVersion, 0xfa});
    auto truncated = wire::encode(*representative(wire::WireTag::Multicast));
    truncated.resize(truncated.size() / 2);
    writeFile(dir, "truncated-body.bin", truncated);
    auto trailing = wire::encode(*representative(wire::WireTag::Data));
    trailing.push_back(0x00);
    writeFile(dir, "outer-trailing-byte.bin", trailing);
  }
  {  // varint longer than 64 bits.
    auto w = frame(wire::WireTag::Data);
    for (int i = 0; i < 10; ++i) w.u8(0x80);
    w.u8(0x01);
    writeFile(dir, "varint-overflow.bin", w.take());
  }
  {  // kMaxFrameBytes: 1 MiB + 1 of zeros (rejected before any parsing).
    writeFile(dir, "bound-frame-bytes.bin",
              std::vector<std::uint8_t>(wire::kMaxFrameBytes + 1, 0));
  }
}

// Seeds for the generator-driven harnesses are just byte strings; make one
// per wire tag that steers the generator's first tag pick, with a varied
// tail for the field values.
void roundtripSeeds(const fs::path& dir) {
  for (std::size_t i = 0; i < wire::kAllWireTags.size(); ++i) {
    std::vector<std::uint8_t> bytes;
    // ByteSource.below(kAllWireTags.size()) consumes a u32 (little-endian),
    // and i % kAllWireTags.size() == i.
    bytes.push_back(static_cast<std::uint8_t>(i));
    bytes.push_back(0);
    bytes.push_back(0);
    bytes.push_back(0);
    for (std::size_t j = 0; j < 96; ++j) {
      bytes.push_back(static_cast<std::uint8_t>(j * 37 + i * 11));
    }
    writeFile(dir, "tag-" + tagName(wire::kAllWireTags[i]) + ".bin", bytes);
  }
}

void stBloomSeeds(const fs::path& dir) {
  for (std::size_t variant = 0; variant < 6; ++variant) {
    std::vector<std::uint8_t> bytes;
    const std::size_t len = 32 << variant;  // 32 .. 1024 ops' worth
    for (std::size_t j = 0; j < len; ++j) {
      bytes.push_back(static_cast<std::uint8_t>(j * 29 + variant * 101 + 7));
    }
    writeFile(dir, "ops-" + std::to_string(variant) + ".bin", bytes);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const fs::path root(argv[1]);
  decodeSeeds(root / "fuzz_wire_decode");
  roundtripSeeds(root / "fuzz_wire_roundtrip");
  stBloomSeeds(root / "fuzz_st_bloom");
  std::printf("seed corpus written under %s\n", root.c_str());
  return 0;
}
