#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "wire/codec.hpp"

#include "copss/packets.hpp"
#include "gcopss/game_packets.hpp"
#include "ipserver/ipserver.hpp"
#include "ndn/packets.hpp"
#include "ndngame/ndngame.hpp"

namespace gcopss::test {
namespace {

using namespace gcopss::wire;

// The receiving world's table; decode only looks names up in it.
const NameTable kNames;

template <typename T>
RefPtr<const T> roundTrip(const PacketPtr& in) {
  const auto bytes = encode(in);
  const PacketPtr out = decode(bytes, kNames);
  const auto typed = packet_dynamic_cast<T>(out);
  EXPECT_NE(typed, nullptr) << "decoded type mismatch";
  return typed;
}

TEST(Wire, InterestRoundTripsWithEncapsulation) {
  auto inner = makePacket<copss::MulticastPacket>(
      std::vector<Name>{Name::parse("/1/2")}, 123, ms(7), 42, 9);
  auto in = makePacket<ndn::InterestPacket>(kNames, Name::parse("/1/2"), 777, 200, inner);
  const auto out = roundTrip<ndn::InterestPacket>(in);
  ASSERT_TRUE(out);
  EXPECT_EQ(out->name, Name::parse("/1/2"));
  EXPECT_EQ(out->nonce, 777u);
  EXPECT_EQ(out->size, 200u);
  ASSERT_TRUE(out->encapsulated);
  const auto& m = packet_cast<copss::MulticastPacket>(out->encapsulated);
  EXPECT_EQ(m.seq, 42u);
  EXPECT_EQ(m.payloadSize, 123u);
  // Derived prefix hashes are recomputed identically on decode.
  const auto& orig = packet_cast<copss::MulticastPacket>(PacketPtr(inner));
  EXPECT_EQ(m.prefixHashes, orig.prefixHashes);
}

TEST(Wire, PlainInterestWithoutPayload) {
  auto in = makePacket<ndn::InterestPacket>(kNames, Name::parse("/snapshot/1/2/o/3"), 5);
  const auto out = roundTrip<ndn::InterestPacket>(in);
  ASSERT_TRUE(out);
  EXPECT_FALSE(out->encapsulated);
  EXPECT_EQ(out->name.size(), 5u);
}

TEST(Wire, DataRoundTrips) {
  auto in = makePacket<ndn::DataPacket>(Name::parse("/d"), 512, seconds(3), 17);
  const auto out = roundTrip<ndn::DataPacket>(in);
  ASSERT_TRUE(out);
  EXPECT_EQ(out->payloadSize, 512u);
  EXPECT_EQ(out->createdAt, seconds(3));
  EXPECT_EQ(out->seq, 17u);
  EXPECT_EQ(out->size, in->size);
}

TEST(Wire, SubscribeScopedAndUnscoped) {
  const auto plain = roundTrip<copss::SubscribePacket>(
      makePacket<copss::SubscribePacket>(Name::parse("/1")));
  ASSERT_TRUE(plain);
  EXPECT_FALSE(plain->scoped);

  const auto scoped = roundTrip<copss::SubscribePacket>(
      makePacket<copss::SubscribePacket>(Name::parse("/1"), Name::parse("/1/2")));
  ASSERT_TRUE(scoped);
  EXPECT_TRUE(scoped->scoped);
  EXPECT_EQ(scoped->scope, Name::parse("/1/2"));

  const auto unsub = roundTrip<copss::UnsubscribePacket>(
      makePacket<copss::UnsubscribePacket>(Name::parse("/x"), Name::parse("/x/y")));
  ASSERT_TRUE(unsub);
  EXPECT_TRUE(unsub->scoped);
}

TEST(Wire, GameUpdateAndSnapshotSubtypesPreserved) {
  const auto upd = roundTrip<gc::GameUpdatePacket>(
      makePacket<gc::GameUpdatePacket>(Name::parse("/1/1"), 99, ms(1), 5, 3, 1234));
  ASSERT_TRUE(upd);
  EXPECT_EQ(upd->objectId, 1234u);

  const auto snap = roundTrip<gc::SnapshotObjectPacket>(makePacket<gc::SnapshotObjectPacket>(
      Name::parse("/snap/1/1"), 400, ms(2), 6, 4, 77, 106));
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap->objectId, 77u);
  EXPECT_EQ(snap->cycleLength, 106u);
}

TEST(Wire, ControlPacketsRoundTrip) {
  const std::vector<Name> cds{Name::parse("/1/1"), Name::parse("/2/_")};
  const std::vector<std::uint64_t> epochs{1, 1};
  const auto fib = roundTrip<copss::FibAddPacket>(
      makePacket<copss::FibAddPacket>(cds, epochs, 12, 900));
  ASSERT_TRUE(fib);
  EXPECT_EQ(fib->prefixes, cds);
  EXPECT_EQ(fib->origin, 12);
  EXPECT_EQ(fib->txnId, 900u);

  const auto handoff = roundTrip<copss::RpHandoffPacket>(
      makePacket<copss::RpHandoffPacket>(cds, epochs, 3, 4, 901));
  ASSERT_TRUE(handoff);
  EXPECT_EQ(handoff->oldRp, 3);
  EXPECT_EQ(handoff->newRp, 4);

  EXPECT_TRUE(roundTrip<copss::StJoinPacket>(makePacket<copss::StJoinPacket>(cds, 1)));
  EXPECT_TRUE(roundTrip<copss::StConfirmPacket>(makePacket<copss::StConfirmPacket>(cds, 2)));
  EXPECT_TRUE(roundTrip<copss::StLeavePacket>(makePacket<copss::StLeavePacket>(cds, 3)));
}

TEST(Wire, EpochStampedControlPacketsRoundTrip) {
  const std::vector<Name> cds{Name::parse("/1/1"), Name::parse("/2/_")};
  const std::vector<std::uint64_t> epochs{3, 7};

  const auto fib = roundTrip<copss::FibAddPacket>(
      makePacket<copss::FibAddPacket>(cds, epochs, 12, 900));
  ASSERT_TRUE(fib);
  EXPECT_EQ(fib->prefixes, cds);
  EXPECT_EQ(fib->epochs, epochs);

  const auto handoff = roundTrip<copss::RpHandoffPacket>(
      makePacket<copss::RpHandoffPacket>(cds, epochs, 3, 4, 901));
  ASSERT_TRUE(handoff);
  EXPECT_EQ(handoff->cds, cds);
  EXPECT_EQ(handoff->epochs, epochs);

  const std::uint64_t nonce = (9ULL << 32) + 1;
  const auto reclaim = roundTrip<copss::RpReclaimPacket>(
      makePacket<copss::RpReclaimPacket>(9, cds, epochs, 2, nonce));
  ASSERT_TRUE(reclaim);
  EXPECT_EQ(reclaim->origin, 9);
  EXPECT_EQ(reclaim->prefixes, cds);
  EXPECT_EQ(reclaim->epochs, epochs);
  EXPECT_EQ(reclaim->ttl, 2u);
  EXPECT_EQ(reclaim->nonce, nonce);

  const auto demote = roundTrip<copss::RpDemotePacket>(
      makePacket<copss::RpDemotePacket>(2, cds, epochs, nonce));
  ASSERT_TRUE(demote);
  EXPECT_EQ(demote->origin, 2);
  EXPECT_EQ(demote->epochs, epochs);
  EXPECT_EQ(demote->nonce, nonce);
}

TEST(Wire, MismatchedEpochCountIsRejected) {
  // Hand-corrupt an encoded FibAdd so the epoch count disagrees with the
  // prefix count: the decoder must refuse rather than mis-zip the vectors.
  const std::vector<Name> cds{Name::parse("/1"), Name::parse("/2")};
  auto bytes = encode(*makePacket<copss::FibAddPacket>(
      cds, std::vector<std::uint64_t>{3, 7}, 12, 900));
  // The epoch-count varint (value 2) is the first byte after the fixed-width
  // u64 txnId; flip it to 1.
  bool corrupted = false;
  for (std::size_t i = bytes.size(); i-- > 0;) {
    if (bytes[i] == 2) {  // last varint with value 2 is the epoch count
      bytes[i] = 1;
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  EXPECT_THROW(decode(bytes, kNames), WireError);
}

TEST(Wire, IpUnicastRoundTrips) {
  const auto out = roundTrip<ipserver::IpUnicastPacket>(makePacket<ipserver::IpUnicastPacket>(
      10, 20, Name::parse("/3/4"), 250, seconds(1), 333));
  ASSERT_TRUE(out);
  EXPECT_EQ(out->src, 10);
  EXPECT_EQ(out->dst, 20);
  EXPECT_EQ(out->payloadSize, 250u);
}

TEST(Wire, UpdateSegmentRoundTrips) {
  std::vector<ndngame::UpdateEntry> entries{
      {1, ms(10), Name::parse("/1/1"), 60},
      {2, ms(20), Name::parse("/_"), 90},
  };
  const auto out = roundTrip<ndngame::UpdateSegment>(makePacket<ndngame::UpdateSegment>(
      Name::parse("/player/3/u/7"), 166, ms(25), 7, entries));
  ASSERT_TRUE(out);
  ASSERT_EQ(out->updates.size(), 2u);
  EXPECT_EQ(out->updates[1].cd, Name::parse("/_"));
  EXPECT_EQ(out->updates[1].publishedAt, ms(20));
}

// ---------------- robustness ----------------

TEST(Wire, RejectsBadMagicVersionAndTruncation) {
  auto good = encode(*makePacket<copss::SubscribePacket>(Name::parse("/1")));
  {
    auto bad = good;
    bad[0] ^= 0xff;
    EXPECT_THROW(decode(bad, kNames), WireError);
  }
  {
    auto bad = good;
    bad[2] = 99;  // version
    EXPECT_THROW(decode(bad, kNames), WireError);
  }
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    std::vector<std::uint8_t> truncated(good.begin(),
                                        good.begin() + static_cast<long>(cut));
    EXPECT_THROW(decode(truncated, kNames), WireError) << "cut at " << cut;
  }
  {
    auto trailing = good;
    trailing.push_back(0);
    EXPECT_THROW(decode(trailing, kNames), WireError);
  }
}

TEST(Wire, RandomBytesNeverCrash) {
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(static_cast<std::size_t>(rng.uniformInt(0, 64)));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    try {
      (void)decode(junk, kNames);
    } catch (const WireError&) {
      // expected for almost every input
    }
  }
  SUCCEED();
}

// Property sweep: encode/decode/encode is a fixed point for fuzzed packets.
class WireFuzzRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzzRoundTrip, EncodeDecodeEncodeIsStable) {
  Rng rng(GetParam());
  auto randomName = [&rng]() {
    std::vector<std::string> comps;
    const auto depth = rng.uniformInt(0, 4);
    for (int i = 0; i < depth; ++i) {
      comps.push_back(std::to_string(rng.uniformInt(0, 99)));
    }
    return Name(std::move(comps));
  };
  for (int i = 0; i < 50; ++i) {
    PacketPtr p;
    switch (rng.uniformInt(0, 3)) {
      case 0:
        p = makePacket<copss::MulticastPacket>(
            std::vector<Name>{randomName(), randomName()},
            static_cast<Bytes>(rng.uniformInt(0, 4096)), rng.uniformInt(0, kSecond),
            rng.next(), static_cast<NodeId>(rng.uniformInt(0, 1000)));
        break;
      case 1:
        p = makePacket<ndn::InterestPacket>(kNames, randomName(), rng.next());
        break;
      case 2:
        p = makePacket<ndn::DataPacket>(randomName(),
                                        static_cast<Bytes>(rng.uniformInt(0, 9999)),
                                        rng.uniformInt(0, kSecond), rng.next());
        break;
      default:
        p = makePacket<copss::StJoinPacket>(std::vector<Name>{randomName()}, rng.next());
        break;
    }
    const auto once = encode(p);
    const auto twice = encode(decode(once, kNames));
    EXPECT_EQ(once, twice);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzRoundTrip, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace gcopss::test
namespace gcopss::test {
namespace {

using namespace gcopss::wire;

// ---------------- exhaustive per-tag round-trips ----------------

struct TagCase {
  WireTag tag;
  PacketPtr (*make)();
};

// One construction per wire tag. The static_assert below pins this table to
// the codec's tag list: adding a WireTag without a round-trip case here is a
// compile error, not a silent coverage gap.
const TagCase kTagCases[] = {
    {WireTag::Interest,
     +[]() -> PacketPtr {
       return makePacket<ndn::InterestPacket>(
           kNames, Name::parse("/i/1"), 7, 40,
           makePacket<copss::MulticastPacket>(std::vector<Name>{Name::parse("/m")},
                                              10, ms(1), 2, 3));
     }},
    {WireTag::Data,
     +[]() -> PacketPtr {
       return makePacket<ndn::DataPacket>(Name::parse("/d"), 256, ms(2), 4);
     }},
    {WireTag::Subscribe,
     +[]() -> PacketPtr {
       return makePacket<copss::SubscribePacket>(Name::parse("/s"), Name::parse("/s/1"));
     }},
    {WireTag::Unsubscribe,
     +[]() -> PacketPtr {
       return makePacket<copss::UnsubscribePacket>(Name::parse("/s"));
     }},
    {WireTag::Multicast,
     +[]() -> PacketPtr {
       return makePacket<copss::MulticastPacket>(
           std::vector<Name>{Name::parse("/a"), Name::parse("/b/c")}, 99, ms(3), 5, 6);
     }},
    {WireTag::GameUpdate,
     +[]() -> PacketPtr {
       return makePacket<gc::GameUpdatePacket>(Name::parse("/g/1"), 64, ms(4), 6, 7, 88);
     }},
    {WireTag::SnapshotObject,
     +[]() -> PacketPtr {
       return makePacket<gc::SnapshotObjectPacket>(Name::parse("/snap/1"), 128, ms(5),
                                                   7, 8, 89, 12);
     }},
    {WireTag::FibAdd,
     +[]() -> PacketPtr {
       return makePacket<copss::FibAddPacket>(
           std::vector<Name>{Name::parse("/f")}, std::vector<std::uint64_t>{3}, 9, 100);
     }},
    {WireTag::RpHandoff,
     +[]() -> PacketPtr {
       return makePacket<copss::RpHandoffPacket>(std::vector<Name>{Name::parse("/h")},
                                                 std::vector<std::uint64_t>{5}, 1, 2,
                                                 102);
     }},
    {WireTag::StJoin,
     +[]() -> PacketPtr {
       return makePacket<copss::StJoinPacket>(std::vector<Name>{Name::parse("/j")}, 103);
     }},
    {WireTag::StConfirm,
     +[]() -> PacketPtr {
       return makePacket<copss::StConfirmPacket>(std::vector<Name>{Name::parse("/c")},
                                                 104);
     }},
    {WireTag::StLeave,
     +[]() -> PacketPtr {
       return makePacket<copss::StLeavePacket>(std::vector<Name>{Name::parse("/l")},
                                               105);
     }},
    {WireTag::IpUnicast,
     +[]() -> PacketPtr {
       return makePacket<ipserver::IpUnicastPacket>(1, 2, Name::parse("/u"), 300,
                                                    ms(6), 10);
     }},
    {WireTag::UpdateSegment,
     +[]() -> PacketPtr {
       std::vector<ndngame::UpdateEntry> entries{{1, ms(7), Name::parse("/e"), 50}};
       return makePacket<ndngame::UpdateSegment>(Name::parse("/seg"), 200, ms(8), 11,
                                                 std::move(entries));
     }},
    {WireTag::Announce,
     +[]() -> PacketPtr {
       return makePacket<copss::AnnouncePacket>(Name::parse("/a"),
                                                Name::parse("/pub/1"), 4096, ms(9), 12,
                                                3);
     }},
    {WireTag::RpReclaim,
     +[]() -> PacketPtr {
       return makePacket<copss::RpReclaimPacket>(4, std::vector<Name>{Name::parse("/r")},
                                                 std::vector<std::uint64_t>{6}, 2, 106);
     }},
    {WireTag::RpDemote,
     +[]() -> PacketPtr {
       return makePacket<copss::RpDemotePacket>(5, std::vector<Name>{Name::parse("/r")},
                                                std::vector<std::uint64_t>{7}, 107);
     }},
};

static_assert(std::size(kTagCases) == kAllWireTags.size(),
              "wire tag without an exhaustive round-trip case: extend kTagCases");

TEST(Wire, EveryTagRoundTripsExhaustively) {
  for (std::size_t i = 0; i < std::size(kTagCases); ++i) {
    const TagCase& c = kTagCases[i];
    // The table covers each tag exactly once, in tag order.
    EXPECT_EQ(c.tag, kAllWireTags[i]);
    const PacketPtr p = c.make();
    EXPECT_EQ(wireTag(*p), c.tag);
    const auto bytes = encode(*p);
    // Frame header carries the expected tag byte.
    ASSERT_GE(bytes.size(), 4u);
    EXPECT_EQ(bytes[3], static_cast<std::uint8_t>(c.tag));
    const PacketPtr back = decode(bytes, kNames);
    EXPECT_EQ(wireTag(*back), c.tag);
    // Bit-exact fixpoint, and encodedSize agrees with the real encoding.
    EXPECT_EQ(encode(*back), bytes) << "tag " << static_cast<int>(c.tag);
    EXPECT_EQ(encodedSize(*p), bytes.size());
  }
}

// ---------------- decode-hardening bounds ----------------

// A frame header followed by a hand-crafted (usually hostile) body.
WireWriter frameFor(WireTag tag) {
  WireWriter w;
  w.u16(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(tag));
  return w;
}

void putWireName(WireWriter& w, const Name& n) {
  w.varint(n.size());
  for (const auto& c : n.components()) w.lengthPrefixed(c);
}

TEST(WireHardening, RetiredTagNineIsUnknown) {
  // Tag 9 carried FibRemove, which no simulator sent. Tags are append-only:
  // 9 stays out of the tag list, and a well-formed old body under it is an
  // unknown tag.
  for (const WireTag tag : kAllWireTags) EXPECT_NE(static_cast<int>(tag), 9);
  WireWriter w;
  w.u16(kMagic);
  w.u8(kVersion);
  w.u8(9);
  w.varint(1);
  putWireName(w, Name::parse("/f"));
  w.u32(4);    // origin
  w.u64(101);  // txn
  const auto bytes = w.take();
  EXPECT_THROW(decode(bytes, kNames), WireError);
  EXPECT_EQ(tryDecode(bytes, kNames).error, "unknown packet tag");
}

TEST(WireHardening, FrameSizeCapRejectsOversizedInput) {
  // Content never matters: the cap fires before any parsing.
  const std::vector<std::uint8_t> huge(kMaxFrameBytes + 1, 0);
  EXPECT_THROW(decode(huge, kNames), WireError);
  // At the cap itself the frame is parsed (and rejected for its content).
  const std::vector<std::uint8_t> atCap(kMaxFrameBytes, 0);
  EXPECT_THROW(decode(atCap, kNames), WireError);  // bad magic, not the size cap
}

TEST(WireHardening, NameComponentCountCap) {
  auto w = frameFor(WireTag::Subscribe);
  w.varint(kMaxNameComponents + 1);
  for (std::size_t i = 0; i <= kMaxNameComponents; ++i) w.lengthPrefixed("a");
  w.u8(0);
  EXPECT_THROW(decode(w.take(), kNames), WireError);

  // Exactly at the cap decodes (and round-trips).
  std::vector<std::string> comps(kMaxNameComponents, "a");
  const auto bytes =
      encode(*makePacket<copss::SubscribePacket>(Name(std::move(comps))));
  const auto back = packet_dynamic_cast<copss::SubscribePacket>(decode(bytes, kNames));
  ASSERT_TRUE(back);
  EXPECT_EQ(back->cd.size(), kMaxNameComponents);
}

TEST(WireHardening, ComponentByteCap) {
  // The hostile length prefix must be rejected BEFORE allocation: claim a
  // gigantic component in a tiny frame.
  auto w = frameFor(WireTag::Subscribe);
  w.varint(1);
  w.varint(std::uint64_t{1} << 40);  // 1 TiB component, no bytes behind it
  w.u8(0);
  EXPECT_THROW(decode(w.take(), kNames), WireError);

  // A component of exactly kMaxComponentBytes is legal.
  const auto bytes = encode(*makePacket<copss::SubscribePacket>(
      Name({std::string(kMaxComponentBytes, 'x')})));
  EXPECT_TRUE(packet_dynamic_cast<copss::SubscribePacket>(decode(bytes, kNames)));
}

TEST(WireHardening, NameCountCapAndInputLinearity) {
  {  // over the absolute cap
    auto w = frameFor(WireTag::StJoin);
    w.varint(kMaxNamesPerPacket + 1);
    EXPECT_THROW(decode(w.take(), kNames), WireError);
  }
  {  // under the cap, but claiming more names than there are bytes
    auto w = frameFor(WireTag::StJoin);
    w.varint(1024);
    putWireName(w, Name::parse("/only/one"));
    EXPECT_THROW(decode(w.take(), kNames), WireError);
  }
}

TEST(WireHardening, SegmentEntryCountCap) {
  auto w = frameFor(WireTag::UpdateSegment);
  putWireName(w, Name::parse("/seg"));
  w.varint(10);  // payload
  w.i64(0);      // createdAt
  w.u64(1);      // seq
  w.varint(kMaxSegmentEntries + 1);
  EXPECT_THROW(decode(w.take(), kNames), WireError);

  // Hostile count below the cap but above what the bytes can hold.
  auto v = frameFor(WireTag::UpdateSegment);
  putWireName(v, Name::parse("/seg"));
  v.varint(10);
  v.i64(0);
  v.u64(1);
  v.varint(1000);
  v.u64(1);  // one partial entry
  EXPECT_THROW(decode(v.take(), kNames), WireError);
}

TEST(WireHardening, EpochCountCannotOverrunInput) {
  auto w = frameFor(WireTag::RpReclaim);
  w.u32(1);  // origin
  w.varint(1);
  putWireName(w, Name::parse("/p"));
  w.varint(1);  // one epoch promised...
  // ...but no 8 bytes behind it.
  EXPECT_THROW(decode(w.take(), kNames), WireError);
}

// Every claim, handoff, reclaim and demote is stamped: exactly one epoch >= 1
// per name, and a reclaim or demote carries a non-zero nonce. The packet
// types still hold any value, so encoding an unstamped one yields the bytes
// a hostile peer would send.
TEST(WireHardening, EpochCountZeroBesideNamesIsRejected) {
  const std::vector<Name> one{Name::parse("/p")};
  const std::vector<Name> two{Name::parse("/p"), Name::parse("/q")};
  const std::vector<PacketPtr> unstamped{
      makePacket<copss::FibAddPacket>(two, std::vector<std::uint64_t>{}, 1, 900),
      makePacket<copss::RpHandoffPacket>(one, std::vector<std::uint64_t>{}, 1, 2, 901),
      makePacket<copss::RpReclaimPacket>(1, one, std::vector<std::uint64_t>{}, 2, 5),
      makePacket<copss::RpDemotePacket>(1, two, std::vector<std::uint64_t>{}, 5)};
  for (const PacketPtr& p : unstamped) {
    const auto bytes = encode(*p);
    EXPECT_THROW(decode(bytes, kNames), WireError) << static_cast<int>(wireTag(*p));
    EXPECT_EQ(tryDecode(bytes, kNames).error, "epoch/prefix count mismatch");
  }
  // No names, no epochs: nothing is unstamped.
  EXPECT_TRUE(roundTrip<copss::FibAddPacket>(makePacket<copss::FibAddPacket>(
      std::vector<Name>{}, std::vector<std::uint64_t>{}, 1, 902)));
}

TEST(WireHardening, EpochZeroIsRejected) {
  const std::vector<Name> cds{Name::parse("/p"), Name::parse("/q")};
  const std::vector<std::uint64_t> epochs{3, 0};
  const std::vector<PacketPtr> zero{
      makePacket<copss::FibAddPacket>(cds, epochs, 1, 900),
      makePacket<copss::RpHandoffPacket>(cds, epochs, 1, 2, 901),
      makePacket<copss::RpReclaimPacket>(1, cds, epochs, 2, 5),
      makePacket<copss::RpDemotePacket>(1, cds, epochs, 5)};
  for (const PacketPtr& p : zero) {
    const auto bytes = encode(*p);
    EXPECT_THROW(decode(bytes, kNames), WireError) << static_cast<int>(wireTag(*p));
    EXPECT_EQ(tryDecode(bytes, kNames).error, "epoch 0");
  }
}

TEST(WireHardening, ReclaimAndDemoteNonceZeroIsRejected) {
  const std::vector<Name> cds{Name::parse("/p")};
  const std::vector<std::uint64_t> epochs{4};
  for (const PacketPtr& p :
       {PacketPtr(makePacket<copss::RpReclaimPacket>(1, cds, epochs, 2, 0)),
        PacketPtr(makePacket<copss::RpDemotePacket>(1, cds, epochs, 0))}) {
    const auto bytes = encode(*p);
    EXPECT_THROW(decode(bytes, kNames), WireError) << static_cast<int>(wireTag(*p));
    EXPECT_EQ(tryDecode(bytes, kNames).error, "nonce 0");
  }
  EXPECT_TRUE(roundTrip<copss::RpReclaimPacket>(
      makePacket<copss::RpReclaimPacket>(1, cds, epochs, 2, 1)));
  EXPECT_TRUE(roundTrip<copss::RpDemotePacket>(
      makePacket<copss::RpDemotePacket>(1, cds, epochs, 1)));
}

TEST(WireHardening, EncapsulationDepthCap) {
  // Depth kMaxDecodeDepth (leaf at the deepest slot) is fine.
  PacketPtr ok = makePacket<ndn::DataPacket>(Name::parse("/leaf"), 1, 0, 0);
  for (std::size_t i = 1; i < kMaxDecodeDepth; ++i) {
    ok = makePacket<ndn::InterestPacket>(kNames, Name::parse("/i"), i, 40, std::move(ok));
  }
  EXPECT_TRUE(decode(encode(*ok), kNames));

  // One more level of nesting crosses the budget.
  PacketPtr deep = makePacket<ndn::DataPacket>(Name::parse("/leaf"), 1, 0, 0);
  for (std::size_t i = 0; i < kMaxDecodeDepth; ++i) {
    deep = makePacket<ndn::InterestPacket>(kNames, Name::parse("/i"), i, 40, std::move(deep));
  }
  EXPECT_THROW(decode(encode(*deep), kNames), WireError);
}

TEST(WireHardening, ZeroComponentNamesAreLegal) {
  // The root name (zero components) is meaningful (root RP prefix) and must
  // survive, not be conflated with malformed input.
  const auto bytes = encode(*makePacket<copss::SubscribePacket>(Name()));
  const auto back = packet_dynamic_cast<copss::SubscribePacket>(decode(bytes, kNames));
  ASSERT_TRUE(back);
  EXPECT_EQ(back->cd, Name());
}

// ---------------- nested-frame boundary (satellite audit) ----------------

// Build the outer Interest frame by hand around attacker-controlled inner
// bytes (declared length `declared`, actual bytes `inner`).
std::vector<std::uint8_t> interestAround(const std::vector<std::uint8_t>& inner,
                                         std::uint64_t declared) {
  auto w = frameFor(WireTag::Interest);
  putWireName(w, Name::parse("/i"));
  w.u64(7);      // nonce
  w.varint(40);  // size
  w.u8(1);       // encapsulated flag
  w.varint(declared);
  w.bytes(inner.data(), inner.size());
  return w.take();
}

TEST(WireNestedFrames, InnerTruncationIsNeverMaskedByOuterFraming) {
  const auto inner = encode(*makePacket<copss::MulticastPacket>(
      std::vector<Name>{Name::parse("/m/1"), Name::parse("/m/2")}, 77, ms(1), 5, 6));
  // Cut the inner Multicast at EVERY byte boundary; however the outer frame
  // is sized, the truncated inner packet must be rejected.
  for (std::size_t cut = 0; cut < inner.size(); ++cut) {
    const std::vector<std::uint8_t> cutInner(inner.begin(),
                                             inner.begin() + static_cast<long>(cut));
    EXPECT_THROW(decode(interestAround(cutInner, cut), kNames), WireError)
        << "inner cut at " << cut;
  }
  // The un-cut inner decodes: the construction above is the real layout.
  EXPECT_TRUE(decode(interestAround(inner, inner.size()), kNames));
}

TEST(WireNestedFrames, TrailingBytesInsideInnerFrameAreRejected) {
  const auto inner = encode(*makePacket<copss::MulticastPacket>(
      std::vector<Name>{Name::parse("/m")}, 10, ms(1), 1, 2));
  // Declared inner length covers one smuggled byte beyond the inner packet:
  // the inner reader must flag it, not hand it back to the outer frame.
  auto smuggled = inner;
  smuggled.push_back(0xee);
  EXPECT_THROW(decode(interestAround(smuggled, smuggled.size()), kNames), WireError);
}

TEST(WireNestedFrames, InnerLengthCannotClaimOuterBytes) {
  const auto inner = encode(*makePacket<copss::MulticastPacket>(
      std::vector<Name>{Name::parse("/m")}, 10, ms(1), 1, 2));
  // Declared length runs one past the bytes present in the outer frame.
  EXPECT_THROW(decode(interestAround(inner, inner.size() + 1), kNames), WireError);
}

// ---------------- tryDecode ----------------

TEST(WireTryDecode, AgreesWithDecodeOnAcceptAndReject) {
  const auto good = encode(*makePacket<ndn::DataPacket>(Name::parse("/d"), 9, ms(1), 2));
  const auto ok = tryDecode(good, kNames);
  ASSERT_TRUE(ok);
  EXPECT_TRUE(ok.error.empty());
  EXPECT_EQ(encode(*ok.packet), good);

  auto bad = good;
  bad[0] ^= 0xff;
  const auto rejected = tryDecode(bad, kNames);
  EXPECT_FALSE(rejected);
  EXPECT_EQ(rejected.packet, nullptr);
  EXPECT_FALSE(rejected.error.empty());

  // Same verdicts as the throwing API, input by input.
  EXPECT_NO_THROW(decode(good, kNames));
  EXPECT_THROW(decode(bad, kNames), WireError);
}

TEST(WireTryDecode, ReportsTheFailingConstraint) {
  auto w = frameFor(WireTag::Subscribe);
  w.varint(kMaxNameComponents + 1);
  const auto r = tryDecode(w.take(), kNames);
  ASSERT_FALSE(r);
  EXPECT_NE(r.error.find("count"), std::string::npos) << r.error;
}

TEST(Wire, AnnounceRoundTrips) {
  const auto out = packet_dynamic_cast<copss::AnnouncePacket>(
      wire::decode(wire::encode(*makePacket<copss::AnnouncePacket>(
          Name::parse("/1/2"), Name::parse("/pub/5/9"), 4096, ms(3), 9, 5)), kNames));
  ASSERT_TRUE(out);
  EXPECT_EQ(out->contentName, Name::parse("/pub/5/9"));
  EXPECT_EQ(out->fullSize, 4096u);
  EXPECT_EQ(out->payloadSize, copss::kSnippetBytes);
}

}  // namespace
}  // namespace gcopss::test
