// Harness 1: raw bytes into decode(). The contract under ANY input:
//   * decode() either throws WireError or returns a packet — never crashes,
//     never trips ASan/UBSan, never throws anything else;
//   * tryDecode() agrees exactly with decode() (same accept/reject);
//   * an accepted packet re-encodes to a decode→encode fixpoint: decoding
//     the re-encoding and encoding again is bit-identical (the first
//     re-encoding may differ from the input only by varint canonicalization);
//   * encodedSize() agrees with the materialized encoding's size.
// Violations abort() so the fuzzer records the input.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/name_table.hpp"
#include "wire/codec.hpp"

using namespace gcopss;

namespace {

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "fuzz_wire_decode invariant violated: %s\n", what);
  std::abort();
}

// The receiving world's table. Decode only looks names up, so every input
// meets the same table however long the campaign runs.
const NameTable kNames;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  PacketPtr packet;
  try {
    packet = wire::decode(data, size, kNames);
  } catch (const wire::WireError&) {
    if (wire::tryDecode(data, size, kNames).packet) fail("tryDecode accepted, decode threw");
    return 0;
  }

  const wire::DecodeResult softly = wire::tryDecode(data, size, kNames);
  if (!softly.packet) fail("decode accepted, tryDecode rejected");

  const std::vector<std::uint8_t> once = wire::encode(*packet);
  if (wire::encodedSize(*packet) != once.size()) fail("encodedSize mismatch");

  PacketPtr again;
  try {
    again = wire::decode(once, kNames);
  } catch (const wire::WireError&) {
    fail("re-encoding of accepted packet does not decode");
  }
  if (wire::encode(*again) != once) fail("decode/encode not a fixpoint");
  if (wire::wireTag(*again) != wire::wireTag(*packet)) fail("tag changed in round-trip");
  return 0;
}
