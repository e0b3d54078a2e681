// Harness 2: structure-aware round-trip. Input bytes drive the deterministic
// PacketGenerator, which builds a VALID packet of an arbitrary wire tag —
// nested Multicast-in-Interest, epoch vectors, boundary-deep Names included.
// The codec must then hold the strongest contract: encode → decode → encode
// is bit-exact (valid packets encode canonically, so even the first
// re-encoding may not differ), the decoded tag matches, and encodedSize
// agrees.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/name_table.hpp"
#include "fuzz/byte_source.hpp"
#include "fuzz/packet_generator.hpp"
#include "wire/codec.hpp"

using namespace gcopss;

namespace {

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "fuzz_wire_roundtrip invariant violated: %s\n", what);
  std::abort();
}

// The receiving world's table. Decode only looks names up, so every input
// meets the same table however long the campaign runs.
const NameTable kNames;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  fuzz::ByteSource src(data, size);
  const PacketPtr packet = fuzz::generatePacket(src);

  const std::vector<std::uint8_t> encoded = wire::encode(*packet);
  if (wire::encodedSize(*packet) != encoded.size()) fail("encodedSize mismatch");

  PacketPtr decoded;
  try {
    decoded = wire::decode(encoded, kNames);
  } catch (const wire::WireError& e) {
    std::fprintf(stderr, "valid packet rejected: %s\n", e.what());
    std::abort();
  }

  if (wire::wireTag(*decoded) != wire::wireTag(*packet)) fail("tag not preserved");
  if (wire::encode(*decoded) != encoded) fail("round-trip not bit-exact");
  return 0;
}
