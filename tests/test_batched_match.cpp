// Subscription Table match-path suite (DESIGN.md §4e).
//
// The one production match — the per-face walk behind the per-tick cache,
// SubscriptionTable::matchFacesHashedInto — must be *byte-identical* to the
// scalar reference model in st_oracle.hpp: same match set, same output
// order, same bloomFalsePositives accounting — under churn, prunes, faces
// leaving and returning, undersized filters and exact (useBloom=false) mode.
// Every check runs the publication twice: the repeat must be a cache hit
// that replays the same faces and false-positive delta. Each face's filter
// must also equal the model's filter rebuilt from the face's live CDs.
//
// The last tests close the loop end-to-end: whole-sim runs must produce
// identical RunSummary digests on the serial and the sharded engine.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hash.hpp"
#include "copss/packets.hpp"
#include "copss/st.hpp"
#include "gcopss/experiment.hpp"
#include "st_oracle.hpp"

namespace gcopss::test {
namespace {

using copss::MulticastPacket;
using copss::SubscriptionTable;

// Deterministic generator (no std::rand / random_device — determinism lint).
struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(mix64(seed | 1)) {}
  std::uint64_t next() { return state = mix64(state + 0x9e3779b97f4a7c15ULL); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

// Hierarchical CD universe: /g<a>, /g<a>/r<b>, /g<a>/r<b>/c<c>.
Name randomCd(Lcg& rng, std::uint64_t groups = 8) {
  const auto a = rng.below(groups);
  Name n = Name::parse("/g" + std::to_string(a));
  if (rng.below(3) != 0) {
    n = n.append("r" + std::to_string(rng.below(4)));
    if (rng.below(2) != 0) n = n.append("c" + std::to_string(rng.below(3)));
  }
  return n;
}

// One publication's worth of match inputs, prefix hashes precomputed the way
// the data plane does it (MulticastPacket's hash-at-first-hop).
struct Pub {
  std::vector<Name> cds;
  std::vector<std::uint64_t> prefixHashes;
  std::uint64_t matchKey;
};

Pub randomPub(Lcg& rng, std::uint64_t groups = 8) {
  std::vector<Name> cds{randomCd(rng, groups)};
  if (rng.below(4) == 0) cds.push_back(randomCd(rng, groups));
  const MulticastPacket pkt(cds, 10, 0, 1, 0);
  return Pub{pkt.cds, pkt.prefixHashes, pkt.matchKey};
}

// Match `pub` twice and hold both against the oracle: identical face vectors
// AND identical bloomFalsePositives deltas. The repeat must hit the cache.
void expectMatchesOracle(const SubscriptionTable& st, const Pub& pub, NodeId exclude) {
  const OracleMatch want = oracleMatch(st, pub.cds, exclude);
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<NodeId> got;
    const auto hits = st.matchCacheHits();
    const auto fpBefore = st.bloomFalsePositives();
    st.matchFacesHashedInto(pub.cds, pub.prefixHashes, pub.matchKey, exclude, got);
    ASSERT_EQ(got, want.faces) << "match diverged from the oracle, pass " << pass;
    ASSERT_EQ(st.bloomFalsePositives() - fpBefore, want.falsePositives)
        << "false-positive accounting diverged from the oracle, pass " << pass;
    if (pass == 1 && st.faceCount() > 0) {
      ASSERT_EQ(st.matchCacheHits(), hits + 1) << "a repeated publication must hit the cache";
    }
  }
}

// Every face's filter answers every name in `names` as the model's does.
void expectFiltersMatchModel(const SubscriptionTable& st, const std::vector<Name>& names) {
  for (NodeId face : st.faces()) {
    for (const Name& cd : names) {
      ASSERT_EQ(st.bloomMightContain(face, cd), modelMightContain(st, face, cd))
          << "face " << face << " filter diverged from its live CDs on " << cd.toString();
    }
  }
}

// Every CD randomCd can draw, plus every prefix level of one.
std::vector<Name> cdUniverse(std::uint64_t groups = 8) {
  std::vector<Name> out{Name()};
  for (std::uint64_t a = 0; a < groups; ++a) {
    const Name g = Name::parse("/g" + std::to_string(a));
    out.push_back(g);
    for (int b = 0; b < 4; ++b) {
      const Name r = g.append("r" + std::to_string(b));
      out.push_back(r);
      for (int c = 0; c < 3; ++c) out.push_back(r.append("c" + std::to_string(c)));
    }
  }
  return out;
}

// 70 faces: more than a router holds, so the walk and the cache see wide
// face lists (past the cache line's 12 inline faces) as well as short ones.
constexpr NodeId kFaces = 70;

TEST(BatchedMatch, RandomChurnMatchesScalarOracle) {
  SubscriptionTable st;
  Lcg rng(2026);
  const std::vector<Name> universe = cdUniverse();

  // (face, cd) pairs we know are live, so unsubscribes hit real entries.
  // A sprinkle of prunes keeps migration leftovers on many faces.
  std::vector<std::pair<NodeId, Name>> live;
  for (int round = 0; round < 40; ++round) {
    for (int op = 0; op < 25; ++op) {
      if (rng.below(10) == 0) {
        st.prune(static_cast<NodeId>(rng.below(kFaces)), randomCd(rng));
      } else if (live.empty() || rng.below(3) != 0) {
        const NodeId face = static_cast<NodeId>(rng.below(kFaces));
        Name cd = randomCd(rng);
        st.subscribe(face, cd);
        live.emplace_back(face, std::move(cd));
      } else {
        const auto pick = rng.below(live.size());
        st.unsubscribe(live[pick].first, live[pick].second);
        live[pick] = live.back();
        live.pop_back();
      }
    }
    for (int p = 0; p < 12; ++p) {
      const NodeId exclude =
          rng.below(4) == 0 ? static_cast<NodeId>(rng.below(kFaces)) : kInvalidNode;
      expectMatchesOracle(st, randomPub(rng), exclude);
    }
    expectFiltersMatchModel(st, universe);
  }
}

TEST(BatchedMatch, PrunedFacesMatchScalarOracle) {
  // A face skips each carried CD it pruned inside the walk, and the cache
  // stays on: the output must still be byte-identical to the oracle.
  SubscriptionTable st;
  Lcg rng(7);
  for (NodeId f = 0; f < 20; ++f) {
    st.subscribe(f, Name::parse("/g" + std::to_string(f % 8)));
  }
  for (int i = 0; i < 30; ++i) {
    st.prune(static_cast<NodeId>(rng.below(20)), randomCd(rng));
  }
  for (int p = 0; p < 60; ++p) {
    expectMatchesOracle(st, randomPub(rng),
                        rng.below(3) == 0 ? static_cast<NodeId>(rng.below(20)) : kInvalidNode);
  }
  // Resubscribing ancestors clears prunes; the equivalence must survive the
  // transition back to a prune-free table.
  for (NodeId f = 0; f < 20; ++f) {
    st.subscribe(f, Name::parse("/g" + std::to_string(f % 8)));
  }
  for (int p = 0; p < 30; ++p) expectMatchesOracle(st, randomPub(rng), kInvalidNode);
}

TEST(BatchedMatch, PrunedRepeatPublicationIsACacheHit) {
  // A migration leftover must not make the cache stand down: the prune is a
  // versioned mutation like any other, so a repeat of the same publication
  // replays from the line — and still agrees with the oracle.
  SubscriptionTable st;
  st.subscribe(1, Name::parse("/g1"));
  st.subscribe(2, Name::parse("/g1"));
  st.subscribe(3, Name::parse("/g1/r2"));
  st.prune(2, Name::parse("/g1/r2"));
  ASSERT_TRUE(st.isPruned(2, Name::parse("/g1/r2")));

  const MulticastPacket pkt({Name::parse("/g1/r2")}, 10, 0, 1, 0);
  const Pub pub{pkt.cds, pkt.prefixHashes, pkt.matchKey};
  EXPECT_EQ(oracleMatch(st, pub.cds, kInvalidNode).faces, (std::vector<NodeId>{1, 3}));
  expectMatchesOracle(st, pub, kInvalidNode);

  const MulticastPacket sibling({Name::parse("/g1/r1")}, 10, 0, 1, 0);
  expectMatchesOracle(st, Pub{sibling.cds, sibling.prefixHashes, sibling.matchKey},
                      kInvalidNode);
}

TEST(BatchedMatch, CacheHitReplaysFacesAndFalsePositives) {
  SubscriptionTable st;
  st.subscribe(1, Name::parse("/g1"));
  st.subscribe(2, Name::parse("/g1/r2"));
  st.subscribe(3, Name::parse("/g2"));

  const MulticastPacket pkt({Name::parse("/g1/r2/c1")}, 10, 0, 1, 0);
  std::vector<NodeId> first, second;
  st.matchFacesHashedInto(pkt.cds, pkt.prefixHashes, pkt.matchKey, kInvalidNode, first);
  const auto hits = st.matchCacheHits();
  const auto fpBefore = st.bloomFalsePositives();
  st.matchFacesHashedInto(pkt.cds, pkt.prefixHashes, pkt.matchKey, kInvalidNode, second);
  EXPECT_EQ(st.matchCacheHits(), hits + 1) << "repeat publication must hit the cache";
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, (std::vector<NodeId>{1, 2}));

  // The replayed false-positive delta must equal a fresh oracle evaluation's.
  EXPECT_EQ(st.bloomFalsePositives() - fpBefore,
            oracleMatch(st, pkt.cds, kInvalidNode).falsePositives);
}

TEST(BatchedMatch, MutationInvalidatesCache) {
  SubscriptionTable st;
  st.subscribe(1, Name::parse("/g1"));
  const MulticastPacket pkt({Name::parse("/g1/r1")}, 10, 0, 1, 0);
  std::vector<NodeId> faces;
  st.matchFacesHashedInto(pkt.cds, pkt.prefixHashes, pkt.matchKey, kInvalidNode, faces);
  EXPECT_EQ(faces, (std::vector<NodeId>{1}));

  st.subscribe(2, Name::parse("/g1/r1"));  // bumps the table version
  st.matchFacesHashedInto(pkt.cds, pkt.prefixHashes, pkt.matchKey, kInvalidNode, faces);
  EXPECT_EQ(faces, (std::vector<NodeId>{1, 2})) << "stale cache line survived a mutation";

  st.unsubscribe(1, Name::parse("/g1"));
  st.matchFacesHashedInto(pkt.cds, pkt.prefixHashes, pkt.matchKey, kInvalidNode, faces);
  EXPECT_EQ(faces, (std::vector<NodeId>{2}));
}

TEST(BatchedMatch, SlotReuseAfterFaceRemoval) {
  // Kill entire faces and bring them back while matching stays equivalent
  // throughout: a returning face starts from an empty filter.
  SubscriptionTable st;
  Lcg rng(11);
  for (NodeId f = 0; f < kFaces; ++f) {
    st.subscribe(f, Name::parse("/g" + std::to_string(f % 8)));
  }
  for (int round = 0; round < 10; ++round) {
    // Remove ~1/3 of the faces entirely...
    for (NodeId f = 0; f < kFaces; ++f) {
      if (rng.below(3) == 0) st.unsubscribe(f, Name::parse("/g" + std::to_string(f % 8)));
    }
    // ...and repopulate.
    for (NodeId f = 0; f < kFaces; ++f) {
      if (!st.faceSubscribed(f, Name::parse("/g" + std::to_string(f % 8)))) {
        st.subscribe(f, Name::parse("/g" + std::to_string(f % 8)));
      }
    }
    for (int p = 0; p < 10; ++p) expectMatchesOracle(st, randomPub(rng), kInvalidNode);
  }
}

TEST(BatchedMatch, TinyFilterStaysEquivalent) {
  // A deliberately undersized filter (64 bits, 2 hashes, ~100 CDs per face)
  // sets nearly every bit and rains false positives; unsubscribes re-derive
  // only the departing CD's bits, so even this pathological table must match
  // the oracle bit-for-bit — including the FP counter — all the way down.
  SubscriptionTable::Options opts;
  opts.bloomBits = 64;
  opts.bloomHashes = 2;
  SubscriptionTable st(opts);
  Lcg rng(13);

  std::vector<std::pair<NodeId, Name>> live;
  for (int i = 0; i < 600; ++i) {
    const NodeId face = static_cast<NodeId>(rng.below(6));
    Name cd = Name::parse("/g" + std::to_string(rng.below(4)))
                  .append("x" + std::to_string(i));
    st.subscribe(face, cd);
    live.emplace_back(face, std::move(cd));
  }
  for (int p = 0; p < 40; ++p) expectMatchesOracle(st, randomPub(rng, 4), kInvalidNode);
  // Drain back down to an empty table.
  while (!live.empty()) {
    const auto pick = rng.below(live.size());
    st.unsubscribe(live[pick].first, live[pick].second);
    live[pick] = live.back();
    live.pop_back();
    if (live.size() % 97 == 0) {
      for (int p = 0; p < 5; ++p) expectMatchesOracle(st, randomPub(rng, 4), kInvalidNode);
      expectFiltersMatchModel(st, cdUniverse(4));
    }
  }
}

TEST(BatchedMatch, FilterForgetsLeftSubscriptions) {
  // Two bits, one probe: an anchor CD on bit 1 keeps the face alive while
  // 300 CDs pile onto bit 0. Once all 300 leave, bit 0 must be clear again —
  // a filter that counted them in 8 bits would stick at 255 and keep passing
  // every name on bit 0 for as long as the face lives.
  SubscriptionTable::Options opts;
  opts.bloomBits = 2;
  opts.bloomHashes = 1;
  SubscriptionTable st(opts);
  const BloomProbeSchedule probes(opts.bloomBits, opts.bloomHashes);
  const auto bitOf = [&probes](const Name& n) {
    std::size_t bit = 0;
    probes.forEachProbe(n.hash(), [&bit](std::size_t idx) { bit = idx; });
    return bit;
  };
  std::vector<Name> onBit[2];
  for (int i = 0; onBit[0].size() < 301 || onBit[1].empty(); ++i) {
    const Name n = Name::parse("/f/" + std::to_string(i));
    onBit[bitOf(n)].push_back(n);
  }
  const Name anchor = onBit[1].front();
  const Name fresh = onBit[0].back();
  st.subscribe(1, anchor);
  for (std::size_t i = 0; i < 300; ++i) st.subscribe(1, onBit[0][i]);
  ASSERT_TRUE(st.bloomMightContain(1, fresh)) << "bit 0 is set while its CDs are live";

  for (std::size_t i = 0; i < 300; ++i) st.unsubscribe(1, onBit[0][i]);
  ASSERT_EQ(st.cdsOnFace(1), std::vector<Name>{anchor});
  EXPECT_TRUE(st.bloomMightContain(1, anchor));
  EXPECT_FALSE(st.bloomMightContain(1, fresh)) << "bit 0 outlived every CD that set it";
  EXPECT_FALSE(modelMightContain(st, 1, fresh));
}

TEST(BatchedMatch, ExactModeMatchesOracle) {
  // useBloom=false (bench_ablation's exact mode) runs in the same walk: a
  // Bloom candidate matches only if its exact store holds the hash, and no
  // false positive is ever charged — prunes and exclusion included.
  SubscriptionTable::Options opts;
  opts.useBloom = false;
  opts.bloomBits = 64;  // tiny: plenty of Bloom candidates to reject
  opts.bloomHashes = 2;
  SubscriptionTable st(opts);
  Lcg rng(17);
  std::vector<std::pair<NodeId, Name>> live;
  for (int round = 0; round < 20; ++round) {
    for (int op = 0; op < 20; ++op) {
      const auto kind = rng.below(6);
      if (live.empty() || kind < 3) {
        const NodeId face = static_cast<NodeId>(rng.below(kFaces));
        Name cd = randomCd(rng);
        st.subscribe(face, cd);
        live.emplace_back(face, std::move(cd));
      } else if (kind < 5) {
        const auto pick = rng.below(live.size());
        st.unsubscribe(live[pick].first, live[pick].second);
        live[pick] = live.back();
        live.pop_back();
      } else {
        st.prune(static_cast<NodeId>(rng.below(kFaces)), randomCd(rng));
      }
    }
    for (int p = 0; p < 10; ++p) {
      const NodeId exclude =
          rng.below(4) == 0 ? static_cast<NodeId>(rng.below(kFaces)) : kInvalidNode;
      expectMatchesOracle(st, randomPub(rng), exclude);
    }
  }
  EXPECT_EQ(st.bloomFalsePositives(), 0u);
}

// ---- end-to-end: whole runs across engines ----

TEST(BatchedMatch, FullRunDigestInvariantAcrossMatchPathAndEngine) {
  game::GameMap map{std::vector<std::size_t>{2, 2}};
  game::ObjectDatabase db{map, {6, 12, 24}};
  trace::CsTraceConfig tcfg;
  tcfg.players = 14;
  tcfg.totalUpdates = 600;
  tcfg.meanInterArrival = ms(5);
  tcfg.playersPerAreaMin = 2;
  tcfg.playersPerAreaMax = 2;
  tcfg.seed = 99;
  const auto trace = trace::generateCsTrace(map, db, tcfg);

  // Match-path changes are compared across git revisions
  // (scripts/bench_ab.sh); this pins the engine axis.
  std::vector<gc::RunSummary> runs;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    gc::GCopssRunConfig cfg;
    cfg.topo = gc::TopoKind::Bench6;
    cfg.params = SimParams::microbench();
    cfg.numRps = 2;
    cfg.threads = threads;
    runs.push_back(gc::runGCopssTrace(map, trace, cfg));
  }
  // Integer outcomes are the determinism contract across engines (serial vs
  // sharded); the latency percentiles and CDF come from the same samples.
  EXPECT_GT(runs[0].deliveries, 0u);
  EXPECT_EQ(runs[0].deliveries, runs[1].deliveries);
  EXPECT_EQ(runs[0].eventsExecuted, runs[1].eventsExecuted);
  EXPECT_EQ(runs[0].bloomFalsePositives, runs[1].bloomFalsePositives);
  EXPECT_EQ(runs[0].linkPackets, runs[1].linkPackets);
  EXPECT_EQ(runs[0].drops, runs[1].drops);
  EXPECT_EQ(runs[0].p99Ms, runs[1].p99Ms);
  EXPECT_EQ(runs[0].latencyCdfMs, runs[1].latencyCdfMs);
  EXPECT_EQ(runs[0].networkGB, runs[1].networkGB);
}

}  // namespace
}  // namespace gcopss::test
