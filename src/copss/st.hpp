#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/bloom.hpp"
#include "common/name.hpp"
#include "net/packet.hpp"

namespace gcopss::copss {

// Subscription Table: <Face, BloomFilter<CD>> plus one exact refcounted CD
// store per face. The Bloom filter is the paper's data-path structure
// (checked for every prefix of an incoming CD); the exact store supports
// Unsubscribe refcounting, upstream aggregation decisions, false-positive
// accounting, and an exact-match mode used by the ablation bench to quantify
// Bloom false-positive leakage.
//
// Each face's filter is a plain bit set derived from its exact store: a bit
// is set iff some CD live on the face probes it, so Unsubscribe re-derives
// only the departing CD's k bits (DESIGN.md §4e). One match path: a cache
// miss walks the faces in ascending order, each face decided by the first
// prefix hash its filter passes; a version-invalidated per-tick match cache
// keyed by the publication's folded prefix hashes sits in front. Migration
// prunes and exact mode are verdicts inside the same walk. Match sets, output
// order and bloomFalsePositives are pinned against the scalar reference
// model in tests/st_oracle.hpp.
class SubscriptionTable {
 public:
  struct Options {
    bool useBloom = true;     // false = exact matching (ablation)
    std::size_t bloomBits = 1 << 14;
    unsigned bloomHashes = 7;
  };

  SubscriptionTable() : SubscriptionTable(Options{}) {}
  explicit SubscriptionTable(Options opts);

  // Returns true if this is the first subscription for `cd` across all faces
  // (i.e. the router should propagate the Subscribe upstream).
  bool subscribe(NodeId face, const Name& cd);

  // Returns true if no face remains subscribed to `cd` afterwards.
  bool unsubscribe(NodeId face, const Name& cd);

  // Faces that must receive a multicast carrying `cds` — every face whose
  // filter matches any prefix of any carried CD not pruned on that face —
  // excluding `excludeFace` (the arrival face), in ascending face order.
  // `prefixHashes` are the pre-computed hashes of every prefix level of every
  // CD (MulticastPacket's hash-at-first-hop); `matchKey` is their fold, the
  // cache key, so a cache hit costs one mix and one probe. Clears `out` and
  // fills it, reusing its capacity. `cds` is read for its run lengths only.
  void matchFacesHashedInto(const std::vector<Name>& cds,
                            const std::vector<std::uint64_t>& prefixHashes,
                            std::uint64_t matchKey, NodeId excludeFace,
                            std::vector<NodeId>& out) const;

  // The same match for control-plane callers holding only Names: hashes them
  // the way MulticastPacket does and runs matchFacesHashedInto.
  std::vector<NodeId> matchFaces(const std::vector<Name>& cds,
                                 NodeId excludeFace = kInvalidNode) const;

  // Does this table hold a subscription (on any face) whose CD intersects
  // `cd` (is a prefix of it or has it as a prefix)? Used by the migration
  // protocol to decide tree membership.
  bool hasIntersectingSubscription(const Name& cd) const;

  // --- migration support (Section IV-B) ---
  // Prune: stop delivering the exact CD `cd` to `face` even though a coarser
  // subscription on that face still matches it. Cleared by a later
  // subscribe() of `cd` or an ancestor on the same face.
  void prune(NodeId face, const Name& cd);
  bool isPruned(NodeId face, const Name& cd) const;

  std::vector<NodeId> faces() const;
  std::size_t faceCount() const { return table_.size(); }
  // Distinct CDs subscribed on `face` (exact granularity), in Name order.
  std::vector<Name> cdsOnFace(NodeId face) const;
  bool faceSubscribed(NodeId face, const Name& cd) const;

  // Total number of distinct (face, cd) subscription pairs.
  std::size_t entryCount() const;

  std::uint64_t bloomFalsePositives() const { return bloomFalsePositives_; }

  // Per-tick cache effectiveness (bench/tests).
  std::uint64_t matchCacheHits() const { return cacheHits_; }
  std::uint64_t matchCacheMisses() const { return cacheMisses_; }

  const Options& options() const { return opts_; }

  // --- audit interface (src/check invariant checker) ---
  // Soundness probe: would `face`'s Bloom filter pass `cd`? Every live exact
  // subscription MUST probe true, or the data plane silently starves that
  // face. In exact mode, whether the face holds `cd`. False for an unknown
  // face.
  bool bloomMightContain(NodeId face, const Name& cd) const;
  // Predicted false-positive rate of `face`'s filter at its current fill
  // (0.0 for an unknown face) — the drift baseline the auditor measures
  // observed false positives against.
  double predictedFalsePositiveRate(NodeId face) const;

  // TEST-ONLY: desynchronise `face`'s Bloom filter from its exact store by
  // re-deriving `cd`'s bits as if it had left while the exact entry stays
  // live — the corruption the ST-soundness invariant exists to catch. Never
  // call this outside a negative test of the invariant checker.
  void corruptBloomForAudit(NodeId face, const Name& cd);

 private:
  static constexpr std::size_t kCacheLines = 256;  // direct-mapped, power of two

  // One CD subscribed on a face: its hash (the data plane's key), its Name
  // (the control plane's) and the number of subscriptions holding it.
  struct Sub {
    std::uint64_t hash;
    Name cd;
    std::uint32_t refs;
  };

  struct FaceEntry {
    std::vector<std::uint64_t> bloom;  // bloomBits bits: set iff a live CD probes it
    std::vector<Sub> subs;     // sorted by hash; a face holds a few dozen CDs
    std::vector<Name> pruned;  // exact CDs migration stopped on this face

    explicit FaceEntry(std::size_t bits) : bloom((bits + 63) / 64, 0) {}

    // First Sub whose hash is not below `h`.
    std::vector<Sub>::const_iterator lowerBound(std::uint64_t h) const;
    bool holds(std::uint64_t h) const;
    // Index of the Sub for exactly `cd` (hash `h`); subs.size() if absent.
    std::size_t indexOf(const Name& cd, std::uint64_t h) const;
  };

  // Does any face other than `face` subscribe to `cd`?
  bool heldElsewhere(NodeId face, const Name& cd, std::uint64_t h) const;

  // Does `e`'s filter pass `h` (all k probe bits set)?
  bool bloomPasses(const FaceEntry& e, std::uint64_t h) const;
  // Re-derive the bits at `gone`'s probe positions from the CDs on `e` other
  // than `gone` (told apart by Name, so a CD sharing its hash keeps its bits).
  void resyncBits(FaceEntry& e, const Name& gone);
  void bumpVersion() { ++version_; }

  // The per-face walk (cache miss), and its verdict for one face.
  void walkMatchInto(const std::vector<Name>& cds,
                     const std::vector<std::uint64_t>& prefixHashes, NodeId excludeFace,
                     std::vector<NodeId>& out) const;
  bool faceMatches(const FaceEntry& e, const std::vector<Name>& cds,
                   const std::vector<std::uint64_t>& prefixHashes) const;

  Options opts_;
  std::map<NodeId, FaceEntry> table_;  // ordered for deterministic iteration
  BloomProbeSchedule probes_;          // the probe geometry of every face filter
  mutable std::uint64_t bloomFalsePositives_ = 0;
  std::uint64_t version_ = 0;          // bumped on any mutation

  // --- per-tick match cache (publications sharing a CD set at one hop) ---
  struct CacheLine {
    // Typical fan-out is bounded by node degree; keeping it inline makes a
    // cache hit touch only the line itself instead of hopping to a per-line
    // heap block. Wider face lists (rare) spill to the overflow vector.
    static constexpr std::uint32_t kInlineFaces = 12;
    std::uint64_t key = 0;
    std::uint64_t version = ~0ull;  // never equals a live version_
    std::uint32_t fpHits = 0;       // bloomFalsePositives_ delta to replay
    std::uint32_t count = 0;        // faces cached; > kInlineFaces => overflow
    NodeId faces[kInlineFaces];
    std::vector<NodeId> overflow;
  };
  mutable std::vector<CacheLine> cache_;
  mutable std::uint64_t cacheHits_ = 0;
  mutable std::uint64_t cacheMisses_ = 0;
};

}  // namespace gcopss::copss
