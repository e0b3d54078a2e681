#include "copss/st.hpp"

#include <algorithm>

#include "common/thread_annotations.hpp"
#include "copss/packets.hpp"

namespace gcopss::copss {

SubscriptionTable::SubscriptionTable(Options opts)
    : opts_(opts), probes_(opts.bloomBits, opts.bloomHashes), cache_(kCacheLines) {}

// --- per-face exact store ---------------------------------------------------

std::vector<SubscriptionTable::Sub>::const_iterator SubscriptionTable::FaceEntry::lowerBound(
    std::uint64_t h) const {
  return std::lower_bound(subs.begin(), subs.end(), h,
                          [](const Sub& s, std::uint64_t key) { return s.hash < key; });
}

bool SubscriptionTable::FaceEntry::holds(std::uint64_t h) const {
  const auto it = lowerBound(h);
  return it != subs.end() && it->hash == h;
}

std::size_t SubscriptionTable::FaceEntry::indexOf(const Name& cd, std::uint64_t h) const {
  auto it = lowerBound(h);
  while (it != subs.end() && it->hash == h && it->cd != cd) ++it;
  return it != subs.end() && it->hash == h ? static_cast<std::size_t>(it - subs.begin())
                                           : subs.size();
}

bool SubscriptionTable::heldElsewhere(NodeId face, const Name& cd, std::uint64_t h) const {
  for (const auto& [f, e] : table_) {
    if (f != face && e.indexOf(cd, h) != e.subs.size()) return true;
  }
  return false;
}

// --- plane index maintenance -------------------------------------------------
// All of this runs on the control plane (subscribe/unsubscribe/prune), never
// per packet; the cold markers double as gcopss-tidy hot-alloc barriers.

GCOPSS_COLD void SubscriptionTable::attachSlot(FaceEntry& e) {
  if (!freeSlots_.empty()) {
    e.slot = freeSlots_.back();
    freeSlots_.pop_back();
    slotEntry_[e.slot] = &e;  // column bits were scrubbed by releaseSlot
    return;
  }
  e.slot = static_cast<std::uint32_t>(slotEntry_.size());
  slotEntry_.push_back(&e);
  if (slotEntry_.size() > planeWords_ * 64) rebuildPlanes();
}

GCOPSS_COLD void SubscriptionTable::rebuildPlanes() {
  planeWords_ = (slotEntry_.size() + 63) / 64;
  if (planeWords_ == 0) planeWords_ = 1;
  planes_.assign(opts_.bloomBits * planeWords_, 0);
  prunedMask_.assign(planeWords_, 0);
  sweepHit_.assign(planeWords_, 0);
  sweepMatched_.assign(planeWords_, 0);
  for (std::uint32_t s = 0; s < slotEntry_.size(); ++s) {
    const FaceEntry* e = slotEntry_[s];
    if (e == nullptr) continue;
    const std::uint64_t bit = 1ull << (s % 64);
    const std::size_t w = s / 64;
    for (std::size_t idx = 0; idx < opts_.bloomBits; ++idx) {
      if (e->bloom.counterAt(idx) != 0) planes_[idx * planeWords_ + w] |= bit;
    }
    if (!e->pruned.empty()) prunedMask_[w] |= bit;
  }
}

GCOPSS_COLD void SubscriptionTable::releaseSlot(FaceEntry& e) {
  const std::uint64_t bit = 1ull << (e.slot % 64);
  const std::size_t w = e.slot / 64;
  for (std::size_t idx = 0; idx < opts_.bloomBits; ++idx) {
    planes_[idx * planeWords_ + w] &= ~bit;
  }
  if (prunedMask_[w] & bit) {
    prunedMask_[w] &= ~bit;
    --prunedFaces_;
  }
  slotEntry_[e.slot] = nullptr;
  freeSlots_.push_back(e.slot);
}

void SubscriptionTable::syncPlanes(const FaceEntry& e, std::uint64_t nameHash) {
  const std::uint64_t bit = 1ull << (e.slot % 64);
  const std::size_t w = e.slot / 64;
  // Re-derive each touched bit from the counter rather than mirroring the
  // operation: add() saturates and remove() guards/never-decrements-0xff, so
  // "counter non-zero" is the only transition rule that is always right.
  e.bloom.forEachProbe(nameHash, [&](std::size_t idx) {
    std::uint64_t& word = planes_[idx * planeWords_ + w];
    if (e.bloom.counterAt(idx) != 0) {
      word |= bit;
    } else {
      word &= ~bit;
    }
  });
}

void SubscriptionTable::updatePrunedBit(const FaceEntry& e) {
  const std::uint64_t bit = 1ull << (e.slot % 64);
  const std::size_t w = e.slot / 64;
  const bool now = !e.pruned.empty();
  const bool was = (prunedMask_[w] & bit) != 0;
  if (now == was) return;
  if (now) {
    prunedMask_[w] |= bit;
    ++prunedFaces_;
  } else {
    prunedMask_[w] &= ~bit;
    --prunedFaces_;
  }
}

// --- subscription state ---------------------------------------------------

bool SubscriptionTable::subscribe(NodeId face, const Name& cd) {
  auto it = table_.find(face);
  if (it == table_.end()) {
    it = table_.emplace(face, FaceEntry(opts_.bloomBits, opts_.bloomHashes)).first;
    attachSlot(it->second);
  }
  FaceEntry& e = it->second;
  const std::uint64_t h = cd.hash();
  const std::size_t i = e.indexOf(cd, h);
  const bool fresh = i == e.subs.size();
  if (fresh) {
    e.subs.insert(e.lowerBound(h), Sub{h, cd, 1});
    e.bloom.add(h);
    syncPlanes(e, h);
  } else {
    ++e.subs[i].refs;
  }
  // A fresh subscription clears prunes of this CD and of anything below it.
  std::erase_if(e.pruned, [&cd](const Name& p) { return cd.isPrefixOf(p); });
  updatePrunedBit(e);
  bumpVersion();
  return fresh && !heldElsewhere(face, cd, h);
}

bool SubscriptionTable::unsubscribe(NodeId face, const Name& cd) {
  const auto it = table_.find(face);
  if (it == table_.end()) return false;
  FaceEntry& e = it->second;
  const std::uint64_t h = cd.hash();
  const std::size_t i = e.indexOf(cd, h);
  if (i == e.subs.size()) return false;
  const bool gone = --e.subs[i].refs == 0;
  if (gone) {
    e.subs.erase(e.subs.begin() + static_cast<std::ptrdiff_t>(i));
    e.bloom.remove(h);
    syncPlanes(e, h);
    if (e.subs.empty()) {
      releaseSlot(e);
      table_.erase(it);
    }
  }
  bumpVersion();
  return gone && !heldElsewhere(face, cd, h);
}

// --- matching -------------------------------------------------------------

std::vector<NodeId> SubscriptionTable::matchFaces(const std::vector<Name>& cds,
                                                  NodeId excludeFace) const {
  std::vector<std::uint64_t> prefixHashes;
  for (const Name& cd : cds) appendPrefixHashes(cd, prefixHashes);
  std::vector<NodeId> out;
  matchFacesHashedInto(cds, prefixHashes,
                       foldHashes(prefixHashes.data(), prefixHashes.size()), excludeFace, out);
  return out;
}

GCOPSS_HOT void SubscriptionTable::matchFacesHashedInto(const std::vector<Name>& cds,
                                             const std::vector<std::uint64_t>& prefixHashes,
                                             std::uint64_t matchKey, NodeId excludeFace,
                                             std::vector<NodeId>& out) const {
  out.clear();
  if (table_.empty()) return;
  // Per-tick cache: publications fanning out through one hop within a tick
  // overwhelmingly carry the same CD set (same region/zone), so the whole
  // match — face list plus false-positive accounting — is replayed from the
  // line. Any mutation, prunes included, bumps version_ and retires it.
  const std::uint64_t tag =
      mix64(matchKey ^ (0xda942042e4dd58b5ULL + static_cast<std::uint64_t>(excludeFace)));
  CacheLine& line = cache_[tag & (kCacheLines - 1)];
  if (line.key == tag && line.version == version_) {
    ++cacheHits_;
    bloomFalsePositives_ += line.fpHits;
    if (line.count <= CacheLine::kInlineFaces) {
      out.insert(out.end(), line.faces, line.faces + line.count);
    } else {
      out.insert(out.end(), line.overflow.begin(), line.overflow.end());
    }
    return;
  }
  ++cacheMisses_;
  const std::uint64_t fpBefore = bloomFalsePositives_;
  sweepMatchInto(cds, prefixHashes, excludeFace, out);
  line.key = tag;
  line.version = version_;
  line.fpHits = static_cast<std::uint32_t>(bloomFalsePositives_ - fpBefore);
  line.count = static_cast<std::uint32_t>(out.size());
  if (out.size() <= CacheLine::kInlineFaces) {
    std::copy(out.begin(), out.end(), line.faces);
  } else {
    line.overflow.assign(out.begin(), out.end());
  }
}

GCOPSS_HOT void SubscriptionTable::sweepMatchInto(const std::vector<Name>& cds,
                                       const std::vector<std::uint64_t>& prefixHashes,
                                       NodeId excludeFace, std::vector<NodeId>& out) const {
  const std::size_t W = planeWords_;
  for (std::size_t w = 0; w < W; ++w) sweepMatched_[w] = 0;
  // The arrival face is never evaluated: count it as matched up front.
  if (excludeFace != kInvalidNode) {
    const auto it = table_.find(excludeFace);
    if (it != table_.end()) sweepMatched_[it->second.slot / 64] |= 1ull << (it->second.slot % 64);
  }
  // Prunes: per carried CD, the faces that pruned exactly that CD skip its
  // whole run of prefix hashes. A CD's own hash ends its run, so no Name is
  // hashed here (packet Names are shared across shards).
  const bool prunes = prunedFaces_ > 0;
  if (prunes) {
    sweepPruned_.assign(cds.size() * W, 0);
    std::size_t runEnd = 0;
    for (std::size_t i = 0; i < cds.size(); ++i) {
      runEnd += cds[i].size() + 1;
      const std::uint64_t cdHash = prefixHashes[runEnd - 1];
      for (std::size_t w = 0; w < W; ++w) {
        for (std::uint64_t bits = prunedMask_[w]; bits != 0; bits &= bits - 1) {
          const FaceEntry* e = slotEntry_[w * 64 + static_cast<unsigned>(__builtin_ctzll(bits))];
          for (const Name& p : e->pruned) {
            if (p.hash() == cdHash) sweepPruned_[i * W + w] |= bits & (~bits + 1);
          }
        }
      }
    }
  }
  std::size_t cd = 0;  // carried CD whose run holds hash j (tracked with prunes)
  std::size_t runEnd = prunes && !cds.empty() ? cds[0].size() + 1 : prefixHashes.size();
  for (std::size_t j = 0; j < prefixHashes.size(); ++j) {
    if (j == runEnd) runEnd += cds[++cd].size() + 1;
    const std::uint64_t h = prefixHashes[j];
    // AND the k plane rows for this hash: a face's bit survives iff all of
    // its counters at the probe positions are non-zero — exactly
    // possiblyContains(h) for every face at once, one word per 64 faces.
    bool first = true;
    const bool candidates = probes_.forEachProbeWhile(h, [&](std::size_t idx) {
      const std::uint64_t* row = &planes_[idx * W];
      std::uint64_t any = 0;
      for (std::size_t w = 0; w < W; ++w) {
        const std::uint64_t v = first ? row[w] : (sweepHit_[w] & row[w]);
        sweepHit_[w] = v;
        any |= v;
      }
      first = false;
      return any != 0;
    });
    if (!candidates) continue;
    for (std::size_t w = 0; w < W; ++w) {
      // A face is decided at its first passing hash, in prefix order.
      std::uint64_t newly = sweepHit_[w] & ~sweepMatched_[w];
      if (prunes) newly &= ~sweepPruned_[cd * W + w];
      for (std::uint64_t bits = newly; bits != 0; bits &= bits - 1) {
        const unsigned b = static_cast<unsigned>(__builtin_ctzll(bits));
        if (slotEntry_[w * 64 + b]->holds(h)) continue;
        // Bloom mode: the face matches anyway, a false positive. Exact mode:
        // it does not match at this level.
        if (opts_.useBloom) {
          ++bloomFalsePositives_;
        } else {
          newly &= ~(1ull << b);
        }
      }
      sweepMatched_[w] |= newly;
    }
  }
  // Emit in table_ (ascending face) order.
  for (const auto& [face, e] : table_) {
    if (face != excludeFace && (sweepMatched_[e.slot / 64] & (1ull << (e.slot % 64)))) {
      out.push_back(face);
    }
  }
}

bool SubscriptionTable::hasIntersectingSubscription(const Name& cd) const {
  for (const auto& [face, e] : table_) {
    (void)face;
    for (const Sub& s : e.subs) {
      if (s.cd.isPrefixOf(cd) || cd.isPrefixOf(s.cd)) return true;
    }
  }
  return false;
}

void SubscriptionTable::prune(NodeId face, const Name& cd) {
  const auto it = table_.find(face);
  if (it == table_.end()) return;
  FaceEntry& e = it->second;
  if (std::find(e.pruned.begin(), e.pruned.end(), cd) == e.pruned.end()) {
    e.pruned.push_back(cd);
    (void)e.pruned.back().hash();  // cache it for the sweep
  }
  updatePrunedBit(e);
  bumpVersion();
}

bool SubscriptionTable::isPruned(NodeId face, const Name& cd) const {
  const auto it = table_.find(face);
  if (it == table_.end()) return false;
  const auto& pruned = it->second.pruned;
  return std::find(pruned.begin(), pruned.end(), cd) != pruned.end();
}

std::vector<NodeId> SubscriptionTable::faces() const {
  std::vector<NodeId> out;
  out.reserve(table_.size());
  for (const auto& [face, entry] : table_) {
    (void)entry;
    out.push_back(face);
  }
  return out;
}

std::vector<Name> SubscriptionTable::cdsOnFace(NodeId face) const {
  std::vector<Name> out;
  const auto it = table_.find(face);
  if (it == table_.end()) return out;
  out.reserve(it->second.subs.size());
  for (const Sub& s : it->second.subs) out.push_back(s.cd);
  std::sort(out.begin(), out.end());
  return out;
}

bool SubscriptionTable::faceSubscribed(NodeId face, const Name& cd) const {
  const auto it = table_.find(face);
  return it != table_.end() && it->second.indexOf(cd, cd.hash()) != it->second.subs.size();
}

bool SubscriptionTable::bloomMightContain(NodeId face, const Name& cd) const {
  const auto it = table_.find(face);
  if (it == table_.end()) return false;
  if (!opts_.useBloom) return it->second.indexOf(cd, cd.hash()) != it->second.subs.size();
  return it->second.bloom.possiblyContains(cd);
}

double SubscriptionTable::predictedFalsePositiveRate(NodeId face) const {
  const auto it = table_.find(face);
  if (it == table_.end()) return 0.0;
  return it->second.bloom.predictedFalsePositiveRate();
}

void SubscriptionTable::corruptBloomForAudit(NodeId face, const Name& cd) {
  const auto it = table_.find(face);
  if (it == table_.end()) return;
  it->second.bloom.remove(cd);
  syncPlanes(it->second, cd.hash());
  bumpVersion();
}

std::size_t SubscriptionTable::entryCount() const {
  std::size_t n = 0;
  for (const auto& [face, entry] : table_) {
    (void)face;
    n += entry.subs.size();
  }
  return n;
}

}  // namespace gcopss::copss
