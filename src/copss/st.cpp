#include "copss/st.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/thread_annotations.hpp"
#include "copss/packets.hpp"

namespace gcopss::copss {

SubscriptionTable::SubscriptionTable(Options opts)
    : opts_(opts), probes_(opts.bloomBits, opts.bloomHashes), cache_(kCacheLines) {
  assert(opts.bloomBits > 0 && opts.bloomHashes > 0);
}

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

// --- per-face Bloom bits ------------------------------------------------------

bool SubscriptionTable::bloomPasses(const FaceEntry& e, std::uint64_t h) const {
  return probes_.forEachProbeWhile(
      h, [&e](std::size_t idx) { return ((e.bloom[idx / 64] >> (idx % 64)) & 1) != 0; });
}

void SubscriptionTable::resyncBits(FaceEntry& e, const Name& gone) {
  const std::uint64_t h = gone.hash();
  probes_.forEachProbe(h, [&](std::size_t idx) {
    bool live = false;
    for (const Sub& s : e.subs) {
      if (s.hash == h && s.cd == gone) continue;
      live = !probes_.forEachProbeWhile(s.hash, [idx](std::size_t j) { return j != idx; });
      if (live) break;
    }
    const std::uint64_t bit = 1ull << (idx % 64);
    e.bloom[idx / 64] = live ? e.bloom[idx / 64] | bit : e.bloom[idx / 64] & ~bit;
  });
}

// --- subscription state ---------------------------------------------------

bool SubscriptionTable::subscribe(NodeId face, const Name& cd) {
  auto it = table_.find(face);
  if (it == table_.end()) {
    it = table_.emplace(face, FaceEntry(opts_.bloomBits)).first;
  }
  FaceEntry& e = it->second;
  const std::uint64_t h = cd.hash();
  const std::size_t i = e.indexOf(cd, h);
  const bool fresh = i == e.subs.size();
  if (fresh) {
    e.subs.insert(e.lowerBound(h), Sub{h, cd, 1});
    probes_.forEachProbe(h, [&e](std::size_t idx) { e.bloom[idx / 64] |= 1ull << (idx % 64); });
  } else {
    ++e.subs[i].refs;
  }
  // A fresh subscription clears prunes of this CD and of anything below it.
  std::erase_if(e.pruned, [&cd](const Name& p) { return cd.isPrefixOf(p); });
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
    resyncBits(e, cd);
    e.subs.erase(e.subs.begin() + static_cast<std::ptrdiff_t>(i));
    if (e.subs.empty()) table_.erase(it);
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
  walkMatchInto(cds, prefixHashes, excludeFace, out);
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

GCOPSS_HOT void SubscriptionTable::walkMatchInto(const std::vector<Name>& cds,
                                      const std::vector<std::uint64_t>& prefixHashes,
                                      NodeId excludeFace, std::vector<NodeId>& out) const {
  // Ascending face order, from the ordered table_; the arrival face is never
  // evaluated, so it is never charged a false positive either.
  for (const auto& [face, e] : table_) {
    if (face != excludeFace && faceMatches(e, cds, prefixHashes)) out.push_back(face);
  }
}

GCOPSS_HOT bool SubscriptionTable::faceMatches(
    const FaceEntry& e, const std::vector<Name>& cds,
    const std::vector<std::uint64_t>& prefixHashes) const {
  // Each carried CD owns a run of cd.size() + 1 prefix hashes ending in its
  // own hash. A CD pruned on this face skips its whole run; the prune is
  // found by that last hash, so no Name is hashed here (packet Names are
  // shared across shards).
  std::size_t runStart = 0;
  for (const Name& cd : cds) {
    const std::size_t runEnd = runStart + cd.size() + 1;
    const std::uint64_t cdHash = prefixHashes[runEnd - 1];
    const bool pruned = std::any_of(e.pruned.begin(), e.pruned.end(),
                                    [cdHash](const Name& p) { return p.hash() == cdHash; });
    for (std::size_t j = runStart; j < runEnd && !pruned; ++j) {
      const std::uint64_t h = prefixHashes[j];
      // The face is decided at its first passing hash, in prefix order. A
      // pass the exact store does not back is a false positive in Bloom
      // mode, and no match at this level in exact mode.
      if (!bloomPasses(e, h)) continue;
      if (e.holds(h)) return true;
      if (opts_.useBloom) {
        ++bloomFalsePositives_;
        return true;
      }
    }
    runStart = runEnd;
  }
  return false;
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
    (void)e.pruned.back().hash();  // cache it for the walk
  }
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
  return bloomPasses(it->second, cd.hash());
}

double SubscriptionTable::predictedFalsePositiveRate(NodeId face) const {
  const auto it = table_.find(face);
  if (it == table_.end()) return 0.0;
  const double m = static_cast<double>(opts_.bloomBits);
  const double n = static_cast<double>(it->second.subs.size());
  const double k = static_cast<double>(opts_.bloomHashes);
  return std::pow(1.0 - std::exp(-k * n / m), k);
}

void SubscriptionTable::corruptBloomForAudit(NodeId face, const Name& cd) {
  const auto it = table_.find(face);
  if (it == table_.end()) return;
  resyncBits(it->second, cd);
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
