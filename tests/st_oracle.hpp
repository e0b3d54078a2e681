#pragma once

// Scalar reference model of SubscriptionTable's match, written only against
// its public audit API. Per face (ascending, minus the arrival face), walk
// every prefix level of every carried CD that is not pruned on the face; the
// first level the face's filter passes matches the face, and counts as a
// Bloom false positive unless the face subscribes to exactly that level.
//
// "The face's filter" is the model's own (modelMightContain): the bits the
// face's live CDs set under the table's probe geometry, rebuilt from
// cdsOnFace — never the production bits, which it exists to check. In exact
// mode it is the exact store, so nothing is charged.

#include <cstdint>
#include <vector>

#include "common/bloom.hpp"
#include "copss/st.hpp"

namespace gcopss::test {

// Would a filter holding exactly `face`'s live CDs pass `cd`?
inline bool modelMightContain(const copss::SubscriptionTable& st, NodeId face,
                              const Name& cd) {
  if (!st.options().useBloom) return st.faceSubscribed(face, cd);
  const BloomProbeSchedule probes(st.options().bloomBits, st.options().bloomHashes);
  std::vector<bool> bits(probes.bits(), false);
  for (const Name& live : st.cdsOnFace(face)) {
    probes.forEachProbe(live.hash(), [&bits](std::size_t idx) { bits[idx] = true; });
  }
  return probes.forEachProbeWhile(cd.hash(), [&bits](std::size_t idx) { return bits[idx]; });
}

struct OracleMatch {
  std::vector<NodeId> faces;
  std::uint64_t falsePositives = 0;
};

inline OracleMatch oracleMatch(const copss::SubscriptionTable& st,
                               const std::vector<Name>& cds, NodeId exclude) {
  OracleMatch m;
  for (NodeId face : st.faces()) {
    if (face == exclude) continue;
    [&] {
      for (const Name& cd : cds) {
        if (st.isPruned(face, cd)) continue;
        for (std::size_t len = 0; len <= cd.size(); ++len) {
          const Name p = cd.prefix(len);
          if (!modelMightContain(st, face, p)) continue;
          m.faces.push_back(face);
          if (!st.faceSubscribed(face, p)) ++m.falsePositives;
          return;
        }
      }
    }();
  }
  return m;
}

}  // namespace gcopss::test
