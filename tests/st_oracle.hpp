#pragma once

// Scalar reference model of SubscriptionTable's match, written only against
// its public audit API. Per face (ascending, minus the arrival face), walk
// every prefix level of every carried CD that is not pruned on the face; the
// first level the face's filter passes matches the face, and counts as a
// Bloom false positive unless the face subscribes to exactly that level. In
// exact mode bloomMightContain is the exact store, so nothing is charged.

#include <cstdint>
#include <vector>

#include "copss/st.hpp"

namespace gcopss::test {

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
          if (!st.bloomMightContain(face, p)) continue;
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
