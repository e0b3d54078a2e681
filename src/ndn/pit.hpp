#pragma once

#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/name.hpp"
#include "common/units.hpp"
#include "net/packet.hpp"

namespace gcopss::ndn {

// Pending Interest Table. Entries are exact-name keyed (as in NDN: Data
// consumes the Interest with the matching name); repeated Interests from new
// faces aggregate into the existing entry, and nonces suppress loops.
class Pit {
 public:
  explicit Pit(SimTime entryLifetime = seconds(4)) : lifetime_(entryLifetime) {}

  enum class InsertResult {
    Forward,     // new entry: forward the Interest upstream
    Aggregated,  // entry existed: face recorded, do not forward
    DuplicateNonce,  // looped Interest: drop
  };

  InsertResult insert(const Name& name, NodeId fromFace, std::uint64_t nonce,
                      SimTime now);

  // Consume the entry for `name`, returning the downstream faces the Data
  // must be sent to. Empty if no (live) entry.
  std::vector<NodeId> consume(const Name& name, SimTime now);

  std::size_t size() const { return table_.size(); }

 private:
  struct Entry {
    std::set<NodeId> inFaces;
    std::unordered_set<std::uint64_t> nonces;
    SimTime expiry = 0;
  };
  std::unordered_map<Name, Entry, NameHash> table_;
  SimTime lifetime_;
};

}  // namespace gcopss::ndn
