#include "ndn/pit.hpp"

namespace gcopss::ndn {

Pit::InsertResult Pit::insert(const Name& name, NodeId fromFace,
                              std::uint64_t nonce, SimTime now) {
  auto& entry = table_[name];
  const bool fresh = entry.inFaces.empty() || entry.expiry <= now;
  if (fresh) {
    entry.inFaces.clear();
    entry.nonces.clear();
    entry.inFaces.insert(fromFace);
    entry.nonces.insert(nonce);
    entry.expiry = now + lifetime_;
    return InsertResult::Forward;
  }
  if (entry.nonces.count(nonce)) return InsertResult::DuplicateNonce;
  entry.nonces.insert(nonce);
  entry.expiry = now + lifetime_;
  if (!entry.inFaces.insert(fromFace).second) {
    // Same downstream face, fresh nonce: a consumer retransmission. It must
    // be forwarded again — the previous Data may have been consumed upstream
    // before this entry was refreshed, and suppressing it would livelock the
    // consumer (its own retransmissions would keep the stale entry alive).
    return InsertResult::Forward;
  }
  return InsertResult::Aggregated;
}

std::vector<NodeId> Pit::consume(const Name& name, SimTime now) {
  const auto it = table_.find(name);
  if (it == table_.end()) return {};
  std::vector<NodeId> faces;
  if (it->second.expiry > now) {
    faces.assign(it->second.inFaces.begin(), it->second.inFaces.end());
  }
  table_.erase(it);
  return faces;
}

}  // namespace gcopss::ndn
