#pragma once

#include <map>

#include "copss/router.hpp"
#include "game/map.hpp"
#include "game/objects.hpp"
#include "gcopss/client.hpp"

namespace gcopss::gc {

// A decentralized snapshot broker (Section IV-A): a router-co-located server
// that subscribes to the leaf CDs of its serving areas, folds every update
// into per-object snapshot sizes (Eq. 1), and serves movers through either
//   - QR: NDN Interests /snapshot/<leaf components>/o/<objId>, answered with
//     Data of the object's current snapshot size (cache-friendly, paper notes
//     router aggregation of concurrent queries), or
//   - cyclic multicast: the broker is the RP of /snap/<leaf components>; it
//     starts cycling through the leaf's objects on the first Subscribe and
//     stops once the last subscriber leaves.
class SnapshotBroker : public copss::CopssRouter {
 public:
  struct BrokerOptions {
    SimTime cycleInterval = usF(3000);  // broker pacing per cyclic object
    Bytes unchangedObjectBytes = 8;     // header-only for version-0 objects
  };

  SnapshotBroker(NodeId id, Network& net, Options opts, const game::GameMap& map,
                 game::ObjectDatabase db, std::vector<Name> servingLeafCds,
                 BrokerOptions bopts);

  // Subscribe to the serving leaf CDs and register the QR prefix handler.
  // Call after the CD routing tables are installed.
  void start();

  static Name qrPrefix(const Name& leafCd);                 // /snapshot/<leaf...>
  static Name qrName(const Name& leafCd, game::ObjectId o); // qrPrefix + /o/<id>
  static Name snapGroupCd(const Name& leafCd);              // /snap/<leaf...>

  const std::vector<Name>& servingLeafCds() const { return serving_; }
  const game::ObjectDatabase& snapshotDb() const { return db_; }
  Bytes objectBytes(game::ObjectId id) const;

  void handle(NodeId fromFace, const PacketPtr& pkt) override;

  std::uint64_t cyclicObjectsSent() const { return cyclicSent_; }
  std::uint64_t qrQueriesServed() const { return qrServed_; }
  std::uint64_t gameUpdatesApplied() const { return updatesApplied_; }

 private:
  void maybeStartCycle(const Name& leafCd);
  void emitCyclic(const Name& leafCd);
  void onQrInterest(const ndn::InterestPacketPtr& interest);

  const game::GameMap* map_;
  game::ObjectDatabase db_;  // this broker's snapshot view of its areas
  std::vector<Name> serving_;
  std::set<Name> servingSet_;
  BrokerOptions bopts_;

  struct CycleState {
    bool running = false;
    std::size_t nextIndex = 0;
  };
  std::map<Name, CycleState> cycles_;  // keyed by leaf CD

  std::uint64_t cyclicSent_ = 0;
  std::uint64_t qrServed_ = 0;
  std::uint64_t updatesApplied_ = 0;
};

}  // namespace gcopss::gc
