#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "check/invariants.hpp"
#include "copss/deploy.hpp"
#include "copss/router.hpp"
#include "des/simulator.hpp"
#include "game/map.hpp"
#include "gcopss/client.hpp"
#include "net/network.hpp"
#include "net/topo_factory.hpp"

namespace gcopss::test {

// A small G-COPSS world for integration tests: a line of COPSS routers with
// one client per router, all wiring done explicitly so tests can poke at any
// table. Layout: client[i] -- router[i] -- router[i+1] ...
//
// Every world runs under the invariant checker (src/check): by default only
// the packet-conservation ledger, audited when the world is torn down, so
// the whole suite continuously proves no packet copy is ever lost without an
// accounted reason. Call enableFullAudit() for the protocol-state invariants
// (RP ownership, ST soundness, loop freedom, delivery).
struct LineWorld {
  explicit LineWorld(std::size_t routerCount,
                     copss::CopssRouter::Options opts = {},
                     SimParams params = SimParams::largeScale(),
                     bool ring = false) {
    sim = std::make_unique<Simulator>();
    topo = std::make_unique<Topology>();
    for (std::size_t i = 0; i < routerCount; ++i) {
      routerIds.push_back(topo->addNode("R" + std::to_string(i)));
      if (i > 0) topo->addLink(routerIds[i - 1], routerIds[i], ms(1));
    }
    if (ring && routerCount > 2) {
      topo->addLink(routerIds.back(), routerIds.front(), ms(1));
    }
    for (std::size_t i = 0; i < routerCount; ++i) {
      clientIds.push_back(topo->addNode("C" + std::to_string(i)));
      topo->addLink(clientIds[i], routerIds[i], ms(1));
    }
    net = std::make_unique<Network>(*sim, *topo, params);
    for (std::size_t i = 0; i < routerCount; ++i) {
      routers.push_back(&net->emplaceNode<copss::CopssRouter>(routerIds[i], *net, opts));
    }
    for (std::size_t i = 0; i < routerCount; ++i) {
      clients.push_back(
          &net->emplaceNode<gc::GCopssClient>(clientIds[i], *net, routerIds[i]));
      routers[i]->markHostFace(clientIds[i]);
    }
    check::InvariantChecker::Options conservationOnly;
    conservationOnly.checkPrefixFree = false;
    conservationOnly.checkStSoundness = false;
    conservationOnly.checkLoopFreedom = false;
    checker = std::make_unique<check::InvariantChecker>(*net, routers, clients,
                                                        conservationOnly);
  }

  ~LineWorld() {
    if (!checker) return;
    checker->finalAudit();
    if (!expectViolations && !checker->ok()) {
      ADD_FAILURE() << checker->reportText();
    }
  }

  // Replace the default conservation-only checker with a fully-optioned one.
  // Call before any traffic runs (the ledgers restart from now).
  check::InvariantChecker& enableFullAudit(check::InvariantChecker::Options opts = {}) {
    checker.reset();  // release the observer slot first
    checker = std::make_unique<check::InvariantChecker>(*net, routers, clients,
                                                        std::move(opts));
    return *checker;
  }

  void installAssignment(const copss::RpAssignment& a) {
    copss::installAssignment(*net, routerIds, a);
    for (auto* r : routers) r->setRpCandidates(routerIds);
  }

  // Intern CDs the test publishes before any traffic, as the harnesses do
  // with their map's CDs. A split that routes one of them mid-run then lies
  // on the parent chain of every Interest already carrying it, and on a
  // worker lane the FIB may only look names up.
  void internCds(const std::vector<Name>& cds) {
    for (const Name& cd : cds) net->names().intern(cd);
  }

  // Make router `rp` the RP for the root prefix (serves every CD).
  void singleRootRp(std::size_t rp) {
    copss::RpAssignment a;
    a.prefixToRp[Name()] = routerIds[rp];
    installAssignment(a);
  }

  std::unique_ptr<Simulator> sim;
  std::unique_ptr<Topology> topo;
  std::unique_ptr<Network> net;
  std::vector<NodeId> routerIds;
  std::vector<NodeId> clientIds;
  std::vector<copss::CopssRouter*> routers;
  std::vector<gc::GCopssClient*> clients;
  // Negative tests provoke violations on purpose; set this so teardown does
  // not fail the test for them.
  bool expectViolations = false;
  // Declared last: the checker detaches from `net` before `net` dies.
  std::unique_ptr<check::InvariantChecker> checker;
};

// Records (receiverIndex, publicationSeq) pairs.
struct DeliveryLog {
  std::set<std::pair<std::size_t, std::uint64_t>> delivered;

  void attach(LineWorld& w) {
    for (std::size_t i = 0; i < w.clients.size(); ++i) {
      w.clients[i]->setMulticastCallback(
          [this, i](const copss::MulticastPacket& m, SimTime) {
            delivered.emplace(i, m.seq);
          });
    }
  }

  bool got(std::size_t receiver, std::uint64_t seq) const {
    return delivered.count({receiver, seq}) > 0;
  }
  std::size_t countFor(std::size_t receiver) const {
    std::size_t n = 0;
    for (const auto& [r, s] : delivered) {
      (void)s;
      if (r == receiver) ++n;
    }
    return n;
  }
};

}  // namespace gcopss::test
