#pragma once

// The benchmark's workloads: their generated inputs and their run
// configuration. All three replay the paper's evaluation world (1 world,
// 5 regions, 25 zones, 3,197 objects), 400 players, on the Rocketfuel-like
// backbone (79 core + 158 edge routers, one fixed topology) with the
// synthetic Counter-Strike trace.

#include <cstdint>
#include <string>
#include <vector>

#include "game/map.hpp"
#include "game/movement.hpp"
#include "game/objects.hpp"
#include "gcopss/experiment.hpp"
#include "trace/trace.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  // Engine shards for the measured runs (0 = serial Simulator).
  std::size_t threads = 0;
  // Dynamic RP balancing from a single root RP, 10 Mb/s DropTail links,
  // hot spot halfway through, and player moves driving (un)subscribes.
  bool churn = false;
  // Simulated trace length. The churn workload runs longer: over 10 s its
  // latency tail and footprint hinge on when its one to three RP splits land,
  // which varies from seed to seed; over 20 s they settle.
  std::int64_t simSeconds = 10;
};

// Known workload by name; returns false for an unknown one.
bool findWorkload(const std::string& name, Workload& out);

// Everything a run consumes, generated from the workload seed.
struct Inputs {
  gcopss::game::GameMap map;
  gcopss::game::ObjectDatabase db;
  gcopss::trace::Trace trace;
  std::vector<gcopss::game::Move> moves;  // empty unless the workload churns
  double genSeconds = 0.0;                // host time spent generating
};

Inputs makeInputs(const Workload& w, std::uint64_t seed);

// Run configuration. `threads` overrides the workload's engine (the audited
// and traced passes always run serial: packet observers are serial-only).
gcopss::gc::GCopssRunConfig makeConfig(const Workload& w, std::size_t threads);

// Schedule every move of `in` on the run's simulator. Call from onWorldReady.
void scheduleMoves(const Inputs& in, const gcopss::gc::GCopssRunConfig& cfg,
                   const gcopss::gc::GCopssRunConfig::WorldView& world);

}  // namespace perfbench
