#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "net/topology.hpp"

namespace gcopss {

// Vivaldi decentralized network coordinates (Dabek et al., SIGCOMM 2004) —
// the mechanism Section IV-B cites for selecting new RPs without a central
// view of the topology. 2-D Euclidean coordinates plus a non-negative height
// (modeling access-link delay); each node adjusts its coordinate after every
// RTT observation, weighted by the relative confidence of the two nodes.
struct Coordinate {
  double x = 0.0;
  double y = 0.0;
  double height = 0.0;
};

class VivaldiSystem {
 public:
  // `seed` drives the random push apart of coincident coordinates.
  VivaldiSystem(std::size_t nodeCount, std::uint64_t seed);

  // Node i measured `rttMs` to node j and adjusts its own coordinate using
  // j's current coordinate and confidence.
  void observe(std::size_t i, std::size_t j, double rttMs);

  // Predicted latency between two nodes, in the same unit as the inputs.
  double predict(std::size_t i, std::size_t j) const;

  const Coordinate& coordinate(std::size_t i) const { return coords_.at(i); }
  double errorEstimate(std::size_t i) const { return errors_.at(i); }
  std::size_t size() const { return coords_.size(); }

 private:
  std::vector<Coordinate> coords_;
  std::vector<double> errors_;
  Rng rng_;
};

// Embed a node set of `topo` into Vivaldi space by running `rounds` rounds
// in which every node measures a few random peers (using the topology's
// true path delays as RTT/2). Returns the converged system.
VivaldiSystem embedTopology(const Topology& topo, const std::vector<NodeId>& nodes,
                            Rng& rng, std::size_t rounds = 40,
                            std::size_t peersPerRound = 4);

// The paper's decentralized RP-selection: rank `candidates` by their
// Vivaldi-predicted total distance to `attachPoints` and return the best
// `n`, most central first. A coordinate-only analogue of exact closeness
// centrality — no global topology knowledge required.
std::vector<NodeId> vivaldiCentral(const Topology& topo,
                                   const std::vector<NodeId>& candidates,
                                   const std::vector<NodeId>& attachPoints, Rng& rng,
                                   std::size_t n);

}  // namespace gcopss
