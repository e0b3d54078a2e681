#include "net/vivaldi.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace gcopss {

namespace {

// Dabek et al.'s adaptation gains: ce for the error estimate, cc for the
// coordinate step. Every node starts at full uncertainty.
constexpr double kCe = 0.25;
constexpr double kCc = 0.25;
constexpr double kInitialError = 1.0;

double planarNorm(const Coordinate& a, const Coordinate& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

VivaldiSystem::VivaldiSystem(std::size_t nodeCount, std::uint64_t seed)
    : coords_(nodeCount), errors_(nodeCount, kInitialError), rng_(seed) {}

double VivaldiSystem::predict(std::size_t i, std::size_t j) const {
  const Coordinate& a = coords_.at(i);
  const Coordinate& b = coords_.at(j);
  return planarNorm(a, b) + a.height + b.height;
}

void VivaldiSystem::observe(std::size_t i, std::size_t j, double rttMs) {
  if (i == j || rttMs <= 0.0) return;
  Coordinate& xi = coords_.at(i);
  const Coordinate& xj = coords_.at(j);
  double& ei = errors_.at(i);
  const double ej = errors_.at(j);

  const double w = ei / (ei + ej);            // confidence weight
  const double dist = predict(i, j);
  const double es = std::abs(dist - rttMs) / rttMs;  // relative sample error
  ei = es * kCe * w + ei * (1.0 - kCe * w);
  const double delta = kCc * w;

  // Unit vector from j to i in the plane; random direction when coincident.
  double ux = xi.x - xj.x;
  double uy = xi.y - xj.y;
  const double norm = std::sqrt(ux * ux + uy * uy);
  if (norm < 1e-9) {
    const double angle = rng_.uniform(0.0, 2.0 * M_PI);
    ux = std::cos(angle);
    uy = std::sin(angle);
  } else {
    ux /= norm;
    uy /= norm;
  }
  const double force = delta * (rttMs - dist);
  xi.x += force * ux;
  xi.y += force * uy;
  // Height absorbs the non-Euclidean access component, split evenly.
  xi.height = std::max(0.0, xi.height + force * 0.1);
}

VivaldiSystem embedTopology(const Topology& topo, const std::vector<NodeId>& nodes,
                            Rng& rng, std::size_t rounds, std::size_t peersPerRound) {
  VivaldiSystem vs(nodes.size(), rng.next());
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (std::size_t k = 0; k < peersPerRound; ++k) {
        const auto j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(nodes.size()) - 1));
        if (j == i) continue;
        vs.observe(i, j, toMs(topo.pathDelay(nodes[i], nodes[j])));
      }
    }
  }
  return vs;
}

std::vector<NodeId> vivaldiCentral(const Topology& topo,
                                   const std::vector<NodeId>& candidates,
                                   const std::vector<NodeId>& attachPoints, Rng& rng,
                                   std::size_t n) {
  // Embed candidates and attach points together.
  std::vector<NodeId> all = candidates;
  all.insert(all.end(), attachPoints.begin(), attachPoints.end());
  const VivaldiSystem vs = embedTopology(topo, all, rng);

  std::vector<std::pair<double, NodeId>> ranked;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    double total = 0.0;
    for (std::size_t a = 0; a < attachPoints.size(); ++a) {
      total += vs.predict(c, candidates.size() + a);
    }
    ranked.emplace_back(total, candidates[c]);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < std::min(n, ranked.size()); ++i) out.push_back(ranked[i].second);
  return out;
}

}  // namespace gcopss
