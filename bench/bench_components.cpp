// Component microbenchmarks (google-benchmark): the per-packet operations
// whose costs parameterize the simulator — ST Bloom matching, FIB LPM, PIT
// insert/consume, name parsing/hashing, and raw event-queue throughput.

#include <benchmark/benchmark.h>

#include "common/name.hpp"
#include "copss/packets.hpp"
#include "copss/st.hpp"
#include "des/simulator.hpp"
#include "game/map.hpp"
#include "ndn/fib.hpp"
#include "ndn/pit.hpp"

using namespace gcopss;

namespace {

std::vector<Name> gameLeafCds() {
  game::GameMap map({5, 5});
  return map.leafCds();
}

void BM_NameParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(Name::parse("/1/2/3/object/42"));
  }
}
BENCHMARK(BM_NameParse);

void BM_NameHash(benchmark::State& state) {
  const Name n = Name::parse("/1/2/3/object/42");
  for (auto _ : state) benchmark::DoNotOptimize(n.hash());
}
BENCHMARK(BM_NameHash);

// ST match on the hash-at-first-hop inputs the paper proposes, through the
// one production path (the per-tick cache replays the repeated publication).
void BM_StMatchHashed(benchmark::State& state) {
  copss::SubscriptionTable st;
  const auto cds = gameLeafCds();
  for (int face = 0; face < static_cast<int>(state.range(0)); ++face) {
    for (const auto& cd : cds) st.subscribe(face, cd);
  }
  const copss::MulticastPacket pkt({Name::parse("/1/2")}, 100, 0, 1, 0);
  std::vector<NodeId> faces;
  for (auto _ : state) {
    st.matchFacesHashedInto(pkt.cds, pkt.prefixHashes, pkt.matchKey, kInvalidNode, faces);
    benchmark::DoNotOptimize(faces.data());
  }
}
BENCHMARK(BM_StMatchHashed)->Arg(4)->Arg(16);

void BM_FibLpm(benchmark::State& state) {
  NameTable names;
  ndn::Fib fib(names);
  const auto cds = gameLeafCds();
  for (std::size_t i = 0; i < cds.size(); ++i) {
    fib.insert(cds[i], static_cast<NodeId>(i % 8));
  }
  // The per-Interest call: an interned CD, as every router resolves it.
  const NameId probe = names.intern(Name::parse("/3/4"));
  for (auto _ : state) benchmark::DoNotOptimize(fib.lpmFaces(probe));
}
BENCHMARK(BM_FibLpm);

void BM_PitInsertConsume(benchmark::State& state) {
  ndn::Pit pit;
  const Name n = Name::parse("/player/17/u/12345");
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    pit.insert(n, 1, ++nonce, 0);
    benchmark::DoNotOptimize(pit.consume(n, 0));
  }
}
BENCHMARK(BM_PitInsertConsume);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int sink = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule(i, [&sink]() { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueThroughput);

}  // namespace

BENCHMARK_MAIN();
