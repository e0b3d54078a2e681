// bench_parallel — serial-vs-parallel throughput on the Fig. 6 scaling
// scenario (400 players, 3 RPs), the multithreaded-DES companion row to
// bench_core's serial numbers.
//
// One run per engine config: the classic serial Simulator, then the
// ParallelSimulator at 1, 2 and 4 worker shards. Every run replays the same
// trace, and the harness requires each to reproduce the serial run exactly:
// deliveries, link packets, events, and the p50/p99/max latency (all three
// come from the same multiset of delivery samples). A config that drifts
// fails the bench, so the speedup numbers are certified to be for the
// *same computation*, not a cheaper approximation.
//
// Usage: bench_parallel [--quick] [--out PATH]
//   --quick  CI-sized run (~10x smaller); same schema, field "mode": "quick"
//   --out    where to write the JSON (default bench_results/BENCH_parallel.json)
//
// The committed /BENCH_parallel.json records a full run; scripts/bench_check.py
// gates the threads=4 speedup at >= 1.3x over serial, but only when the
// recording host had >= 4 hardware threads ("hw_threads" in the JSON) — a
// 1-core container can execute the suite, it just cannot certify scaling.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace gcopss;
using namespace gcopss::gc;

struct Row {
  std::size_t threads = 0;  // 0 = serial engine
  RunSummary summary;
  double wallSec = 0.0;

  double eventsPerSec() const {
    return wallSec > 0 ? static_cast<double>(summary.eventsExecuted) / wallSec : 0;
  }
};

Row runOnce(const game::GameMap& map, const trace::Trace& trace, std::size_t threads) {
  GCopssRunConfig g;
  g.numRps = 3;
  g.threads = threads;
  Row row;
  row.threads = threads;
  const auto t0 = std::chrono::steady_clock::now();
  row.summary = runGCopssTrace(map, trace, g);
  const auto t1 = std::chrono::steady_clock::now();
  row.wallSec = std::chrono::duration<double>(t1 - t0).count();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string outPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  if (outPath.empty()) outPath = bench::resultPath("BENCH_parallel.json");

  bench::printHeader("serial vs parallel DES (Fig. 6 scenario @ 400 players)",
                     "perf harness; not a paper figure");

  const unsigned hwThreads = std::thread::hardware_concurrency();
  const SimTime duration = quick ? seconds(3) : seconds(30);
  std::printf("host: %u hardware threads; sim horizon %lld s\n", hwThreads,
              static_cast<long long>(duration / kSecond));

  const auto map = bench::paperMap();
  const auto db = bench::paperObjects(map);
  trace::CsTraceConfig tcfg;
  tcfg.players = 400;
  tcfg.meanInterArrival = static_cast<SimTime>(usF(2400) * 414.0 / 400.0);
  tcfg.totalUpdates = static_cast<std::size_t>(duration / tcfg.meanInterArrival);
  tcfg.seed = 42 + tcfg.players;
  const auto trace = trace::generateCsTrace(map, db, tcfg);

  const std::size_t configs[] = {0, 1, 2, 4};
  std::vector<Row> rows;
  for (std::size_t threads : configs) {
    if (threads == 0) {
      std::printf("[%zu/4] serial engine...\n", rows.size() + 1);
    } else {
      std::printf("[%zu/4] parallel, %zu shard(s)...\n", rows.size() + 1, threads);
    }
    std::fflush(stdout);
    rows.push_back(runOnce(map, trace, threads));
    const Row& r = rows.back();
    std::printf("      %.0f events/sec (%.2f s wall), %llu deliveries, mean %.2f ms\n",
                r.eventsPerSec(), r.wallSec,
                static_cast<unsigned long long>(r.summary.deliveries), r.summary.meanMs);
  }

  // Equivalence gate: the parallel engine must reproduce the serial run.
  const Row& serial = rows[0];
  bool identical = true;
  for (const Row& r : rows) {
    const RunSummary& a = r.summary;
    const RunSummary& b = serial.summary;
    if (a.deliveries != b.deliveries || a.linkPackets != b.linkPackets ||
        a.eventsExecuted != b.eventsExecuted || a.p50Ms != b.p50Ms || a.p99Ms != b.p99Ms ||
        a.maxMs != b.maxMs) {
      identical = false;
      std::fprintf(stderr,
                   "MISMATCH threads=%zu: deliveries %llu vs %llu, linkPackets %llu vs %llu, "
                   "events %llu vs %llu, p50 %.9g vs %.9g, p99 %.9g vs %.9g, max %.9g vs %.9g "
                   "ms\n",
                   r.threads, static_cast<unsigned long long>(a.deliveries),
                   static_cast<unsigned long long>(b.deliveries),
                   static_cast<unsigned long long>(a.linkPackets),
                   static_cast<unsigned long long>(b.linkPackets),
                   static_cast<unsigned long long>(a.eventsExecuted),
                   static_cast<unsigned long long>(b.eventsExecuted), a.p50Ms, b.p50Ms,
                   a.p99Ms, b.p99Ms, a.maxMs, b.maxMs);
    }
  }
  std::printf("equivalence: %s\n", identical ? "all configs bit-equal to serial" : "MISMATCH");

  std::FILE* f = std::fopen(outPath.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": \"gcopss-bench-parallel-v1\",\n  \"mode\": \"%s\",\n",
               quick ? "quick" : "full");
  std::fprintf(f, "  \"hw_threads\": %u,\n  \"identical\": %s,\n", hwThreads,
               identical ? "true" : "false");
  std::fprintf(f, "  \"fig6\": {\n    \"players\": 400,\n    \"sim_seconds\": %lld,\n",
               static_cast<long long>(duration / kSecond));
  std::fprintf(f, "    \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "      {\"threads\": %zu, \"events\": %llu, \"wall_sec\": %.6f, "
                 "\"events_per_sec\": %.1f, \"deliveries\": %llu, "
                 "\"link_packets\": %llu, \"mean_latency_ms\": %.3f, "
                 "\"p50_latency_ms\": %.6f, \"p99_latency_ms\": %.6f, "
                 "\"max_latency_ms\": %.6f, \"speedup_vs_serial\": %.3f}%s\n",
                 r.threads, static_cast<unsigned long long>(r.summary.eventsExecuted),
                 r.wallSec, r.eventsPerSec(),
                 static_cast<unsigned long long>(r.summary.deliveries),
                 static_cast<unsigned long long>(r.summary.linkPackets), r.summary.meanMs,
                 r.summary.p50Ms, r.summary.p99Ms, r.summary.maxMs,
                 serial.wallSec > 0 ? serial.wallSec / r.wallSec : 0.0,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }\n}\n");
  std::fclose(f);
  std::printf("(JSON written to %s)\n", outPath.c_str());

  return identical ? 0 : 1;
}
