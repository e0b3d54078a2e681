// bench_core — throughput harness for the bare event loop.
//
// 64 self-rescheduling strands whose handlers carry ~32-byte captures (the
// size class of the network hot path's transmit/enqueueCpu lambdas),
// measuring events/sec, ns/event and — via a global operator new
// interposer — allocations/event. Two rows:
//   loop        the strands alone; every delay falls in one 1-997 ns band.
//   far_timers  the same strands and event budget beside 2,000 no-op timers
//               scheduled at setup across 1-20 simulated seconds, the shape
//               of hotspot_churn's player moves pre-scheduled at world-ready:
//               a pending set spanning seconds around a nanosecond-dense band.
// Fig. 6's host cost (wall time, allocations per delivery, peak RSS,
// certified by the exactly-once delivery audit) is measured by perfbench's
// fig6_static workload.
//
// Usage: bench_core [--quick] [--out PATH]
//   --quick  CI-sized run (10x fewer events); same schema, field "mode": "quick"
//   --out    where to write the JSON (default bench_results/BENCH_core.json)
//
// The committed /BENCH_core.json keeps a --quick run of this harness as
// "quick_reference", beside a perfbench fig6_static line; scripts/bench_check.py
// gates fresh runs of both against it. Before/after legs of a change are two
// git revisions of this binary, interleaved by scripts/bench_ab.sh.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <new>
#include <string>

#include "bench_common.hpp"
#include "common/hash.hpp"
#include "des/simulator.hpp"

// ---------------------------------------------------------------------------
// Global allocation interposer. Single-threaded process (the DES is serial),
// so plain counters are exact. Replacing these signatures covers every
// new/delete in the binary, including the standard library's.
//
// GCC inlines the malloc-backed replacements into callers and then flags the
// (correct) malloc/free pairing as a new/delete mismatch; silence that false
// positive for this TU only.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::uint64_t g_news = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void* operator new(std::size_t n, std::align_val_t al) {
  ++g_news;
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t al) noexcept { ::operator delete(p, al); }
void operator delete(void* p, std::size_t, std::align_val_t al) noexcept {
  ::operator delete(p, al);
}
void operator delete[](void* p, std::size_t, std::align_val_t al) noexcept {
  ::operator delete(p, al);
}

namespace {

using namespace gcopss;

double wallSeconds(std::chrono::steady_clock::time_point a,
                   std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Measurement {
  std::uint64_t events = 0;
  double wallSec = 0.0;
  std::uint64_t allocs = 0;

  double eventsPerSec() const { return wallSec > 0 ? static_cast<double>(events) / wallSec : 0; }
  double nsPerEvent() const {
    return events > 0 ? wallSec * 1e9 / static_cast<double>(events) : 0;
  }
  double allocsPerEvent() const {
    return events > 0 ? static_cast<double>(allocs) / static_cast<double>(events) : 0;
  }
};

// ---- the event loop ---------------------------------------------------

struct Strand {
  std::uint64_t remaining = 0;
  std::uint64_t state = 0;
};

struct LoopWorld {
  Simulator sim;
  std::vector<Strand> strands;
};

// Handler functor sized like the network hot path's captures (this pointer,
// two face ids, a packet pointer): 32 bytes — larger than libstdc++
// std::function's inline buffer, so the heap cost it models is real.
struct Tick {
  LoopWorld* w;
  std::uint64_t idx;
  std::uint64_t salt;
  std::uint64_t salt2;
  void operator()() const {
    Strand& s = w->strands[idx];
    if (s.remaining == 0) return;
    --s.remaining;
    s.state = mix64(s.state ^ salt ^ salt2);
    w->sim.schedule(static_cast<SimTime>(s.state % 997) + 1, Tick{w, idx, s.state, ~s.state});
  }
};
static_assert(sizeof(Tick) == 32);

Measurement runEventLoop(std::uint64_t totalEvents, std::uint64_t farTimers) {
  LoopWorld w;
  constexpr std::size_t kStrands = 64;
  w.strands.resize(kStrands);
  for (std::size_t i = 0; i < kStrands; ++i) {
    w.strands[i] = {totalEvents / kStrands, 0x9e3779b97f4a7c15ULL * (i + 1)};
    w.sim.scheduleAt(static_cast<SimTime>(i), Tick{&w, i, w.strands[i].state, 0});
  }
  for (std::uint64_t i = 0; i < farTimers; ++i) {
    w.sim.scheduleAt(seconds(1) + static_cast<SimTime>(mix64(i + 1) % seconds(19)), [] {});
  }
  const std::uint64_t allocs0 = g_news;
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t ran = w.sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  Measurement m;
  m.events = ran;
  m.wallSec = wallSeconds(t0, t1);
  m.allocs = g_news - allocs0;
  return m;
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
  if (outPath.empty()) outPath = bench::resultPath("BENCH_core.json");

  bench::printHeader("core event-loop throughput", "perf harness; not a paper figure");

  const std::uint64_t loopEvents = quick ? 400'000 : 4'000'000;
  struct Row {
    const char* name;
    std::uint64_t farTimers;
    Measurement m;
  };
  Row rows[] = {{"loop", 0, {}}, {"far_timers", 2'000, {}}};
  for (Row& r : rows) {
    std::printf("event-loop microbench %s: %llu events + %llu far timers...\n", r.name,
                static_cast<unsigned long long>(loopEvents),
                static_cast<unsigned long long>(r.farTimers));
    std::fflush(stdout);
    r.m = runEventLoop(loopEvents, r.farTimers);
    std::printf("      %.0f events/sec, %.1f ns/event, %.3f allocs/event\n", r.m.eventsPerSec(),
                r.m.nsPerEvent(), r.m.allocsPerEvent());
  }

  std::FILE* f = std::fopen(outPath.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"gcopss-bench-core-v3\",\n"
               "  \"mode\": \"%s\",\n"
               "  \"event_loop\": {\n",
               quick ? "quick" : "full");
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    \"%s\": {\n"
                 "      \"events\": %llu,\n"
                 "      \"wall_sec\": %.6f,\n"
                 "      \"events_per_sec\": %.1f,\n"
                 "      \"ns_per_event\": %.2f,\n"
                 "      \"allocs\": %llu,\n"
                 "      \"allocs_per_event\": %.4f\n"
                 "    }%s\n",
                 r.name, static_cast<unsigned long long>(r.m.events), r.m.wallSec,
                 r.m.eventsPerSec(), r.m.nsPerEvent(), static_cast<unsigned long long>(r.m.allocs),
                 r.m.allocsPerEvent(), i + 1 < std::size(rows) ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("(JSON written to %s)\n", outPath.c_str());
  return 0;
}
