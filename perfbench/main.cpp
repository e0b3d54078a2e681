// perfbench — measurement passes of the simulator benchmark.
//
//   perfbench timed  --workload W --seed N --seconds S
//   perfbench traced --workload W --seed N --seconds S
//   perfbench footprint --workload W --seed N
//   perfbench audit  --workload W --seed N [--corrupt-audit]
//
// Each pass generates its inputs from the seed, drives gc::runGCopssTrace
// from outside the simulator, and prints one JSON object as its last stdout
// line. perfbench/run.py runs the passes in separate processes, checks them
// against each other and prints the benchmark result; see
// perfbench/README.md for what each number means.
//
//   timed   repeats the workload for S seconds with no observer attached and
//           splits every run into setup / event loop / report windows
//           (host time and operator-new calls); host times are rescaled by
//           a calibration kernel run before and after each run;
//   footprint  one plain run in its own process, for peak RSS;
//   traced  alternates untraced runs (layer counters, report time, engine
//           rounds) with serial runs under the LedgerTap, then times the
//           ST-match / CD-FIB kernels and the bare event loop in isolation;
//   audit   one serial run under the InvariantChecker with the exactly-once
//           delivery audit on. Exit 1 when any invariant other than delivery
//           fails, or when the audit tracked no publication.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "check/invariants.hpp"
#include "copss/router.hpp"
#include "gcopss/client.hpp"
#include "ledger.hpp"
#include "net/network.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace gcopss;
using Clock = std::chrono::steady_clock;
using World = gc::GCopssRunConfig::WorldView;

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- JSON output -------------------------------------------------------------

class Json {
 public:
  Json& num(const char* key, double v) {
    sep();
    std::snprintf(buf_, sizeof buf_, "\"%s\": %.17g", key, v);
    out_ += buf_;
    return *this;
  }
  Json& count(const char* key, std::uint64_t v) {
    sep();
    std::snprintf(buf_, sizeof buf_, "\"%s\": %" PRIu64, key, v);
    out_ += buf_;
    return *this;
  }
  Json& str(const char* key, const std::string& v) {
    sep();
    out_ += "\"" + std::string(key) + "\": \"";
    for (char c : v) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += (c == '\n' || c == '\t') ? ' ' : c;
    }
    out_ += "\"";
    return *this;
  }
  Json& boolean(const char* key, bool v) {
    sep();
    out_ += "\"" + std::string(key) + "\": " + (v ? "true" : "false");
    return *this;
  }
  Json& object(const char* key, const Json& inner) {
    sep();
    out_ += "\"" + std::string(key) + "\": " + inner.text();
    return *this;
  }
  std::string text() const { return "{" + out_ + "}"; }

 private:
  void sep() {
    if (!out_.empty()) out_ += ", ";
  }
  std::string out_;
  char buf_[256];
};

// ---- one run, split into windows --------------------------------------------

// Everything a simulated run must reproduce exactly: across repeated runs of
// one seed, across engines, and between the timed and the audited pass. (The
// mean latency is left out: the parallel engine merges per-shard sums in a
// different order, so it may differ in the last bits.)
struct SimFacts {
  std::uint64_t events = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t linkPackets = 0;
  std::uint64_t drops = 0;
  std::uint64_t queueDrops = 0;
  std::uint64_t queuePeakBytes = 0;
  std::uint64_t rpSplits = 0;
  std::uint64_t bloomFalsePositives = 0;
  std::uint64_t filteredAtHosts = 0;
  double p50Ms = 0.0;
  double p99Ms = 0.0;
  double queueMeanSojournMs = 0.0;

  static SimFacts of(const gc::RunSummary& s) {
    return SimFacts{s.eventsExecuted, s.deliveries, s.linkPackets, s.drops,
                    s.queueDrops, static_cast<std::uint64_t>(s.queuePeakBytes), s.rpSplits,
                    s.bloomFalsePositives, s.filteredAtHosts, s.p50Ms, s.p99Ms,
                    s.queueMeanSojournMs};
  }
  bool operator==(const SimFacts&) const = default;

  Json json() const {
    Json j;
    j.count("events", events)
        .count("deliveries", deliveries)
        .count("link_packets", linkPackets)
        .count("drops", drops)
        .count("queue_drops", queueDrops)
        .count("queue_peak_bytes", queuePeakBytes)
        .count("rp_splits", rpSplits)
        .count("bloom_false_positives", bloomFalsePositives)
        .count("filtered_at_hosts", filteredAtHosts)
        .num("latency_p50_ms", p50Ms)
        .num("latency_p99_ms", p99Ms)
        .num("queue_mean_sojourn_ms", queueMeanSojournMs);
    return j;
  }
};

struct Windows {
  double setupS = 0.0;
  double loopS = 0.0;
  double reportS = 0.0;
  double wallS = 0.0;
  allocs::Counts allocs{};
  gc::RunSummary summary;
};

// One gc::runGCopssTrace call. `ready` runs at onWorldReady (after the
// workload's moves are scheduled, before the loop window opens); `drained`
// runs at onRunDrained (after the report window opens).
Windows runOnce(const Inputs& in, const gc::GCopssRunConfig& base,
                const std::function<void(const World&)>& ready = {},
                const std::function<void(const World&)>& drained = {}) {
  Windows w;
  Clock::time_point tReady;
  Clock::time_point tDrained;
  gc::GCopssRunConfig cfg = base;
  cfg.onWorldReady = [&](const World& world) {
    scheduleMoves(in, cfg, world);
    if (ready) ready(world);
    allocs::setWindow(allocs::kLoop);
    tReady = Clock::now();
  };
  cfg.onRunDrained = [&](const World& world) {
    tDrained = Clock::now();
    allocs::setWindow(allocs::kReport);
    if (drained) drained(world);
  };
  allocs::reset();
  const Clock::time_point t0 = Clock::now();
  w.summary = gc::runGCopssTrace(in.map, in.trace, cfg);
  const Clock::time_point t1 = Clock::now();
  w.allocs = allocs::read();
  w.setupS = secondsBetween(t0, tReady);
  w.loopS = secondsBetween(tReady, tDrained);
  w.reportS = secondsBetween(tDrained, t1);
  w.wallS = secondsBetween(t0, t1);
  return w;
}

// ---- layer counters, read after the drain ------------------------------------

struct LayerCounters {
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t multicastsForwarded = 0;
  std::uint64_t dupSuppressed = 0;
  std::uint64_t clientReceived = 0;
  std::uint64_t parallelRounds = 0;
  std::uint64_t globalPhases = 0;
  bool operator==(const LayerCounters&) const = default;

  static LayerCounters read(const World& world) {
    LayerCounters c;
    for (const copss::CopssRouter* r : world.routers) {
      c.cacheHits += r->st().matchCacheHits();
      c.cacheMisses += r->st().matchCacheMisses();
      c.multicastsForwarded += r->multicastsForwarded();
      c.dupSuppressed += r->duplicatesSuppressed();
    }
    for (const gc::GCopssClient* cl : world.clients) c.clientReceived += cl->received();
    if (ParallelSimulator* p = world.net.parallel()) {
      c.parallelRounds = p->rounds();
      c.globalPhases = p->globalPhases();
    }
    return c;
  }
};

// ---- options -------------------------------------------------------------------

struct Options {
  std::string mode;
  Workload workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool corruptAudit = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench timed|traced|footprint|audit --workload NAME --seed N "
               "[--seconds S] [--corrupt-audit]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Options o;
  o.mode = argv[1];
  if (o.mode != "timed" && o.mode != "traced" && o.mode != "audit" && o.mode != "footprint") {
    usage("unknown mode");
  }
  bool haveWorkload = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (a == "--workload" && hasValue) {
      if (!findWorkload(argv[++i], o.workload)) usage("unknown workload");
      haveWorkload = true;
    } else if (a == "--seed" && hasValue) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && hasValue) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--corrupt-audit") {
      o.corruptAudit = true;
    } else {
      usage(("bad argument " + a).c_str());
    }
  }
  if (!haveWorkload) usage("missing --workload");
  return o;
}

Json hostFacts(std::size_t shards) {
  Json j;
  j.count("nproc", std::thread::hardware_concurrency())
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .count("engine_shards", shards);
  return j;
}

// Repeat `body` until `seconds` have passed, at least `minReps` times; stop
// early when the next repetition would overrun by more than half its length.
void repeatFor(double seconds, int minReps, const std::function<void()>& body) {
  const Clock::time_point start = Clock::now();
  for (int rep = 0;; ++rep) {
    const Clock::time_point t0 = Clock::now();
    body();
    const double took = secondsBetween(t0, Clock::now());
    const double elapsed = secondsBetween(start, Clock::now());
    if (rep + 1 >= minReps && elapsed + 0.5 * took >= seconds) break;
  }
}

// ---- host-speed calibration ----------------------------------------------------

// On a host shared with other tenants, memory-bound code can run up to 2x
// slower for minutes at a time, far more than any change worth measuring.
// The simulator is memory-bound, so each timed run is bracketed by a fixed
// kernel of the same kind (random read-modify-write over 64 MiB) and its host
// times are rescaled to the speed at which that kernel takes
// kCalibrationRefS ("reference seconds"). The kernel is not simulator code,
// so a change to the simulator cannot move it. Raw seconds are reported too.
constexpr double kCalibrationRefS = 0.040;

// Mean time of `samples` runs of the kernel.
double calibrationSeconds(int samples = 1) {
  static std::vector<std::uint64_t> buf(std::size_t{1} << 23);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const Clock::time_point t0 = Clock::now();
  for (int n = 0; n < samples; ++n) {
    for (int i = 0; i < 3'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      buf[x & (buf.size() - 1)] += x;
    }
  }
  const Clock::time_point t1 = Clock::now();
  buf[0] += x;
  return secondsBetween(t0, t1) / samples;
}

// ---- timed -------------------------------------------------------------------

int runTimed(const Options& o) {
  const Inputs in = makeInputs(o.workload, o.seed);
  const gc::GCopssRunConfig cfg = makeConfig(o.workload, o.workload.threads);

  std::vector<double> setup, loop, report, wall, rate, rawSetup, rawWall, rawRate, calibration;
  std::vector<double> allocsSetup, allocsLoop, allocsReport, allocsPerDelivery;
  SimFacts first;
  bool consistent = true;
  int samples = 1;  // kernel runs on each side of a run: ~5% of its length
  repeatFor(o.seconds, 3, [&] {
    const double before = calibrationSeconds(samples);
    const Windows w = runOnce(in, cfg);
    const double calib = 0.5 * (before + calibrationSeconds(samples));
    const double scale = kCalibrationRefS / calib;
    samples = std::clamp(static_cast<int>(0.05 * w.wallS / calib + 0.5), 1, 4);
    const SimFacts f = SimFacts::of(w.summary);
    if (setup.empty()) first = f;
    consistent = consistent && f == first;
    const auto deliveries = static_cast<double>(f.deliveries);
    calibration.push_back(calib);
    setup.push_back(w.setupS * scale);
    loop.push_back(w.loopS * scale);
    report.push_back(w.reportS * scale);
    wall.push_back(w.wallS * scale);
    rate.push_back(deliveries / (w.loopS * scale));
    rawSetup.push_back(w.setupS);
    rawWall.push_back(w.wallS);
    rawRate.push_back(deliveries / w.loopS);
    allocsSetup.push_back(static_cast<double>(w.allocs[allocs::kSetup]));
    allocsLoop.push_back(static_cast<double>(w.allocs[allocs::kLoop]));
    allocsReport.push_back(static_cast<double>(w.allocs[allocs::kReport]));
    allocsPerDelivery.push_back(static_cast<double>(w.allocs[allocs::kLoop]) /
                                std::max(1.0, deliveries));
  });

  Json j;
  j.str("mode", "timed")
      .str("workload", o.workload.name)
      .count("reps", setup.size())
      .num("gen_s", in.genSeconds)
      .num("setup_s", median(setup))
      .num("loop_s", median(loop))
      .num("report_s", median(report))
      .num("wall_s", median(wall))
      .num("deliveries_per_s", median(rate))
      .num("raw_setup_s", median(rawSetup))
      .num("raw_wall_s", median(rawWall))
      .num("raw_deliveries_per_s", median(rawRate))
      .num("calibration_s", median(calibration))
      .num("calibration_ref_s", kCalibrationRefS)
      .num("allocs_setup", median(allocsSetup))
      .num("allocs_loop", median(allocsLoop))
      .num("allocs_report", median(allocsReport))
      .num("allocs_per_delivery", median(allocsPerDelivery))
      .boolean("consistent", consistent)
      .object("sim", first.json())
      .object("host", hostFacts(cfg.threads));
  std::printf("%s\n", j.text().c_str());
  return 0;
}

// ---- footprint ---------------------------------------------------------------

// One plain run in a process of its own, so the peak RSS is the run's alone
// (the timed pass also holds the calibration buffer).
int runFootprint(const Options& o) {
  const Inputs in = makeInputs(o.workload, o.seed);
  const gc::GCopssRunConfig cfg = makeConfig(o.workload, o.workload.threads);
  const Windows w = runOnce(in, cfg);
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  Json j;
  j.str("mode", "footprint")
      .str("workload", o.workload.name)
      .num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)  // ru_maxrss is KiB
      .object("sim", SimFacts::of(w.summary).json())
      .object("host", hostFacts(cfg.threads));
  std::printf("%s\n", j.text().c_str());
  return 0;
}

// ---- traced ------------------------------------------------------------------

int runTraced(const Options& o) {
  const Inputs in = makeInputs(o.workload, o.seed);
  const gc::GCopssRunConfig cfg = makeConfig(o.workload, o.workload.threads);
  const gc::GCopssRunConfig serial = makeConfig(o.workload, 0);

  std::vector<double> loop, report, serialLoop, tracedLoop, stNs, fibNs, calibration;
  std::vector<double> rows[LedgerTap::kRows];
  SimFacts facts;
  LayerCounters counters;
  bool consistent = true;
  bool firstRep = true;

  repeatFor(o.seconds, 2, [&] {
    calibration.push_back(calibrationSeconds());
    // Untraced, on the workload's own engine: counters, report window,
    // engine rounds.
    LayerCounters c;
    const Windows u = runOnce(in, cfg, {}, [&](const World& world) {
      c = LayerCounters::read(world);
    });
    loop.push_back(u.loopS);
    report.push_back(u.reportS);
    const SimFacts f = SimFacts::of(u.summary);
    if (firstRep) {
      facts = f;
      counters = c;
    }
    consistent = consistent && f == facts && c == counters;

    // The tracing baseline: untraced on the serial engine (the same run as
    // above unless the workload is parallel).
    if (cfg.threads > 0) {
      const Windows s = runOnce(in, serial);
      consistent = consistent && SimFacts::of(s.summary) == facts;
      serialLoop.push_back(s.loopS);
    } else {
      serialLoop.push_back(u.loopS);
    }

    // Traced, serial (packet observers are serial-only).
    std::unique_ptr<LedgerTap> tap;
    LedgerTap::Kernels k;
    const Windows t = runOnce(
        in, serial,
        [&](const World& world) {
          tap = std::make_unique<LedgerTap>(world.routers);
          world.net.setObserver(tap.get());
          tap->open();
        },
        [&](const World& world) {
          tap->close();
          world.net.setObserver(nullptr);
          k = tap->replayKernels();
        });
    consistent = consistent && SimFacts::of(t.summary) == facts;
    for (int r = 0; r < LedgerTap::kRows; ++r) {
      rows[r].push_back(tap->seconds(static_cast<LedgerTap::Row>(r)));
    }
    tracedLoop.push_back(tap->loopSeconds());
    stNs.push_back(k.stMatchNs);
    fibNs.push_back(k.fibLpmNs);
    firstRep = false;
  });

  std::vector<double> engineNs;
  for (int i = 0; i < 3; ++i) engineNs.push_back(eventLoopNsPerEvent(2'000'000));

  const double tracedLoopS = median(tracedLoop);
  double tappedS = 0.0;
  for (int r = 0; r < LedgerTap::kUntapped; ++r) tappedS += median(rows[r]);
  const double loopS = median(loop);

  Json ledger;
  ledger.num("transmit_self_s", median(rows[LedgerTap::kTransmit]))
      .num("cpu_enqueue_self_s", median(rows[LedgerTap::kCpuEnqueue]))
      .num("router_handle_self_s", median(rows[LedgerTap::kRouterHandle]))
      .num("client_handle_self_s", median(rows[LedgerTap::kClientHandle]))
      .num("untapped_s", median(rows[LedgerTap::kUntapped]))
      .num("traced_loop_s", tracedLoopS)
      .num("coverage", tappedS / tracedLoopS)
      .num("tap_overhead", tracedLoopS / median(serialLoop));

  Json counts;
  counts.count("cache_hits", counters.cacheHits)
      .count("cache_misses", counters.cacheMisses)
      .count("multicasts_forwarded", counters.multicastsForwarded)
      .count("dup_suppressed", counters.dupSuppressed)
      .count("client_received", counters.clientReceived)
      .count("parallel_rounds", counters.parallelRounds)
      .count("global_phases", counters.globalPhases)
      .count("moves", in.moves.size());

  Json j;
  j.str("mode", "traced")
      .str("workload", o.workload.name)
      .count("reps", loop.size())
      .num("gen_s", in.genSeconds)
      .num("loop_s", loopS)
      .num("report_s", median(report))
      .num("ns_per_event", loopS * 1e9 / static_cast<double>(facts.events))
      .num("engine_ns_per_event", median(engineNs))
      .num("st_match_ns", median(stNs))
      .num("fib_lpm_ns", median(fibNs))
      .num("calibration_s", median(calibration))
      .boolean("consistent", consistent)
      .object("ledger", ledger)
      .object("counters", counts)
      .object("sim", facts.json())
      .object("host", hostFacts(cfg.threads));
  std::printf("%s\n", j.text().c_str());
  return 0;
}

// ---- audit -------------------------------------------------------------------

struct AuditTally {
  std::uint64_t missing = 0;
  std::uint64_t duplicate = 0;
  std::uint64_t other = 0;
  std::string otherReport;
};

// MigrationDelivery violations are the failed operations; everything else
// invalidates the run.
AuditTally tally(const check::InvariantChecker& checker) {
  AuditTally t;
  for (const check::Violation& v : checker.violations()) {
    if (v.invariant != check::Invariant::MigrationDelivery) {
      ++t.other;
      continue;
    }
    unsigned long long theirs = 0;
    unsigned long long mine = 0;
    if (std::sscanf(v.detail.c_str(), "client accepted %llu publications but the audit ledger saw %llu",
                    &theirs, &mine) == 2) {
      t.duplicate += theirs > mine ? theirs - mine : mine - theirs;
    } else {
      ++t.missing;
    }
  }
  if (t.other > 0) t.otherReport = checker.reportText();
  return t;
}

int runAudit(const Options& o) {
  const Inputs in = makeInputs(o.workload, o.seed);
  const gc::GCopssRunConfig cfg = makeConfig(o.workload, 0);
  // Far above any plausible failure count, so nothing is clipped.
  constexpr std::size_t kMaxViolations = std::size_t{1} << 24;

  std::unique_ptr<check::InvariantChecker> checker;
  AuditTally t;
  check::AuditStats stats;
  std::uint64_t accepted = 0;
  bool clipped = false;
  const Windows w = runOnce(
      in, cfg,
      [&](const World& world) {
        check::InvariantChecker::Options opts;
        opts.checkDelivery = true;
        opts.maxViolations = kMaxViolations;
        checker = std::make_unique<check::InvariantChecker>(world.net, world.routers,
                                                            world.clients, opts);
        checker->schedulePeriodic(seconds(1), cfg.warmup + in.trace.duration + seconds(1));
        if (o.corruptAudit) {
          // Negative control: desynchronise one router's Bloom filter from
          // its exact table mid-run; the next audit must flag ST soundness.
          world.net.sim().scheduleAt(cfg.warmup + seconds(1), [routers = world.routers] {
            for (copss::CopssRouter* r : routers) {
              for (NodeId face : r->st().faces()) {
                const auto cds = r->st().cdsOnFace(face);
                if (cds.empty()) continue;
                r->st().corruptBloomForAudit(face, cds.front());
                return;
              }
            }
          });
        }
      },
      [&](const World& world) {
        checker->finalAudit();
        t = tally(*checker);
        stats = checker->stats();
        clipped = checker->violations().size() >= kMaxViolations;
        for (const gc::GCopssClient* c : world.clients) accepted += c->received();
        checker.reset();  // detach before the Network is torn down
      });

  // The checker's periodic audits are events of their own (the final audit
  // is not); remove them so the count compares with unaudited runs.
  SimFacts facts = SimFacts::of(w.summary);
  facts.events -= stats.audits - 1;

  const bool valid = t.other == 0 && !clipped && stats.publicationsTracked > 0;
  Json j;
  j.str("mode", "audit")
      .str("workload", o.workload.name)
      .count("audits", stats.audits)
      .count("publications_tracked", stats.publicationsTracked)
      .count("deliveries_entitled", accepted + t.missing)
      .count("deliveries_missing", t.missing)
      .count("deliveries_duplicate", t.duplicate)
      .count("violations_other", t.other)
      .boolean("valid", valid)
      .object("sim", facts.json())
      .object("host", hostFacts(cfg.threads));
  if (!valid) {
    std::fprintf(stderr, "perfbench audit: invalid run (%" PRIu64
                 " non-delivery violations, %" PRIu64 " publications tracked%s)\n%s",
                 t.other, stats.publicationsTracked, clipped ? ", violations clipped" : "",
                 t.otherReport.c_str());
  }
  std::printf("%s\n", j.text().c_str());
  return valid ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse(argc, argv);
  if (o.mode == "timed") return perfbench::runTimed(o);
  if (o.mode == "traced") return perfbench::runTraced(o);
  if (o.mode == "footprint") return perfbench::runFootprint(o);
  return perfbench::runAudit(o);
}
