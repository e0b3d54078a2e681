#!/usr/bin/env python3
"""Guard the core benchmarks against regressions.

Two inputs are required, and each is gated against its reference in the
committed baseline (BENCH_core.json):

--fresh takes a fresh `bench_core --quick` run, compared with the field
"quick_reference". It fails if the bare event loop's events/sec regressed
more than the threshold (default 20%), or if the loop allocates again.

--fig6-fresh takes the last stdout line (the result object) of
`python3 perfbench/run.py --workload fig6_static --seed 1 --seconds 5
--trace 0`, compared with the field "fig6_static_reference". This is Fig. 6
at 400 players, certified by perfbench's delivery audit. It fails if the run
is not correct, if any entitled delivery was missed or duplicated (failed >
0), if the audit found no entitled delivery at all (attempted < 1), if
steady-state allocations per delivery or the footprint's peak RSS exceed
their absolute bounds, or if deliveries per reference second fell below
(1 - threshold) of the reference. Allocation counts and the footprint are
properties of the code, not rates, so they get absolute bounds rather than
ratios. perfbench reports the rate in calibrated reference seconds, so it
moves less between hosts than raw events/sec.

With --parallel-fresh it additionally gates the multithreaded DES engine
(BENCH_parallel schema): every config must have reproduced the serial run
bit-identically ("identical": true), and — when the host that produced the
fresh run had >= 4 hardware threads — the threads=4 row must be at least
--min-speedup (default 1.3x) faster than serial in events/sec. Hosts with
fewer hardware threads run the equivalence check only; scaling cannot be
certified on hardware that cannot scale, and pretending otherwise would just
make the gate flaky.

With --congestion-fresh it also gates the finite-bandwidth story
(BENCH_congestion schema). Every number in that report is simulated time, so
a fresh --quick run must reproduce the committed "quick_reference" exactly —
any drift means the queueing model changed behaviour. On top of the exact
match, the qualitative claims are asserted outright: at the heaviest sweep
point the saturated IP uplink must cost at least 2x the G-COPSS latency and
must have dropped packets, while the auto-balancing run must have split the
root RP from measured face-queue backlog at least once.

With --hybrid-fresh it gates the hybrid COPSS+IP path (BENCH_hybrid schema,
Table II). Like the congestion gate, every number is deterministic simulated
time, so a fresh --quick run must reproduce the committed "quick_reference"
rows exactly. The paper's qualitative Table II shape is asserted on top:
hybrid must beat pure G-COPSS on update latency (IP-speed core), pure
G-COPSS must carry the least network load, the IP server the most, and the
hybrid run must actually exhibit aliasing waste (unwanted packets dropped at
edges) — otherwise the group aliasing under test is not doing anything.

Usage:
  scripts/bench_check.py --fresh BENCH_core_quick.json
                         --fig6-fresh BENCH_fig6_static_quick.json
                         [--baseline BENCH_core.json] [--threshold 0.20]
                         [--parallel-fresh BENCH_parallel_quick.json]
                         [--min-speedup 1.3]
                         [--congestion-fresh BENCH_congestion_quick.json]
                         [--congestion-baseline BENCH_congestion.json]
                         [--hybrid-fresh BENCH_hybrid_quick.json]
                         [--hybrid-baseline BENCH_hybrid.json]

Exit status: 0 ok, 1 regression/violation, 2 bad input.
"""

import argparse
import json
import sys

# The steady-state event loop must stay allocation-free; allow only the
# harness's own fixed startup allocations amortized over a --quick run.
MAX_LOOP_ALLOCS_PER_EVENT = 0.01
# fig6_static's operator new calls in the event-loop window per delivery
# (world setup excluded). Seed 1 counts 0.188 on a 4-core host.
MAX_FIG6_ALLOCS_PER_DELIVERY = 0.25
# fig6_static's footprint pass: peak RSS of one plain run in its own
# process. Seed 1 peaks at 47.8 MB.
MAX_FIG6_PEAK_RSS_MB = 55


def check_rate(label, unit, f, b, threshold):
    """A rate may fall at most `threshold` below its reference."""
    ratio = f / b if b > 0 else 0.0
    print(f"{label}: fresh {f:,.0f} {unit} vs baseline {b:,.0f} ({ratio:.2%} of baseline)")
    if ratio < 1.0 - threshold:
        return [f"{label} {unit} regressed beyond {threshold:.0%}: {f:,.0f} vs baseline {b:,.0f}"]
    return []


def check_core(fresh, base, threshold):
    """Gate a bench_core --quick run: the bare event loop's rate against the
    reference, and its allocations against an absolute bound."""
    loop = fresh["event_loop"]["loop"]
    failures = check_rate("event_loop", "events/sec", loop["events_per_sec"],
                          base["event_loop"]["loop"]["events_per_sec"], threshold)

    ape = loop["allocs"] / loop["events"] if loop["events"] else 0.0
    print(f"event_loop allocs/event: {ape:.6f}")
    if ape > MAX_LOOP_ALLOCS_PER_EVENT:
        failures.append(f"event loop allocates again: {ape:.4f} allocs/event "
                        f"(bound {MAX_LOOP_ALLOCS_PER_EVENT})")
    return failures


def check_fig6(fresh, base, threshold):
    """Gate a perfbench fig6_static result: exactly-once delivery, steady-state
    allocations, footprint, and the delivery rate against the reference."""
    failures = []
    metrics = fresh["metrics"]
    attempted, failed = fresh["attempted"], fresh["failed"]

    print(f"fig6_static audit: correct={fresh['correct']} attempted={attempted:,} "
          f"failed={failed:,}")
    if fresh["correct"] is not True:
        failures.append("fig6_static: perfbench did not mark the run correct")
    if failed != 0:
        failures.append(f"fig6_static: {failed:,} entitled deliveries missed or duplicated")
    if attempted < 1:
        failures.append("fig6_static: the delivery audit found no entitled delivery")

    apd = metrics["allocs_per_delivery"]["value"]
    print(f"fig6_static allocs/delivery: {apd:.4f} (bound {MAX_FIG6_ALLOCS_PER_DELIVERY})")
    if apd > MAX_FIG6_ALLOCS_PER_DELIVERY:
        failures.append(f"fig6_static allocates more: {apd:.4f} allocs/delivery "
                        f"(bound {MAX_FIG6_ALLOCS_PER_DELIVERY})")

    rss = metrics["peak_rss_mb"]["value"]
    print(f"fig6_static peak RSS: {rss:.1f} MB (bound {MAX_FIG6_PEAK_RSS_MB} MB)")
    if rss > MAX_FIG6_PEAK_RSS_MB:
        failures.append(f"fig6_static peaks at {rss:.1f} MB RSS "
                        f"(bound {MAX_FIG6_PEAK_RSS_MB} MB)")

    failures += check_rate("fig6_static", "deliveries/s", metrics["deliveries_per_s"]["value"],
                           base["metrics"]["deliveries_per_s"]["value"], threshold)
    return failures


def check_parallel(fresh, min_speedup):
    """Gate a BENCH_parallel run: equivalence always, scaling when the
    recording host can physically scale."""
    failures = []

    if not fresh.get("identical", False):
        failures.append("parallel engine diverged from the serial run "
                        "(\"identical\": false) — determinism broken")

    rows = {r["threads"]: r for r in fresh["fig6"]["rows"]}
    serial = rows.get(0)
    four = rows.get(4)
    if serial is None or four is None:
        failures.append("parallel report missing the threads=0 or threads=4 row")
        return failures

    hw = fresh.get("hw_threads", 0)
    speedup = (four["events_per_sec"] / serial["events_per_sec"]
               if serial["events_per_sec"] > 0 else 0.0)
    print(f"parallel: serial {serial['events_per_sec']:,.0f} events/sec, "
          f"threads=4 {four['events_per_sec']:,.0f} "
          f"({speedup:.2f}x, host has {hw} hardware threads)")
    if hw >= 4:
        if speedup < min_speedup:
            failures.append(
                f"threads=4 speedup {speedup:.2f}x below the {min_speedup}x gate "
                f"on a {hw}-thread host")
    else:
        print(f"parallel: scaling gate skipped — host has only {hw} hardware "
              f"thread(s); equivalence checked, speedup not certifiable here")

    return failures


def check_congestion(fresh, base):
    """Gate a BENCH_congestion run: exact reproduction of the committed
    quick_reference (everything in it is deterministic sim time), plus the
    qualitative saturation/balancer claims the bench exists to demonstrate."""
    failures = []

    if fresh.get("mode") != "quick":
        failures.append(f"congestion: fresh run has mode={fresh.get('mode')!r}, "
                        "expected a --quick run")
        return failures

    for key in ("sweep", "balancer", "link_bps", "server_uplink_bps"):
        if fresh.get(key) != base.get(key):
            failures.append(
                f"congestion: fresh {key!r} differs from the committed "
                f"quick_reference — the deterministic queueing model drifted")

    sweep = fresh.get("sweep") or []
    if not sweep:
        failures.append("congestion: fresh report has an empty sweep")
        return failures
    heaviest = max(sweep, key=lambda p: p["players"])
    ratio = heaviest["ip_over_gcopss"]
    ip_drops = heaviest["ipserver"]["queue_drops"]
    print(f"congestion: {heaviest['players']} players — IP/G-COPSS latency "
          f"{ratio:.2f}x, IP uplink drops {ip_drops:,}")
    if ratio < 2.0:
        failures.append(
            f"congestion: saturated IP uplink only {ratio:.2f}x worse than "
            "G-COPSS at the heaviest point (need >= 2x)")
    if ip_drops <= 0:
        failures.append("congestion: saturated IP uplink dropped nothing — "
                        "the uplink is not actually saturated")

    splits = fresh.get("balancer", {}).get("rp_splits", 0)
    print(f"congestion: balancer rp_splits={splits}")
    if splits < 1:
        failures.append("congestion: auto-balancer never split the root RP "
                        "from face-queue backlog")

    return failures


def check_hybrid(fresh, base):
    """Gate a BENCH_hybrid (Table II) run: exact reproduction of the
    committed quick_reference (deterministic sim time), plus the paper's
    qualitative latency/load ordering across the three stacks."""
    failures = []

    if fresh.get("mode") != "quick":
        failures.append(f"hybrid: fresh run has mode={fresh.get('mode')!r}, "
                        "expected a --quick run")
        return failures

    for key in ("updates", "rows"):
        if fresh.get(key) != base.get(key):
            failures.append(
                f"hybrid: fresh {key!r} differs from the committed "
                f"quick_reference — the deterministic hybrid data plane drifted")

    rows = {r["type"]: r for r in fresh.get("rows", [])}
    missing = {"ipserver", "gcopss", "hybrid"} - rows.keys()
    if missing:
        failures.append(f"hybrid: report missing rows: {sorted(missing)}")
        return failures
    ip, gc, hy = rows["ipserver"], rows["gcopss"], rows["hybrid"]

    print(f"hybrid: latency ms — ip {ip['mean_ms']:.2f}, gcopss {gc['mean_ms']:.2f}, "
          f"hybrid {hy['mean_ms']:.2f}; load GB — ip {ip['network_gb']:.3f}, "
          f"gcopss {gc['network_gb']:.3f}, hybrid {hy['network_gb']:.3f}; "
          f"aliasing waste {hy['unwanted_at_edges']:,} at edges")
    if hy["mean_ms"] >= gc["mean_ms"]:
        failures.append(
            f"hybrid: IP-speed core no longer wins on latency "
            f"({hy['mean_ms']:.2f} ms vs G-COPSS {gc['mean_ms']:.2f} ms)")
    if not (gc["network_gb"] <= hy["network_gb"] <= ip["network_gb"]):
        failures.append(
            "hybrid: Table II load ordering broken (want gcopss <= hybrid <= "
            f"ipserver, got {gc['network_gb']:.3f} / {hy['network_gb']:.3f} / "
            f"{ip['network_gb']:.3f} GB)")
    if hy["unwanted_at_edges"] <= 0:
        failures.append("hybrid: no aliasing waste at edges — group aliasing "
                        "is not exercising the edge filters")

    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh", required=True, help="JSON from a fresh bench_core --quick run")
    ap.add_argument("--fig6-fresh", required=True,
                    help="result line of a fresh perfbench fig6_static run "
                         "(--seed 1 --seconds 5 --trace 0)")
    ap.add_argument("--baseline", default="BENCH_core.json",
                    help="committed baseline file (default: BENCH_core.json)")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="allowed fractional regression of events/sec and "
                         "deliveries/s (default 0.20)")
    ap.add_argument("--parallel-fresh", default=None,
                    help="JSON from a fresh bench_parallel --quick run (optional)")
    ap.add_argument("--min-speedup", type=float, default=1.3,
                    help="required threads=4 speedup over serial on >=4-thread "
                         "hosts (default 1.3)")
    ap.add_argument("--congestion-fresh", default=None,
                    help="JSON from a fresh bench_congestion --quick run (optional)")
    ap.add_argument("--congestion-baseline", default="BENCH_congestion.json",
                    help="committed congestion baseline (default: BENCH_congestion.json)")
    ap.add_argument("--hybrid-fresh", default=None,
                    help="JSON from a fresh bench_table2_hybrid --quick run (optional)")
    ap.add_argument("--hybrid-baseline", default="BENCH_hybrid.json",
                    help="committed hybrid baseline (default: BENCH_hybrid.json)")
    args = ap.parse_args()

    try:
        with open(args.fresh) as f:
            fresh = json.load(f)
        with open(args.fig6_fresh) as f:
            fig6 = json.load(f)
        with open(args.baseline) as f:
            committed = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_check: cannot read inputs: {e}", file=sys.stderr)
        return 2

    base = committed.get("quick_reference")
    fig6_base = committed.get("fig6_static_reference")
    if base is None or fig6_base is None:
        print("bench_check: baseline file needs both 'quick_reference' and "
              "'fig6_static_reference' sections", file=sys.stderr)
        return 2
    if fresh.get("mode") != base.get("mode"):
        print(f"bench_check: comparing mode={fresh.get('mode')!r} against "
              f"baseline mode={base.get('mode')!r} is apples-to-oranges", file=sys.stderr)
        return 2

    try:
        failures = check_core(fresh, base, args.threshold)
        failures += check_fig6(fig6, fig6_base, args.threshold)
    except (KeyError, TypeError) as e:
        print(f"bench_check: malformed bench_core or fig6_static input: {e!r}",
              file=sys.stderr)
        return 2

    if args.parallel_fresh:
        try:
            with open(args.parallel_fresh) as f:
                parallel = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_check: cannot read parallel input: {e}", file=sys.stderr)
            return 2
        failures += check_parallel(parallel, args.min_speedup)

    if args.congestion_fresh:
        try:
            with open(args.congestion_fresh) as f:
                congestion = json.load(f)
            with open(args.congestion_baseline) as f:
                congestion_base = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_check: cannot read congestion input: {e}", file=sys.stderr)
            return 2
        cref = congestion_base.get("quick_reference")
        if cref is None:
            print("bench_check: congestion baseline has no 'quick_reference' section",
                  file=sys.stderr)
            return 2
        failures += check_congestion(congestion, cref)

    if args.hybrid_fresh:
        try:
            with open(args.hybrid_fresh) as f:
                hybrid = json.load(f)
            with open(args.hybrid_baseline) as f:
                hybrid_base = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_check: cannot read hybrid input: {e}", file=sys.stderr)
            return 2
        href = hybrid_base.get("quick_reference")
        if href is None:
            print("bench_check: hybrid baseline has no 'quick_reference' section",
                  file=sys.stderr)
            return 2
        failures += check_hybrid(hybrid, href)

    if failures:
        print("\nFAIL:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nOK: within threshold, allocation bounds held, audit clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
