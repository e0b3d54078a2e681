#!/usr/bin/env python3
"""Guard bench_core throughput against regressions.

Compares a fresh `bench_core --quick` run against the committed baseline
(BENCH_core.json, field "quick_reference") and fails if events/sec on either
workload regressed more than the threshold (default 20%), if the fig6 run
broke an invariant (audit not ok: leaked packets, missed or duplicated
deliveries), if its delivery audit tracked no publication at all, if
allocations/event crept back up on the pure event loop or on fig6, or if the
peak RSS after fig6's timed pass outgrew its per-mode bound. The allocation
counts and the footprint are properties of the code, not rates, so they get
absolute bounds rather than ratios.

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
  scripts/bench_check.py --fresh BENCH_core_quick.json [--baseline BENCH_core.json]
                         [--threshold 0.20]
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
# fig6's timed window, world setup included. A --quick run counts about
# 0.17 with per-publisher dedup windows; the hashed seq rings they replaced
# counted 0.82.
MAX_FIG6_ALLOCS_PER_EVENT = 0.3
# Process peak RSS right after fig6's timed pass (the audited pass after it
# holds a delivery ledger and is not bounded), in MiB per bench_core mode.
# With dense dedup rows, --quick peaks near 38 and a full run near 58; the
# hashed dedup tables they replaced peaked near 47 and 86.
MAX_FIG6_TIMED_RSS_MIB = {"quick": 44, "full": 65}


def rate(section):
    return section["events_per_sec"]


def check(fresh, base, threshold):
    failures = []

    for label, fresh_m, base_m in [
        ("event_loop", fresh["event_loop"]["loop"], base["event_loop"]["loop"]),
        ("fig6", fresh["fig6"]["timed"], base["fig6"]["timed"]),
    ]:
        f, b = rate(fresh_m), rate(base_m)
        ratio = f / b if b > 0 else 0.0
        print(f"{label}: fresh {f:,.0f} events/sec vs baseline {b:,.0f} "
              f"({ratio:.2%} of baseline)")
        if ratio < 1.0 - threshold:
            failures.append(
                f"{label} events/sec regressed beyond {threshold:.0%}: "
                f"{f:,.0f} vs baseline {b:,.0f}")

    loop = fresh["event_loop"]["loop"]
    loop_ape = loop["allocs"] / loop["events"] if loop["events"] else 0.0
    print(f"event_loop allocs/event: {loop_ape:.6f}")
    if loop_ape > MAX_LOOP_ALLOCS_PER_EVENT:
        failures.append(
            f"event loop allocates again: {loop_ape:.4f} allocs/event "
            f"(bound {MAX_LOOP_ALLOCS_PER_EVENT})")

    fig6 = fresh["fig6"]["timed"]
    fig6_ape = fig6["allocs"] / fig6["events"] if fig6["events"] else 0.0
    print(f"fig6 allocs/event: {fig6_ape:.4f}")
    if fig6_ape > MAX_FIG6_ALLOCS_PER_EVENT:
        failures.append(
            f"fig6 allocates more: {fig6_ape:.4f} allocs/event "
            f"(bound {MAX_FIG6_ALLOCS_PER_EVENT})")

    mode = fresh.get("mode")
    rss_kb = fresh["fig6"].get("timed_peak_rss_kb")
    if mode not in MAX_FIG6_TIMED_RSS_MIB or rss_kb is None:
        failures.append(f"fig6 timed peak RSS not gated: mode {mode!r}, "
                        f"timed_peak_rss_kb {rss_kb!r}")
    else:
        rss_mib = rss_kb / 1024
        bound = MAX_FIG6_TIMED_RSS_MIB[mode]
        print(f"fig6 timed peak RSS: {rss_mib:.1f} MiB (bound {bound} MiB, {mode})")
        if rss_mib > bound:
            failures.append(f"fig6 timed pass peaks at {rss_mib:.1f} MiB RSS "
                            f"(bound {bound} MiB for a {mode} run)")

    audit = fresh["fig6"]["audit"]
    tracked = audit.get("publications_tracked", 0)
    print(f"fig6 audit: ok={audit['ok']} violations={audit['violations']} "
          f"audits={audit['audits']} publications_tracked={tracked}")
    if not audit["ok"]:
        failures.append(f"invariant audit reported {audit['violations']} violation(s)")
    if tracked <= 0:
        failures.append("fig6 delivery audit tracked no publication")

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
    ap.add_argument("--baseline", default="BENCH_core.json",
                    help="committed baseline file (default: BENCH_core.json)")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="allowed fractional events/sec regression (default 0.20)")
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
        with open(args.baseline) as f:
            committed = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_check: cannot read inputs: {e}", file=sys.stderr)
        return 2

    base = committed.get("quick_reference")
    if base is None:
        print("bench_check: baseline file has no 'quick_reference' section", file=sys.stderr)
        return 2
    if fresh.get("mode") != base.get("mode"):
        print(f"bench_check: comparing mode={fresh.get('mode')!r} against "
              f"baseline mode={base.get('mode')!r} is apples-to-oranges", file=sys.stderr)
        return 2

    failures = check(fresh, base, args.threshold)

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
