#!/usr/bin/env python3
"""Benchmark of the G-COPSS simulator: end-to-end numbers and a per-layer ledger.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and the simulator sources
in src/) into .bench_build/ on first use, then runs the measurement passes of
the perfbench binary in separate processes:

    --trace 0   the timed pass (end-to-end metrics), a footprint pass (peak
                RSS of one plain run) and the audited pass;
    --trace 1   the traced pass (per-layer metrics) and the audited pass.

Every result is checked before it is printed: repeated runs of the seed must
reproduce every simulated number exactly, the timed or traced runs must
match the audited run (for fig6_static_t4 that is the serial engine against
the 4-shard one), and the audit must find no invariant violation other than
missed or duplicated deliveries, which are reported as failed operations.
Any other outcome exits non-zero without a result.

Host times (setup_s, wall_s, deliveries_per_s) are in reference seconds:
each run is bracketed by a fixed calibration kernel and rescaled to the host
speed at which that kernel takes 40 ms, which cancels most of the slowdown
other tenants of a shared host cause. The raw seconds are printed as well.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines above it print every metric with its unit and
the host facts (nproc, build type, engine shards).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

WORKLOADS = ("fig6_static", "fig6_static_t4", "hotspot_churn")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "deliveries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "allocs_per_delivery": "count",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "delivery_ratio": "ratio",
}

PER_LAYER = {
    "des.events": "count",
    "des.events_per_delivery": "ratio",
    "des.ns_per_event": "ns",
    "des.loop_ns_per_event": "ns",
    "des.parallel.rounds": "count",
    "des.parallel.global_phases": "count",
    "des.parallel.events_per_round": "ratio",
    "net.transmit_self_s": "s",
    "net.cpu_enqueue_self_s": "s",
    "net.link_packets": "count",
    "net.drops": "count",
    "net.queue_drops": "count",
    "net.queue_mean_sojourn_ms": "ms",
    "net.queue_peak_bytes": "bytes",
    "copss.router_handle_self_s": "s",
    "copss.st.cache_hit_ratio": "ratio",
    "copss.st.cache_hits": "count",
    "copss.st.cache_misses": "count",
    "copss.st.match_ns": "ns",
    "copss.fib.lpm_ns": "ns",
    "copss.st.bloom_false_positives": "count",
    "copss.multicasts_forwarded": "count",
    "copss.dup_suppressed": "count",
    "copss.rp_splits": "count",
    "gcopss.client_handle_self_s": "s",
    "gcopss.client.received": "count",
    "gcopss.client.filtered_out": "count",
    "gcopss.moves": "count",
    "metrics.report_s": "s",
    "trace.gen_s": "s",
    "check.publications_tracked": "count",
    "check.deliveries_entitled": "count",
    "check.deliveries_failed": "count",
    "check.delivery_failure_rate": "ratio",
    "check.violations_other": "count",
    "ledger.traced_loop_s": "s",
    "ledger.untapped_s": "s",
    "ledger.coverage": "ratio",
    "ledger.tap_overhead": "ratio",
    "host.nproc": "count",
    "host.engine_shards": "count",
    "host.calibration_ms": "ms",
}

# A run must finish within 180 s; the measurement window plus the audit is
# far below that, so these only stop a hung pass.
PASS_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build perfbench into .bench_build/."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to perfbench/")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler temporaries in the checkout
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
                     + generator)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def run_pass(mode, args, extra=()):
    cmd = [BINARY, mode, "--workload", args.workload, "--seed", str(args.seed)]
    if mode in ("timed", "traced"):
        cmd += ["--seconds", str(args.seconds)]
    cmd += list(extra)
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass timed out") from exc
    if done.returncode != 0:
        log(done.stderr[-4000:])
        raise BenchError(f"{mode} pass failed (exit {done.returncode})")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} pass printed nothing")
    return json.loads(lines[-1])


def check_equal(what, a, b):
    if a != b:
        diff = {k: (a.get(k), b.get(k)) for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)}
        raise BenchError(f"{what} differ: {diff}")


def audit_outcome(audit):
    failed = audit["deliveries_missing"] + audit["deliveries_duplicate"]
    entitled = audit["deliveries_entitled"]
    if audit["publications_tracked"] <= 0 or entitled <= 0:
        raise BenchError("the delivery audit tracked no publication")
    return entitled, failed


def end_to_end(timed, footprint, entitled, failed):
    sim = timed["sim"]
    return {
        "setup_s": timed["setup_s"],
        "wall_s": timed["wall_s"],
        "deliveries_per_s": timed["deliveries_per_s"],
        "peak_rss_mb": footprint["peak_rss_mb"],
        "allocs_per_delivery": timed["allocs_per_delivery"],
        "latency_p50_ms": sim["latency_p50_ms"],
        "latency_p99_ms": sim["latency_p99_ms"],
        "delivery_ratio": 1.0 - failed / entitled,
    }


def per_layer(traced, audit, entitled, failed):
    sim, led, cnt = traced["sim"], traced["ledger"], traced["counters"]
    lookups = cnt["cache_hits"] + cnt["cache_misses"]
    rounds = cnt["parallel_rounds"]
    return {
        "des.events": sim["events"],
        "des.events_per_delivery": sim["events"] / sim["deliveries"],
        "des.ns_per_event": traced["ns_per_event"],
        "des.loop_ns_per_event": traced["engine_ns_per_event"],
        "des.parallel.rounds": rounds,
        "des.parallel.global_phases": cnt["global_phases"],
        "des.parallel.events_per_round": sim["events"] / rounds if rounds else 0.0,
        "net.transmit_self_s": led["transmit_self_s"],
        "net.cpu_enqueue_self_s": led["cpu_enqueue_self_s"],
        "net.link_packets": sim["link_packets"],
        "net.drops": sim["drops"],
        "net.queue_drops": sim["queue_drops"],
        "net.queue_mean_sojourn_ms": sim["queue_mean_sojourn_ms"],
        "net.queue_peak_bytes": sim["queue_peak_bytes"],
        "copss.router_handle_self_s": led["router_handle_self_s"],
        "copss.st.cache_hit_ratio": cnt["cache_hits"] / lookups if lookups else 0.0,
        "copss.st.cache_hits": cnt["cache_hits"],
        "copss.st.cache_misses": cnt["cache_misses"],
        "copss.st.match_ns": traced["st_match_ns"],
        "copss.fib.lpm_ns": traced["fib_lpm_ns"],
        "copss.st.bloom_false_positives": sim["bloom_false_positives"],
        "copss.multicasts_forwarded": cnt["multicasts_forwarded"],
        "copss.dup_suppressed": cnt["dup_suppressed"],
        "copss.rp_splits": sim["rp_splits"],
        "gcopss.client_handle_self_s": led["client_handle_self_s"],
        "gcopss.client.received": cnt["client_received"],
        "gcopss.client.filtered_out": sim["filtered_at_hosts"],
        "gcopss.moves": cnt["moves"],
        "metrics.report_s": traced["report_s"],
        "trace.gen_s": traced["gen_s"],
        "check.publications_tracked": audit["publications_tracked"],
        "check.deliveries_entitled": entitled,
        "check.deliveries_failed": failed,
        "check.delivery_failure_rate": failed / entitled,
        "check.violations_other": audit["violations_other"],
        "ledger.traced_loop_s": led["traced_loop_s"],
        "ledger.untapped_s": led["untapped_s"],
        "ledger.coverage": led["coverage"],
        "ledger.tap_overhead": led["tap_overhead"],
        "host.nproc": traced["host"]["nproc"],
        "host.engine_shards": traced["host"]["engine_shards"],
        "host.calibration_ms": traced["calibration_s"] * 1e3,
    }


def measure(args):
    build()
    audit_extra = ["--corrupt-audit"] if args.corrupt_audit else []
    if args.trace:
        measured = run_pass("traced", args)
        audit = run_pass("audit", args, audit_extra)
        if not measured["consistent"]:
            raise BenchError("traced and untraced runs of one seed disagree")
        entitled, failed = audit_outcome(audit)
        values, units = per_layer(measured, audit, entitled, failed), PER_LAYER
    else:
        measured = run_pass("timed", args)
        footprint = run_pass("footprint", args)
        audit = run_pass("audit", args, audit_extra)
        if not measured["consistent"]:
            raise BenchError("repeated runs of one seed disagree")
        check_equal("simulated results of the timed and the footprint run",
                    measured["sim"], footprint["sim"])
        entitled, failed = audit_outcome(audit)
        values, units = end_to_end(measured, footprint, entitled, failed), END_TO_END
    # The audited run is serial; for fig6_static_t4 this is the serial vs
    # 4-shard equivalence check.
    check_equal("simulated results of the measured and the audited run",
                measured["sim"], audit["sim"])
    for name, value in values.items():
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite")
    host = measured["host"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"reps {measured['reps']}")
    print(f"host nproc={host['nproc']} build_type={host['build_type']} "
          f"engine_shards={host['engine_shards']}")
    if not args.trace:
        print(f"operator new per run: setup {measured['allocs_setup']:.0f}, "
              f"event loop {measured['allocs_loop']:.0f}, report {measured['allocs_report']:.0f}")
        print(f"host speed: calibration kernel {measured['calibration_s'] * 1e3:.2f} ms "
              f"(reference {measured['calibration_ref_s'] * 1e3:.0f} ms); raw seconds: "
              f"setup {measured['raw_setup_s']:.6g}, wall {measured['raw_wall_s']:.6g}, "
              f"deliveries/s {measured['raw_deliveries_per_s']:.6g}")
    for name, value in values.items():
        print(f"  {name:34s} {value:>18.6g} {units[name]}")
    return {
        "correct": True,
        "attempted": entitled,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--corrupt-audit", action="store_true",
                        help="negative control: corrupt one Bloom filter mid-run; "
                             "the audit must reject the run")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        result = measure(args)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        log(f"perfbench: {exc}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
